"""Loops and loop-nest structure.

A :class:`Loop` is a Fortran DO loop with affine bounds (the bounds may
reference outer loop variables, which expresses the triangular iteration
spaces of the linear-algebra kernels, e.g. ``do j = k+1, N``).  Bodies mix
statements and nested loops.

:func:`loop_nests` and :func:`perfect_nest_refs` provide the traversal the
padding analyses use: the paper computes conflict distances "over all
loops", i.e. per outermost loop nest, between references that appear
anywhere inside it.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple, Union

from repro.errors import IRError
from repro.ir.expr import AffineExpr
from repro.ir.nest import trip
from repro.ir.refs import ArrayRef
from repro.ir.stmts import Statement

BodyNode = Union["Loop", Statement]


class Loop:
    """``do var = lower, upper, step`` with a body of statements/loops."""

    __slots__ = ("var", "lower", "upper", "step", "body", "line")

    def __init__(
        self,
        var: str,
        lower,
        upper,
        body: Sequence[BodyNode],
        step: int = 1,
        line: int = 0,
    ):
        if not isinstance(var, str) or not var:
            raise IRError("loop needs an index variable name")
        if not isinstance(step, int) or step == 0:
            raise IRError(f"loop step must be a nonzero int, got {step!r}")
        self.var = var
        self.lower = AffineExpr.coerce(lower)
        self.upper = AffineExpr.coerce(upper)
        self.step = step
        self.line = int(line)
        self.body: Tuple[BodyNode, ...] = tuple(body)
        for node in self.body:
            if not isinstance(node, (Loop, Statement)):
                raise IRError(f"loop body nodes must be Loop or Statement, got {node!r}")

    def statements(self) -> Iterator[Statement]:
        """All statements anywhere inside this loop, in textual order."""
        for node in self.body:
            if isinstance(node, Statement):
                yield node
            else:
                yield from node.statements()

    def refs(self) -> Iterator[ArrayRef]:
        """All array references anywhere inside this loop."""
        for stmt in self.statements():
            yield from stmt.refs

    def inner_loops(self) -> Iterator["Loop"]:
        """All loops nested (at any depth) inside this one."""
        for node in self.body:
            if isinstance(node, Loop):
                yield node
                yield from node.inner_loops()

    def loop_vars(self) -> Tuple[str, ...]:
        """This loop's variable followed by all nested loop variables."""
        names = [self.var]
        for inner in self.inner_loops():
            if inner.var not in names:
                names.append(inner.var)
        return tuple(names)

    @property
    def is_innermost(self) -> bool:
        """True when the body contains no nested loop."""
        return not any(isinstance(node, Loop) for node in self.body)

    def trip_count(self, env) -> int:
        """Number of iterations under concrete outer-variable values."""
        return trip(
            self.lower.evaluate(env), self.upper.evaluate(env), self.step
        )

    def __repr__(self) -> str:
        head = f"do {self.var} = {self.lower}, {self.upper}"
        if self.step != 1:
            head += f", {self.step}"
        return f"Loop({head}; {len(self.body)} body nodes)"


def loop_nests(body: Sequence[BodyNode]) -> List[Loop]:
    """The outermost loops of a program body (the paper's "loops").

    Top-level statements outside any loop execute once and cannot cause
    severe per-iteration conflicts, so the analyses ignore them.
    """
    return [node for node in body if isinstance(node, Loop)]


def nest_depth(loop: Loop) -> int:
    """Maximum nesting depth of a loop (1 for a non-nested loop)."""
    depths = [nest_depth(node) for node in loop.body if isinstance(node, Loop)]
    return 1 + (max(depths) if depths else 0)


def all_statements(body: Sequence[BodyNode]) -> Iterator[Statement]:
    """Every statement in a body, including top-level ones."""
    for node in body:
        if isinstance(node, Statement):
            yield node
        else:
            yield from node.statements()


def all_refs(body: Sequence[BodyNode]) -> Iterator[ArrayRef]:
    """Every array reference in a body."""
    for stmt in all_statements(body):
        yield from stmt.refs

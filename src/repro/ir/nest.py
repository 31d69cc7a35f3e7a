"""The affine-nest normal form: linearized addresses and perfect nests.

Every array reference's byte address is the paper's expression (1):

    addr(A(e1, ..., ed)) = base(A) + sum_k (e_k - lb_k) * stride_k

:func:`linear_address` is the one place that sum is written.  Affine
subscripts fold into a single :class:`AffineExpr`; indirect subscripts
``X(IDX(i))`` cannot, so they come back as separate terms for the trace
interpreter to gather at run time.

A *perfect* nest (every non-innermost body is exactly one loop, the
innermost body is all statements) whose references are all affine has a
closed-form address stream.  :func:`normalize_nest` checks a nest's
preconditions and, when they hold, returns its :class:`NestForm`: one
integer matrix ``A`` (one row per reference, one column per loop level:
the address coefficient of that level's variable) plus a residual affine
constant per reference over the *enclosing* loop variables, which are
fixed for the duration of the nest.  :meth:`NestForm.bind` evaluates
bounds and residuals against one environment, and
:meth:`BoundNest.blocks` generates the stream in batches: decompose a
range of flat iteration numbers into per-level trip counters with
divmods, then one integer matmul per block.

A nest that fails a precondition gets a reason from :data:`NEST_REASONS`:

* ``imperfect`` — a non-innermost level whose body is not exactly one loop
  (statements between loop levels, or sibling loops).
* ``shadowed`` — the same variable bound at two levels of the chain.
* ``symbolic_bounds`` — a bound that references one of the nest's own
  variables (triangular nests); bounds over enclosing variables are fine.
* ``indirect`` — any reference with an ``X(IDX(i))`` subscript.

The trace JIT (:mod:`repro.jit`) and the analytic predictor
(:mod:`repro.analysis.predict`) both build on this form and add only
their own policy on top.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.ir.expr import AffineExpr, IndirectExpr

if TYPE_CHECKING:  # repro.ir.loops imports this module for trip()
    from repro.ir.arrays import ArrayDecl
    from repro.ir.loops import Loop
    from repro.ir.program import Program
    from repro.ir.refs import ArrayRef
    from repro.layout.layout import MemoryLayout

#: The structural reasons a nest has no normal form, in check order.
NEST_REASONS = ("imperfect", "shadowed", "symbolic_bounds", "indirect")

#: An indirect subscript's share of an address: (subscript, stride,
#: dimension lower bound, dimension upper bound).
IndirectTerm = Tuple[IndirectExpr, int, int, int]


def trip(lo: int, hi: int, step: int) -> int:
    """Iteration count of ``do v = lo, hi, step`` (0 for empty ranges)."""
    if step > 0:
        return max(0, (hi - lo) // step + 1)
    return max(0, (lo - hi) // (-step) + 1)


def linear_address(
    ref: "ArrayRef", decl: "ArrayDecl", strides: Sequence[int], base: int
) -> Tuple[AffineExpr, List[IndirectTerm]]:
    """``ref``'s byte address: its affine part and its indirect terms.

    The affine part sums ``(sub - lower) * stride`` over the affine
    subscripts on top of ``base``; each indirect subscript is returned as
    an :data:`IndirectTerm` instead (the list is empty for an affine
    reference).
    """
    addr = AffineExpr(base)
    indirect: List[IndirectTerm] = []
    for sub, stride, dim in zip(ref.subscripts, strides, decl.dims):
        if isinstance(sub, IndirectExpr):
            indirect.append((sub, stride, dim.lower, dim.upper))
        else:
            addr = addr + (sub - dim.lower) * stride
    return addr, indirect


def ref_address(
    ref: "ArrayRef", prog: "Program", layout: "MemoryLayout"
) -> Tuple[AffineExpr, List[IndirectTerm]]:
    """:func:`linear_address` under a layout's bases and padded strides."""
    return linear_address(
        ref, prog.array(ref.array), layout.strides(ref.array),
        layout.base(ref.array),
    )


def perfect_chain(loop: "Loop") -> Optional[List["Loop"]]:
    """The levels of the perfect nest headed at ``loop``, outermost first.

    None when some level's body holds statements next to a loop, or
    several loops.
    """
    chain = [loop]
    node = loop
    while not node.is_innermost:
        if len(node.body) != 1:
            return None
        node = node.body[0]
        chain.append(node)
    return chain


class NestForm:
    """A perfect affine nest in normal form (layout-specialized).

    Immutable once built; :meth:`bind` produces a :class:`BoundNest` for
    one concrete enclosing environment.  A form bakes in one layout's
    bases and strides, so it must never be replayed under another.
    """

    __slots__ = (
        "variables", "lowers", "uppers", "steps", "coeffs", "scaled",
        "consts", "flags", "refs",
    )

    def __init__(
        self,
        chain: Sequence["Loop"],
        coeffs: np.ndarray,
        consts: Tuple[AffineExpr, ...],
        refs: Tuple["ArrayRef", ...],
    ):
        self.variables = tuple(level.var for level in chain)
        self.lowers = tuple(level.lower for level in chain)
        self.uppers = tuple(level.upper for level in chain)
        self.steps = tuple(level.step for level in chain)
        self.coeffs = coeffs  # (refs, depth) int64: address coef per level
        # Address delta per trip counter: the coefficients times the steps.
        self.scaled = coeffs * np.asarray(self.steps, dtype=np.int64)[None, :]
        self.consts = consts  # per-ref residual over *enclosing* vars only
        self.flags = np.asarray([ref.is_write for ref in refs], dtype=bool)
        self.refs = refs

    def trips(self, env: Mapping[str, int]) -> Tuple[int, ...]:
        """Per-level trip counts under ``env``."""
        return tuple(
            trip(lo.evaluate(env), hi.evaluate(env), step)
            for lo, hi, step in zip(self.lowers, self.uppers, self.steps)
        )

    def bind(self, env: Mapping[str, int]) -> "BoundNest":
        """Evaluate bounds and residual constants against ``env``."""
        lows = np.array(
            [expr.evaluate(env) for expr in self.lowers], dtype=np.int64
        )
        consts = np.array(
            [expr.evaluate(env) for expr in self.consts], dtype=np.int64
        )
        # Address of ref j at trip counters t: consts[j] + A[j]·(lo + step*t)
        # = c0[j] + (A*step)[j]·t — fold the start values into the constant.
        c0 = consts + self.coeffs @ lows
        return BoundNest(self.trips(env), c0, self.scaled, self.flags)


class BoundNest:
    """A nest form bound to concrete bounds: a block-stream generator."""

    __slots__ = ("trips", "c0", "coeffs", "flags", "total_iters", "accesses")

    def __init__(
        self,
        trips: Tuple[int, ...],
        c0: np.ndarray,
        coeffs: np.ndarray,
        flags: np.ndarray,
    ):
        self.trips = trips
        self.c0 = c0          # (refs,) per-ref address at trip (0, ..., 0)
        self.coeffs = coeffs  # (refs, depth) address delta per trip counter
        self.flags = flags
        total = 1
        for n in trips:
            total *= n
        self.total_iters = total
        self.accesses = total * len(c0)

    def blocks(
        self, chunk: int, flat_lo: int = 0, flat_hi: Optional[int] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield (addresses, writes) blocks of ~``chunk`` accesses.

        Covers flat iterations ``[flat_lo, flat_hi)`` (default: all).
        Iteration order is exactly the interpreter's: the last loop level
        varies fastest, and within one iteration the references appear in
        program order with their write flags.
        """
        refs = len(self.c0)
        if flat_hi is None:
            flat_hi = self.total_iters
        if refs == 0 or flat_hi <= flat_lo:
            return
        depth = len(self.trips)
        trips = self.trips
        # suffix[k] = iterations of the levels inside level k, so a flat
        # iteration number decomposes as t_k = (flat // suffix[k]) % n_k.
        suffix = [1] * depth
        for k in range(depth - 2, -1, -1):
            suffix[k] = suffix[k + 1] * trips[k + 1]
        iters_per_block = max(1, chunk // refs)
        full_writes = np.tile(self.flags, iters_per_block)
        transposed = np.ascontiguousarray(self.coeffs.T)  # (depth, refs)
        for start in range(flat_lo, flat_hi, iters_per_block):
            stop = min(flat_hi, start + iters_per_block)
            flat = np.arange(start, stop, dtype=np.int64)
            counters = np.empty((stop - start, depth), dtype=np.int64)
            for k in range(depth):
                np.floor_divide(flat, suffix[k], out=counters[:, k])
                if k:  # level 0 never wraps: flat < n_0 * suffix[0]
                    counters[:, k] %= trips[k]
            addrs = (counters @ transposed + self.c0).reshape(-1)
            if stop - start == iters_per_block:
                writes = full_writes
            else:
                writes = np.tile(self.flags, stop - start)
            yield addrs, writes


def normalize_nest(
    loop: "Loop", prog: "Program", layout: "MemoryLayout"
) -> Union[NestForm, str]:
    """The normal form of the nest headed at ``loop``, or why it has none."""
    chain = perfect_chain(loop)
    if chain is None:
        return "imperfect"
    names = tuple(level.var for level in chain)
    if len(set(names)) != len(names):
        return "shadowed"
    own = frozenset(names)
    for level in chain:
        if level.lower.uses_any(own) or level.upper.uses_any(own):
            return "symbolic_bounds"
    refs = tuple(ref for stmt in chain[-1].body for ref in stmt.refs)
    if not all(ref.is_affine for ref in refs):
        return "indirect"

    rows: List[List[int]] = []
    consts: List[AffineExpr] = []
    for ref in refs:
        addr, _ = ref_address(ref, prog, layout)
        rows.append([addr.coeff(name) for name in names])
        residual = {v: c for v, c in addr.coeffs.items() if v not in own}
        consts.append(AffineExpr(addr.const, residual))
    coeffs = (
        np.array(rows, dtype=np.int64)
        if rows
        else np.zeros((0, len(names)), dtype=np.int64)
    )
    return NestForm(chain, coeffs, tuple(consts), refs)

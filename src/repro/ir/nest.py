"""The affine-nest normal form: linearized addresses, gathers and nests.

Every array reference's byte address is the paper's expression (1):

    addr(A(e1, ..., ed)) = base(A) + sum_k (e_k - lb_k) * stride_k

:func:`linear_address` is the one place that sum is written.  Affine
subscripts fold into a single :class:`AffineExpr`; an indirect subscript
``X(IDX(e))`` cannot, so under a layout it becomes a :class:`Gather`: the
load of ``IDX(e)`` (itself an affine address) plus the offset
``(IDX(e) - lb) * stride`` read out of the index data.  :class:`Gather` is
the one place index data turns into addresses; its checked
:meth:`Gather.gather` is the one place a bad index is reported.

A *perfect* nest (every non-innermost body is exactly one loop, the
innermost body is all statements) with rectangular bounds has a
closed-form address stream.  :func:`normalize_nest` checks a nest's
preconditions and, when they hold, returns its :class:`NestForm`: one
integer matrix ``A`` (one row per emitted column, one column per loop
level: the address coefficient of that level's variable) plus a residual
affine constant per column over the *enclosing* loop variables, which are
fixed for the duration of the nest.  A reference emits one column; a
gather reference emits its index loads first, then its own column, which
also carries a *gather term*: the position in the index data, affine in
the nest variables like any address, and the target dimension's
``(stride, lower, upper)``.  :meth:`NestForm.bind` evaluates bounds,
residual constants and gather positions against one environment and the
index data, and :meth:`BoundNest.blocks` generates the stream in batches:
decompose a range of flat iteration numbers into per-level trip counters
with divmods, one integer matmul per block, then for each gather term
``values[positions]`` added in as ``(values - lower) * stride``.

``bind`` proves every gather in range before anything is emitted: the
positions are affine over a box, so its corners bound them, and the index
values over that slice of the data bound what is read.  When either check
fails, ``bind`` returns :data:`GATHER_RANGE` instead of a
:class:`BoundNest`, and the caller runs the interpreter, which reports the
bad index itself.  ``blocks`` therefore never raises.

A nest that fails a structural precondition gets a reason from
:data:`NEST_REASONS`:

* ``imperfect`` — a non-innermost level whose body is not exactly one loop
  (statements between loop levels, or sibling loops).
* ``shadowed`` — the same variable bound at two levels of the chain.
* ``symbolic_bounds`` — a bound that references one of the nest's own
  variables (triangular nests); bounds over enclosing variables are fine.

The trace JIT (:mod:`repro.jit`) and the analytic predictor
(:mod:`repro.analysis.predict`) both build on this form and add only
their own policy on top; the predictor refuses gathers (its translation
folding needs an address stream that shifts with the loop variables).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.errors import SimulationError
from repro.ir.expr import AffineExpr, IndirectExpr

if TYPE_CHECKING:  # repro.ir.loops imports this module for trip()
    from repro.ir.arrays import ArrayDecl
    from repro.ir.loops import Loop
    from repro.ir.program import Program
    from repro.ir.refs import ArrayRef
    from repro.layout.layout import MemoryLayout
    from repro.trace.env import DataEnv

#: The structural reasons a nest has no normal form, in check order.
NEST_REASONS = ("imperfect", "shadowed", "symbolic_bounds")

#: What :meth:`NestForm.bind` returns when a gather may leave its bounds.
GATHER_RANGE = "gather_range"

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
) -> Tuple[AffineExpr, List["Gather"]]:
    """:func:`linear_address` under a layout, its indirect terms as gathers."""
    addr, indirect = linear_address(
        ref, prog.array(ref.array), layout.strides(ref.array),
        layout.base(ref.array),
    )
    return addr, [Gather(term, ref, prog, layout) for term in indirect]


def _subscripts(values: np.ndarray) -> str:
    """``subscript 0`` / ``subscripts -1, 0, 9, 10, ...`` for a report."""
    distinct = np.unique(values)
    shown = ", ".join(str(int(v)) for v in distinct[:4])
    if len(distinct) > 4:
        shown += ", ..."
    return f"subscript{'s' if len(distinct) > 1 else ''} {shown}"


class Gather:
    """An indirect subscript ``X(IDX(e))`` resolved under one layout.

    ``position`` is the 0-based offset of ``IDX(e)`` in the index data
    and ``load`` the byte address of that element; both are affine in the
    loop variables.  A gathered subscript value ``v`` adds
    ``(v - lower) * stride`` to the reference's address, where
    ``(stride, lower, upper)`` describe the subscripted dimension of X.
    """

    __slots__ = (
        "array", "ref", "index_lower", "position", "load",
        "stride", "lower", "upper",
    )

    def __init__(
        self,
        term: IndirectTerm,
        ref: "ArrayRef",
        prog: "Program",
        layout: "MemoryLayout",
    ):
        sub, self.stride, self.lower, self.upper = term
        self.array = sub.array
        self.ref = ref
        self.index_lower = prog.array(sub.array).dims[0].lower
        self.position = sub.inner - self.index_lower
        self.load = (
            self.position * layout.strides(sub.array)[0]
            + layout.base(sub.array)
        )

    def offsets(self, values: np.ndarray) -> np.ndarray:
        """Address offsets of gathered subscript ``values``."""
        return (values - self.lower) * self.stride

    def gather(self, positions: np.ndarray, data: np.ndarray) -> np.ndarray:
        """Checked :meth:`offsets` for ``positions`` into index ``data``.

        Raises :class:`SimulationError` naming the offending subscripts
        when a position falls outside the index data (stated in the index
        array's own coordinates) or a gathered value outside the target
        dimension.
        """
        if len(positions) and (
            positions.min() < 0 or positions.max() >= len(data)
        ):
            bad = positions[(positions < 0) | (positions >= len(data))]
            raise SimulationError(
                f"index array {self.array!r} read at "
                f"{_subscripts(bad + self.index_lower)} outside its bounds "
                f"[{self.index_lower}, {self.index_lower + len(data) - 1}] "
                f"for {self.ref}"
            )
        values = data[positions]
        if len(values) and (
            values.min() < self.lower or values.max() > self.upper
        ):
            bad = values[(values < self.lower) | (values > self.upper)]
            raise SimulationError(
                f"index array {self.array!r} yields {_subscripts(bad)} "
                f"outside [{self.lower}, {self.upper}] for {self.ref}"
            )
        return self.offsets(values)

    def in_range(self, low: int, high: int, data: np.ndarray) -> bool:
        """True when no position in ``[low, high]`` can make :meth:`gather`
        raise (conservative: every position in between counts as read)."""
        if low < 0 or high >= len(data):
            return False
        window = data[low:high + 1]
        return bool(
            window.min() >= self.lower and window.max() <= self.upper
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


class _GatherTerm:
    """A gather in a nest form: which column it offsets, and where it reads."""

    __slots__ = ("column", "gather", "coeffs", "scaled", "const")

    def __init__(
        self,
        column: int,
        gather: Gather,
        names: Sequence[str],
        steps: np.ndarray,
    ):
        own = frozenset(names)
        position = gather.position
        self.column = column
        self.gather = gather
        # Position coefficient per level, per trip counter, and the
        # residual over the enclosing variables.
        self.coeffs = np.array(
            [position.coeff(name) for name in names], dtype=np.int64
        )
        self.scaled = self.coeffs * steps
        self.const = AffineExpr(position.const, {
            v: c for v, c in position.coeffs.items() if v not in own
        })


class NestForm:
    """A perfect nest in normal form (layout-specialized).

    Immutable once built; :meth:`bind` produces a :class:`BoundNest` for
    one concrete enclosing environment.  A form bakes in one layout's
    bases and strides, so it must never be replayed under another.
    """

    __slots__ = (
        "variables", "lowers", "uppers", "steps", "coeffs", "scaled",
        "consts", "flags", "refs", "gathers",
    )

    def __init__(
        self,
        chain: Sequence["Loop"],
        coeffs: np.ndarray,
        consts: Tuple[AffineExpr, ...],
        flags: Sequence[bool],
        refs: Tuple["ArrayRef", ...],
        gathers: Tuple[_GatherTerm, ...] = (),
    ):
        self.variables = tuple(level.var for level in chain)
        self.lowers = tuple(level.lower for level in chain)
        self.uppers = tuple(level.upper for level in chain)
        self.steps = tuple(level.step for level in chain)
        steps = np.asarray(self.steps, dtype=np.int64)
        self.coeffs = coeffs  # (columns, depth) int64: address coef per level
        # Address delta per trip counter: the coefficients times the steps.
        self.scaled = coeffs * steps[None, :]
        self.consts = consts  # per-column residual over *enclosing* vars
        self.flags = np.asarray(flags, dtype=bool)
        self.refs = refs
        self.gathers = gathers  # in column order

    def trips(self, env: Mapping[str, int]) -> Tuple[int, ...]:
        """Per-level trip counts under ``env``."""
        return tuple(
            trip(lo.evaluate(env), hi.evaluate(env), step)
            for lo, hi, step in zip(self.lowers, self.uppers, self.steps)
        )

    def bind(
        self, env: Mapping[str, int], data: Optional["DataEnv"] = None
    ) -> Union["BoundNest", str]:
        """Evaluate bounds, residuals and gathers against ``env``.

        ``data`` holds the index arrays (needed only by a form with
        gathers).  Returns :data:`GATHER_RANGE` instead of a nest when
        some gather might read outside its index array or yield a
        subscript outside its target dimension.
        """
        lows = np.array(
            [expr.evaluate(env) for expr in self.lowers], dtype=np.int64
        )
        consts = np.array(
            [expr.evaluate(env) for expr in self.consts], dtype=np.int64
        )
        trips = self.trips(env)
        # Address of column j at trip counters t: consts[j] + A[j]·(lo +
        # step*t) = c0[j] + (A*step)[j]·t — fold the start values into c0.
        c0 = consts + self.coeffs @ lows
        bound = []
        for term in self.gathers:
            values = data.values(term.gather.array)
            p0 = term.const.evaluate(env) + int(term.coeffs @ lows)
            if all(trips):
                # Affine over a box: the extreme corners bound the positions.
                reach = term.scaled * (np.asarray(trips, dtype=np.int64) - 1)
                low = p0 + int(reach[reach < 0].sum())
                high = p0 + int(reach[reach > 0].sum())
                if not term.gather.in_range(low, high, values):
                    return GATHER_RANGE
            bound.append((term.column, term.gather, values, p0, term.scaled))
        return BoundNest(trips, c0, self.scaled, self.flags, tuple(bound))


class BoundNest:
    """A nest form bound to concrete bounds: a block-stream generator."""

    __slots__ = (
        "trips", "c0", "coeffs", "flags", "gathers", "total_iters",
        "accesses",
    )

    def __init__(
        self,
        trips: Tuple[int, ...],
        c0: np.ndarray,
        coeffs: np.ndarray,
        flags: np.ndarray,
        gathers: tuple = (),
    ):
        self.trips = trips
        self.c0 = c0          # (columns,) address at trip (0, ..., 0)
        self.coeffs = coeffs  # (columns, depth) address delta per counter
        self.flags = flags
        # (column, Gather, index data, position at trip 0, position delta
        # per trip counter), every position proven in range by bind().
        self.gathers = gathers
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
        varies fastest, and within one iteration the columns appear in
        program order (a gather's index loads right before its reference)
        with their write flags.
        """
        columns = len(self.c0)
        if flat_hi is None:
            flat_hi = self.total_iters
        if columns == 0 or flat_hi <= flat_lo:
            return
        depth = len(self.trips)
        trips = self.trips
        # suffix[k] = iterations of the levels inside level k, so a flat
        # iteration number decomposes as t_k = (flat // suffix[k]) % n_k.
        suffix = [1] * depth
        for k in range(depth - 2, -1, -1):
            suffix[k] = suffix[k + 1] * trips[k + 1]
        iters_per_block = max(1, min(chunk // columns, flat_hi - flat_lo))
        full_writes = np.tile(self.flags, iters_per_block)
        transposed = np.ascontiguousarray(self.coeffs.T)  # (depth, columns)
        for start in range(flat_lo, flat_hi, iters_per_block):
            stop = min(flat_hi, start + iters_per_block)
            flat = np.arange(start, stop, dtype=np.int64)
            counters = np.empty((stop - start, depth), dtype=np.int64)
            for k in range(depth):
                np.floor_divide(flat, suffix[k], out=counters[:, k])
                if k:  # level 0 never wraps: flat < n_0 * suffix[0]
                    counters[:, k] %= trips[k]
            matrix = counters @ transposed + self.c0
            for column, gather, values, p0, scaled in self.gathers:
                positions = counters @ scaled + p0
                matrix[:, column] += gather.offsets(values[positions])
            addrs = matrix.reshape(-1)
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
    steps = np.asarray([level.step for level in chain], dtype=np.int64)

    rows: List[List[int]] = []
    consts: List[AffineExpr] = []
    flags: List[bool] = []
    gathers: List[_GatherTerm] = []

    def column(addr: AffineExpr, is_write: bool) -> None:
        rows.append([addr.coeff(name) for name in names])
        residual = {v: c for v, c in addr.coeffs.items() if v not in own}
        consts.append(AffineExpr(addr.const, residual))
        flags.append(is_write)

    for ref in refs:
        addr, ref_gathers = ref_address(ref, prog, layout)
        for gather in ref_gathers:
            column(gather.load, False)
        for gather in ref_gathers:
            gathers.append(_GatherTerm(len(rows), gather, names, steps))
        column(addr, ref.is_write)
    coeffs = (
        np.array(rows, dtype=np.int64)
        if rows
        else np.zeros((0, len(names)), dtype=np.int64)
    )
    return NestForm(chain, coeffs, tuple(consts), flags, refs, tuple(gathers))

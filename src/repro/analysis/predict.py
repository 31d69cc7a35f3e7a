"""Analytic miss prediction: exact static miss counts for affine programs.

The paper's pitch is that conflict misses are *computable* from the layout
and the reference pattern — no simulation required.  This module carries
that to its logical end: for the class of programs whose behaviour is
statically determined (every subscript affine, every loop bound a
constant), the full cache state sequence is a closed-form object, and the
predictor evaluates it exactly:

* **Classification** splits the program into *units*: maximal perfect
  affine nests (the shared normal form of :mod:`repro.ir.nest`, the same
  coefficient matrix and block generator the JIT runs), sequence loops
  over sub-units (time loops whose body holds several sweeps), and
  straight-line statements.  The predictor's own policy on top of the
  normal form: every bound must be constant, a loop whose body is only
  sibling loops becomes a sequence loop, and every offending reference is
  reported.  Any shape outside the class is a :class:`Bailout` with a
  reason from :data:`BAILOUT_REASONS` — the predictor never silently
  approximates.

* **Evaluation** replays each unit's address stream, in whole blocks of
  arrays, on the per-set LRU automaton every simulation runs (the engine
  of :mod:`repro.cache.fastsim`, whose attribution output gives the
  per-reference split), accelerated by *translation folding*: when every
  reference in a top-level loop advances by the same ``delta`` bytes per
  outer iteration, the stream of iteration block ``t + 1`` is the stream
  of block ``t`` translated by a whole number of cache lines ``w`` (after
  grouping ``p = line_bytes / gcd(|delta|, line_bytes)`` iterations).  The
  LRU automaton commutes with line translation (tags shift by ``w``, set
  indices rotate by ``w mod num_sets``), so once the start-of-block state
  repeats up to translation — and the cold-miss horizon below has passed —
  every remaining block contributes the same per-reference miss delta and
  the remainder is folded in constant time.  Cold misses do not commute
  with translation (the seen-line set is historical), so folding
  additionally requires the *horizon* ``m``: the largest self-overlap lag
  of the block footprint (adjacent same-residue line gaps divided by
  ``w``), after which the fresh-line count per block is provably constant;
  lines never self-overlapped must hit the pre-existing seen set either
  always or never across the folded span.  If any precondition fails the
  predictor keeps replaying, and a replay that would exceed ``budget``
  accesses is an explicit ``exceeds_budget`` bailout.

Because every answer is either a full exact replay or a fold justified by
the translation theorem, predicted :class:`~repro.cache.stats.CacheStats`
are byte-identical to :class:`repro.cache.sim.ReferenceCache` on the same
trace — the differential battery in ``tests/test_predict_differential.py``
pins this across the seeded corpus and the JIT fuzz corpus.

Attribution conventions (enrichment beyond the simulator's counters):
conflict misses are classified *self* when the evicting access named the
same array within the same top-level unit, *cross* otherwise (including
evictions by earlier top-level units, which leave no eviction record).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.fastsim import _EMPTY_LINE, _StackDistanceLRU
from repro.cache.stats import CacheStats
from repro.errors import PredictError
from repro.ir.expr import AffineExpr
from repro.ir.loops import Loop
from repro.ir.nest import (
    NEST_REASONS, NestForm, normalize_nest, perfect_chain, ref_address, trip,
)
from repro.ir.program import Program
from repro.ir.stmts import Statement
from repro.layout.layout import MemoryLayout
from repro.obs import runtime as obs

#: Why the predictor refused a program (``reason`` label on
#: ``repro_predict_bailouts_total``): the static
#: :data:`~repro.ir.nest.NEST_REASONS`, plus ``indirect`` for a gather
#: reference (translation folding needs an address stream that shifts with
#: the loop variables, and gathered values do not), plus ``write_policy``
#: for a write-no-allocate cache (the engine allocates every miss), plus
#: ``exceeds_budget``, issued at evaluation time when an unfoldable
#: program would need more than ``budget`` replayed accesses.
BAILOUT_REASONS = NEST_REASONS + ("indirect", "write_policy", "exceeds_budget")

#: Default replay budget (accesses) for :func:`predict_misses`.
DEFAULT_BUDGET = 1 << 22

#: Accesses per engine call (bounds the replay's numpy workspace).
_CHUNK = 1 << 16

#: Ceiling on numpy workspace elements for fold bookkeeping; a fold whose
#: bookkeeping would be larger is skipped (replay continues — never an
#: approximation, possibly a budget bailout).
_MAX_WORKSPACE = 1 << 24

#: Ceiling on translated eviction-record updates applied after a fold.
_MAX_EVICT_OPS = 1 << 20


@dataclass(frozen=True)
class Bailout:
    """One precondition failure, with a human-readable locus."""

    reason: str
    where: str
    line: int = 0

    def render(self) -> str:
        """One-line ``reason: where (line N)`` form for reports."""
        loc = f" (line {self.line})" if self.line else ""
        return f"{self.reason}: {self.where}{loc}"


@dataclass(frozen=True)
class RefPrediction:
    """Exact per-reference provenance for one predicted run."""

    index: int
    array: str
    ref: str
    line: int
    is_write: bool
    unit_index: int
    accesses: int
    misses: int
    cold_misses: int
    self_conflict_misses: int
    cross_conflict_misses: int

    @property
    def conflict_misses(self) -> int:
        return self.self_conflict_misses + self.cross_conflict_misses

    @property
    def miss_rate_pct(self) -> float:
        return 100.0 * self.misses / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class MissPrediction:
    """Exact predicted statistics plus per-reference provenance."""

    stats: CacheStats
    cache: CacheConfig
    per_ref: Tuple[RefPrediction, ...]
    replayed_accesses: int
    folded_accesses: int

    @property
    def per_array(self) -> Dict[str, Dict[str, int]]:
        """Aggregate counters keyed by array name, in first-use order."""
        out: Dict[str, Dict[str, int]] = {}
        for ref in self.per_ref:
            row = out.setdefault(ref.array, {
                "accesses": 0, "misses": 0, "cold_misses": 0,
                "self_conflict_misses": 0, "cross_conflict_misses": 0,
            })
            row["accesses"] += ref.accesses
            row["misses"] += ref.misses
            row["cold_misses"] += ref.cold_misses
            row["self_conflict_misses"] += ref.self_conflict_misses
            row["cross_conflict_misses"] += ref.cross_conflict_misses
        return out

    @property
    def fold_ratio(self) -> float:
        """Accesses resolved per access replayed (1.0 = no folding)."""
        if not self.replayed_accesses:
            return 1.0
        return self.stats.accesses / self.replayed_accesses


@dataclass(frozen=True)
class PredictOutcome:
    """Either an exact prediction or the precondition report."""

    prediction: Optional[MissPrediction]
    bailouts: Tuple[Bailout, ...]

    @property
    def analyzable(self) -> bool:
        return self.prediction is not None

    @property
    def reason(self) -> Optional[str]:
        """The first bailout reason, or None when analyzable."""
        return self.bailouts[0].reason if self.bailouts else None

    def require(self) -> MissPrediction:
        """The prediction, or :class:`PredictError` listing every bailout."""
        if self.prediction is None:
            detail = "; ".join(b.render() for b in self.bailouts)
            raise PredictError(f"program is not analyzable: {detail}")
        return self.prediction


class _BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class _RefMeta:
    array: str
    text: str
    line: int
    is_write: bool
    unit_index: int


class _StmtUnit:
    """Straight-line statement: one address expression per reference."""

    __slots__ = ("exprs", "flags", "ref_ids")
    outer = 1

    def __init__(self, exprs, flags, ref_ids):
        self.exprs = exprs
        self.flags = np.array(flags, dtype=bool)
        self.ref_ids = np.array(ref_ids, dtype=np.int64)

    @property
    def accesses(self) -> int:
        return len(self.exprs)

    def delta_of(self, var: str, step: int) -> List[int]:
        return [e.coeff(var) * step for e in self.exprs]


class _NestUnit:
    """Perfect affine nest with constant bounds, in the shared normal form."""

    __slots__ = ("form", "trips", "outer", "ref_ids", "total_iters")

    def __init__(self, form: NestForm, ref_ids):
        self.form = form
        self.trips = form.trips({})
        self.outer = self.trips[0]
        self.ref_ids = np.array(ref_ids, dtype=np.int64)
        self.total_iters = math.prod(self.trips)

    @property
    def accesses(self) -> int:
        return self.total_iters * len(self.ref_ids)

    @property
    def inner_iters(self) -> int:
        """Iterations per level-0 trip."""
        return math.prod(self.trips[1:])

    def outer_delta(self) -> Optional[int]:
        """Uniform byte advance per level-0 iteration, or None."""
        if not len(self.ref_ids):
            return 0
        deltas = set(int(d) for d in self.form.scaled[:, 0])
        return deltas.pop() if len(deltas) == 1 else None

    def delta_of(self, var: str, step: int) -> List[int]:
        return [e.coeff(var) * step for e in self.form.consts]


class _SeqLoop:
    """Constant-bound loop whose body is a sequence of sub-units."""

    __slots__ = ("var", "lower", "step", "outer", "body")

    def __init__(self, var, lower, step, outer, body):
        self.var = var
        self.lower = lower
        self.step = step
        self.outer = outer
        self.body = body

    @property
    def accesses(self) -> int:
        return self.outer * sum(u.accesses for u in self.body)

    def outer_delta(self) -> Optional[int]:
        deltas = set()
        for unit in self.body:
            deltas.update(unit.delta_of(self.var, self.step))
        if not deltas:
            return 0
        return deltas.pop() if len(deltas) == 1 else None

    def delta_of(self, var: str, step: int) -> List[int]:
        out: List[int] = []
        for unit in self.body:
            out.extend(unit.delta_of(var, step))
        return out


_Unit = Union[_StmtUnit, _NestUnit, _SeqLoop]


class _Classifier:
    """Program -> unit tree, or a precondition report.

    Nest units come from :func:`~repro.ir.nest.normalize_nest`; the policy
    here is the predictor's own: every bound must be constant, a loop
    whose body is only sibling loops becomes a :class:`_SeqLoop`, and
    every offending reference is reported, not just the first.
    """

    def __init__(self, prog: Program, layout: MemoryLayout):
        self.prog = prog
        self.layout = layout
        self.bailouts: List[Bailout] = []
        self.ref_meta: List[_RefMeta] = []
        self._unit_index = 0

    def classify(self):
        units: List[_Unit] = []
        for node in self.prog.body:
            self._unit_index = len(units)
            if isinstance(node, Statement):
                unit = self._statement(node, frozenset())
            else:
                unit = self._loop(node, frozenset())
            if unit is not None:
                units.append(unit)
        if self.bailouts:
            return None
        return units

    def _bail(self, reason: str, where: str, line: int = 0) -> None:
        self.bailouts.append(Bailout(reason, where, line))

    def _scan_refs(self, loop: Loop) -> None:
        """Enrich a structural bailout with any indirect refs inside."""
        for ref in loop.refs():
            if not ref.is_affine:
                self._bail("indirect", f"reference {ref}", ref.line)

    def _refs(self, refs, scope) -> Optional[Tuple[List[AffineExpr], List[int]]]:
        """Addresses and ids of ``refs``, or None after bailing on any."""
        exprs: List[AffineExpr] = []
        ids: List[int] = []
        ok = True
        for ref in refs:
            if not ref.is_affine:
                self._bail("indirect", f"reference {ref}", ref.line)
                ok = False
                continue
            addr, _ = ref_address(ref, self.prog, self.layout)
            free = [v for v in addr.coeffs if v not in scope]
            if free:
                self._bail(
                    "symbolic_bounds",
                    f"reference {ref} uses unbound {sorted(free)}", ref.line,
                )
                ok = False
                continue
            exprs.append(addr)
            ids.append(len(self.ref_meta))
            self.ref_meta.append(_RefMeta(
                ref.array, str(ref), ref.line, ref.is_write, self._unit_index,
            ))
        return (exprs, ids) if ok else None

    def _statement(self, stmt: Statement, scope) -> Optional[_StmtUnit]:
        found = self._refs(stmt.refs, scope)
        if found is None:
            return None
        exprs, ids = found
        flags = tuple(ref.is_write for ref in stmt.refs)
        return _StmtUnit(tuple(exprs), flags, tuple(ids))

    def _level(self, loop: Loop, scope) -> bool:
        """The predictor's checks on one loop level (bails when False)."""
        if loop.var in scope:
            self._bail("shadowed", f"loop {loop.var} rebinds its variable",
                       loop.line)
            return False
        if not (loop.lower.is_constant and loop.upper.is_constant):
            self._bail(
                "symbolic_bounds",
                f"loop {loop.var} = {loop.lower}, {loop.upper}", loop.line,
            )
            self._scan_refs(loop)
            return False
        if not loop.is_innermost and any(
            isinstance(n, Statement) for n in loop.body
        ):
            self._bail(
                "imperfect",
                f"loop {loop.var} mixes statements and loops", loop.line,
            )
            self._scan_refs(loop)
            return False
        return True

    def _loop(self, loop: Loop, scope) -> Optional[_Unit]:
        chain = perfect_chain(loop)
        if chain is not None:
            return self._nest(chain, scope)
        if not self._level(loop, scope):
            return None
        children = [self._loop(child, scope | {loop.var}) for child in loop.body]
        if any(child is None for child in children):
            return None
        trips = trip(loop.lower.const, loop.upper.const, loop.step)
        return _SeqLoop(loop.var, loop.lower.const, loop.step, trips, children)

    def _nest(self, chain: List[Loop], scope) -> Optional[_NestUnit]:
        for level in chain:
            if not self._level(level, scope):
                return None
            scope = scope | {level.var}
        found = self._refs(
            [ref for stmt in chain[-1].body for ref in stmt.refs], scope
        )
        if found is None:
            return None
        form = normalize_nest(chain[0], self.prog, self.layout)
        assert isinstance(form, NestForm), form  # the checks above imply it
        return _NestUnit(form, found[1])


def _period(delta: int, line_bytes: int) -> Tuple[int, int]:
    """(iterations per block, whole-line shift per block) for ``delta``."""
    if delta == 0:
        return 1, 0
    p = line_bytes // math.gcd(abs(delta), line_bytes)
    return p, (p * delta) // line_bytes


def _horizon(u0: np.ndarray, w: int, num_units: int) -> Tuple[int, np.ndarray]:
    """Cold-miss stabilization horizon of a translating footprint.

    Returns ``(m, forever_fresh)``: after ``m`` blocks the per-block
    fresh-line count is constant, and ``forever_fresh`` holds the block
    offsets never covered by an earlier block within ``num_units``.
    """
    if w == 0:
        return 1, np.empty(0, dtype=np.int64)
    aw = abs(w)
    order = np.lexsort((u0, u0 % aw))
    s = u0[order]
    same = (s[1:] % aw) == (s[:-1] % aw)
    lags = np.zeros(len(s), dtype=np.int64)
    gap = np.where(same, (s[1:] - s[:-1]) // aw, 0)
    # Block b's offset o is block b-k's offset o + k*w: for w > 0 the
    # nearest higher offset of its residue class covers it first, for
    # w < 0 the nearest lower one.
    if w > 0:
        lags[:-1] = gap
    else:
        lags[1:] = gap
    # A self-cover at lag k first fires at block k, so lags beyond the
    # last block index can never materialize inside this loop.
    horizon = num_units - 1
    finite = lags[(lags > 0) & (lags <= horizon)]
    m = int(finite.max()) if len(finite) else 1
    fresh_mask = (lags == 0) | (lags > horizon)
    return max(1, m), s[fresh_mask]


def _progression_member(lines: np.ndarray, base: np.ndarray, w: int,
                        lo: int, hi: int) -> np.ndarray:
    """Membership of ``lines`` in ``{b + k*w : b in base, lo <= k <= hi}``.

    ``w`` is nonzero.  ``x = b + k*w`` iff ``x`` and ``b`` share their
    residue mod ``|w|`` and ``b``'s quotient lies in ``x``'s window of
    ``k``: one ``searchsorted`` over sorted (residue, quotient) keys.
    """
    if hi < lo or len(base) == 0:
        return np.zeros(lines.shape, dtype=bool)
    aw = abs(w)
    quot = base // aw
    q0 = int(quot.min()) - 1
    span = int(quot.max()) - q0 + 2  # base keys lie in [1, span - 2]
    keys = np.sort(base % aw * span + (quot - q0))
    ends = lines // aw - q0 - np.sign(w) * np.array([[lo], [hi]])
    first, last = np.clip(np.sort(ends, axis=0), 0, span - 1)
    residue = lines % aw * span
    return np.searchsorted(keys, residue + first) < np.searchsorted(
        keys, residue + last, side="right"
    )


def _seen_translates(seen: np.ndarray, offsets: np.ndarray, w: int,
                     lo: int, hi: int):
    """Where ``seen`` holds a translate ``offsets[row] + k*w``, ``lo <= k < hi``.

    Returns ``(row, k - lo)`` of every such translate.  ``w`` is nonzero.
    As in :func:`_progression_member`, a translate shares its offset's
    residue mod ``|w|`` and its quotient runs through a window: one
    ``searchsorted`` pair per offset over sorted (residue, quotient) keys.
    """
    aw = abs(w)
    quot = seen // aw
    q0 = int(quot.min()) - 1
    span = int(quot.max()) - q0 + 2  # seen keys lie in [1, span - 2]
    keys = seen % aw * span + (quot - q0)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    ends = offsets // aw - q0 + np.sign(w) * np.array([[lo], [hi - 1]])
    first, last = np.clip(np.sort(ends, axis=0), 0, span - 1)
    residue = offsets % aw * span
    begin = np.searchsorted(keys, residue + first)
    count = np.searchsorted(keys, residue + last, side="right") - begin
    row = np.repeat(np.arange(len(offsets)), count)
    at = np.arange(len(row)) + np.repeat(begin - (np.cumsum(count) - count),
                                         count)
    return row, (seen[order[at]] - offsets[row]) // w - lo


def _fresh_stable(forever_fresh: np.ndarray, w: int, start: int,
                  num_units: int, entry_seen: np.ndarray,
                  entry_folds) -> bool:
    """True when lines fresh to the block are uniformly (un)seen globally.

    For every block offset never self-covered, its translated copies over
    ``[start, num_units)`` must be entirely inside or entirely outside the
    seen state captured when this unit began (scalar lines plus fold
    progressions from earlier units) — otherwise the fold's cold delta
    would drift and the fold is refused.  The unit's own touches need no
    exclusion: a forever-fresh offset covered by an earlier own block
    would have a self-cover lag inside the loop, contradicting
    forever-freshness.
    """
    if len(forever_fresh) == 0 or start >= num_units:
        return True
    if len(entry_seen) == 0 and not entry_folds:
        return True  # nothing was ever seen: every translate is fresh
    span = num_units - start
    rows = len(forever_fresh)
    if rows * span > _MAX_WORKSPACE:
        return False
    # Only the seen translates are located, never every translate tested
    # (sweep_2m: 11 ms against 44 ms per call).
    member = np.zeros((rows, span), dtype=bool)
    if len(entry_seen):
        member[_seen_translates(entry_seen, forever_fresh, w, start,
                                num_units)] = True
    # A fold of the same stride covers one run of copies per offset and
    # base line of its residue: b + k*w == f + t*w for t = k + (b - f)/w.
    # Counting runs, not testing each translate, is what keeps a loop
    # after a folded loop cheap (sweep_2m: 0.09 s against 0.26 s).
    runs = np.zeros((rows, span + 1), dtype=np.int32)
    lines = None
    for fbase, fw, fhi in entry_folds:
        if len(fbase) * rows * span > _MAX_WORKSPACE:
            return False
        if fw != w:
            if lines is None:
                ts = np.arange(start, num_units, dtype=np.int64) * w
                lines = (forever_fresh[:, None] + ts[None, :]).ravel()
            member |= _progression_member(lines, fbase, fw, 1, fhi).reshape(
                rows, span
            )
            continue
        diff = fbase[None, :] - forever_fresh[:, None]
        row, col = np.nonzero(diff % abs(w) == 0)
        first = diff[row, col] // w + 1 - start
        np.add.at(runs, (row, np.clip(first, 0, span)), 1)
        np.add.at(runs, (row, np.clip(first + fhi, 0, span)), -1)
    member |= np.cumsum(runs, axis=1, dtype=np.int32)[:, :span] > 0
    counts = member.sum(axis=1)
    return bool(np.all((counts == 0) | (counts == span)))


def _shifted(state, shift: int):
    """A cache state with every resident line moved ``shift`` lines (set
    indices rotate with them; empty ways stay empty)."""
    tags, dirty = (np.roll(a, shift % len(a), axis=0) for a in state)
    tags[tags >= _EMPTY_LINE + tags.size] += shift
    return tags, dirty


def _same_state(a, b) -> bool:
    """Equal states, whatever sentinels mark their empty ways."""
    real_a, real_b = (s[0] >= _EMPTY_LINE + s[0].size for s in (a, b))
    return (np.array_equal(real_a, real_b)
            and np.array_equal(a[0][real_a], b[0][real_b])
            and np.array_equal(a[1], b[1]))


#: An empty eviction map: one key above every line, never written.
_NO_EVICTIONS = (np.array([np.iinfo(np.int64).max]), np.array([-1]))


class _Evaluator:
    """Replays the unit tree on the LRU engine, folding where provable.

    ``counts`` rows are per-reference accesses, misses, cold, self and
    cross misses.  ``evicted`` maps each line evicted in the current
    top-level unit (sorted keys) to the array id of its last evictor.
    """

    def __init__(self, units, cache: CacheConfig, ref_arrays, budget: int):
        self.units = units
        self.engine = _StackDistanceLRU(cache)
        self.budget = budget
        self.replayed = 0
        self.ref_array = np.unique(ref_arrays, return_inverse=True)[1]
        self.counts = np.zeros((5, len(ref_arrays)), dtype=np.int64)
        # Folded units record their touched lines as arithmetic
        # progressions {l + k*w : l in base, 1 <= k <= folded} instead of
        # materializing them: (base_lines, w, folded).
        self.seen_folds: List[Tuple[np.ndarray, int, int]] = []
        self.evicted = _NO_EVICTIONS
        self.log: Optional[list] = None  # see _measure

    def run(self) -> None:
        for unit in self.units:
            if isinstance(unit, _StmtUnit):
                self._replay(unit, 0, 1)
            else:
                self._run_top(unit)

    # -- replay -----------------------------------------------------------

    def _stream(self, unit, env, lo: int = 0, hi: Optional[int] = None):
        """(addresses, writes, ref ids) arrays of outer iterations
        ``[lo, hi)`` (all by default; a statement has one)."""
        if isinstance(unit, _StmtUnit):
            addrs = [e.evaluate(env) for e in unit.exprs]
            yield np.array(addrs, dtype=np.int64), unit.flags, unit.ref_ids
        elif isinstance(unit, _NestUnit):
            inner, refs = unit.inner_iters, unit.ref_ids
            flat_hi = None if hi is None else hi * inner
            nest = unit.form.bind(env)
            for addrs, flags in nest.blocks(_CHUNK, lo * inner, flat_hi):
                yield addrs, flags, np.tile(refs, len(addrs) // len(refs))
        else:
            env = dict(env)
            for t in range(lo, unit.outer if hi is None else hi):
                env[unit.var] = unit.lower + t * unit.step
                for child in unit.body:
                    yield from self._stream(child, env)

    def _replay(self, unit, lo: int, hi: int) -> None:
        """Replay outer iterations ``[lo, hi)`` of a top-level unit, whole
        blocks concatenated into engine calls of about ``_CHUNK``."""
        count = (hi - lo) * (unit.accesses // unit.outer)
        if self.replayed + count > self.budget:
            raise _BudgetExceeded()
        self.replayed += count
        batch, size = [], 0
        for piece in self._stream(unit, {}, lo, hi):
            batch.append(piece)
            size += len(piece[0])
            if size >= _CHUNK:
                self._attribute(*map(np.concatenate, zip(*batch)))
                batch, size = [], 0
        if size:
            self._attribute(*map(np.concatenate, zip(*batch)))

    def _attribute(self, addrs, flags, ref_ids) -> None:
        """One engine call, its misses attributed per reference."""
        misses, attribution = self.engine.attribute_chunk(addrs, flags)
        lines = addrs // self.engine.config.line_bytes
        arrays = self.ref_array[ref_ids]
        missed = np.flatnonzero(misses)
        # Cold: a first touch the engine never saw, in no folded span.
        cold = attribution.first_touch[missed]
        for base, w, hi in self.seen_folds:
            cold[cold] = ~_progression_member(
                lines[missed[cold]], base, w, 1, hi
            )
        warm = missed[~cold]
        # The evictor inside this call, else the unit's record, else none.
        prior = attribution.evicted_by[warm]
        keys, vals = self.evicted
        at = np.searchsorted(keys, lines[warm])
        recorded = np.where(keys[at] == lines[warm], vals[at], -1)
        own = np.where(prior >= 0, arrays[prior], recorded) == arrays[warm]
        hits = (ref_ids, ref_ids[missed], ref_ids[missed[cold]],
                ref_ids[warm[own]], ref_ids[warm[~own]])
        for row, hit in zip(self.counts, hits):
            row += np.bincount(hit, minlength=len(row))
        evictors = arrays[attribution.evictors]
        if self.log is not None:
            self.log.append((lines, attribution.victims, evictors))
        self._record(attribution.victims, evictors)

    def _record(self, lines, arrays) -> None:
        """Make each line's last entry in ``lines`` its evictor."""
        lines, last = np.unique(lines[::-1], return_index=True)
        arrays = arrays[::-1][last]
        keys, vals = self.evicted
        at = np.searchsorted(keys, lines)
        known = keys[at] == lines
        vals[at[known]] = arrays[known]  # (never _NO_EVICTIONS: no match)
        self.evicted = (np.insert(keys, at[~known], lines[~known]),
                        np.insert(vals, at[~known], arrays[~known]))

    # -- folding ----------------------------------------------------------

    def _run_top(self, unit) -> None:
        self.evicted = _NO_EVICTIONS  # attribution is per top-level unit
        engine = self.engine
        entry_seen = engine._seen  # the engine replaces it, never mutates
        entry_folds = tuple(self.seen_folds)
        n = unit.outer
        if n <= 0 or unit.accesses == 0:
            return
        delta = unit.outer_delta()
        if delta is None:
            self._replay(unit, 0, n)
            return
        p, w = _period(delta, engine.config.line_bytes)
        num_units, _tail = divmod(n, p)
        if num_units < 4:
            self._replay(unit, 0, n)
            return
        # Block 0 establishes the footprint and the cold-miss horizon;
        # fold checks then run at exponentially spaced checkpoints (strict
        # translation matching may only start holding once the stream has
        # wrapped the cache sets, so checking every block would cost more
        # signatures than it saves replay).
        u0 = np.unique(self._measure(unit, 0, p)[0])
        m, forever_fresh = _horizon(u0, w, num_units)
        done = 1  # blocks fully replayed so far
        check = max(m, 1)
        while check + 1 < num_units:
            # Replay up to the checkpoint pair (check, check + 1).
            if check - 1 > done:
                self._replay(unit, done * p, (check - 1) * p)
                done = check - 1
            if done < check:
                self._replay(unit, done * p, check * p)
                done = check
            translated = _shifted((engine._tags, engine._dirty), w)
            prev_counts = self.counts.copy(), engine.stats.writebacks
            _, victims, evictors = self._measure(
                unit, check * p, (check + 1) * p
            )
            done = check + 1
            measured = check  # block index whose delta was measured
            folded = num_units - done
            if (
                folded > 0
                and measured >= m
                and _same_state(translated, (engine._tags, engine._dirty))
                and (not w or len(victims) * min(folded, m + 1)
                     <= _MAX_EVICT_OPS)
                and _fresh_stable(
                    forever_fresh, w, measured, num_units,
                    entry_seen, entry_folds,
                )
            ):
                self._fold(folded, prev_counts, w, u0 + measured * w,
                           victims, evictors, m)
                done = num_units
                break
            check = max(check * 2, check + 1)
        if done < num_units:
            self._replay(unit, done * p, num_units * p)
        self._replay(unit, num_units * p, n)

    def _measure(self, unit, lo: int, hi: int):
        """Replay ``[lo, hi)``; its (lines, victims, evictor array ids)."""
        self.log = []
        self._replay(unit, lo, hi)
        log, self.log = self.log, None
        return [np.concatenate(column) for column in zip(*log)]

    def _fold(self, folded: int, before, w: int, measured_lines: np.ndarray,
              victims, evictors, horizon: int) -> None:
        """Account ``folded`` repetitions of the measured unit delta.

        ``measured_lines`` is the line footprint of the measured block
        (the block whose delta is being repeated); the folded blocks
        touch exactly its translates.  With ``w == 0`` the state and the
        eviction records already are those after the fold.
        """
        engine = self.engine
        self.counts += (self.counts - before[0]) * folded
        stats = engine.stats  # counts the folded writebacks too
        stats.writebacks += (stats.writebacks - before[1]) * folded
        if not w:
            return
        engine._tags, engine._dirty = _shifted(
            (engine._tags, engine._dirty), folded * w
        )
        self.seen_folds.append((np.unique(measured_lines), w, folded))
        # Eviction records only matter within the self-overlap horizon of
        # the end of the folded span (later touches of a line are at most
        # ``horizon`` units apart), so the last few translated copies of
        # the measured unit's evictions restore the map exactly for the
        # tail and for nothing else.
        window = min(folded, horizon + 1)
        shifts = np.arange(folded - window + 1, folded + 1) * w
        self._record(
            (shifts[:, None] + victims).ravel(), np.tile(evictors, window)
        )


def classify_program(prog: Program, layout: MemoryLayout):
    """Classify a program; returns ``(units, ref_meta, bailouts)``.

    ``units`` is None when any precondition fails (the bailout list then
    explains every failure found).
    """
    classifier = _Classifier(prog, layout)
    units = classifier.classify()
    return units, classifier.ref_meta, tuple(classifier.bailouts)


def predict_misses(
    prog: Program,
    layout: MemoryLayout,
    cache: CacheConfig,
    budget: int = DEFAULT_BUDGET,
) -> PredictOutcome:
    """Exact static miss prediction, or a precondition report.

    The returned outcome either carries a :class:`MissPrediction` whose
    stats are byte-identical to simulating the program's trace through
    :class:`repro.cache.sim.ReferenceCache`, or a non-empty tuple of
    :class:`Bailout` records — never a partial or approximate answer.
    ``budget`` caps replayed (non-folded) accesses; exceeding it is the
    ``exceeds_budget`` bailout.
    """
    obs.counter_add(
        "repro_predict_requests_total", 1,
        "analytic miss-prediction attempts",
    )
    units, ref_meta, bailouts = classify_program(prog, layout)
    if units is None:
        return _refuse(bailouts)
    if not cache.write_allocate:
        return _refuse((Bailout(
            "write_policy",
            "write-no-allocate cache (a write miss bypasses it)",
        ),))
    total_accesses = sum(u.accesses for u in units)
    evaluator = _Evaluator(units, cache, [r.array for r in ref_meta], budget)
    try:
        evaluator.run()
    except _BudgetExceeded:
        return _refuse((Bailout(
            "exceeds_budget",
            f"replay would exceed {budget} accesses "
            f"(program has {total_accesses})",
        ),))
    acc, miss, cold, own, cross = (
        [int(v) for v in row] for row in evaluator.counts
    )
    if sum(acc) != total_accesses:  # pragma: no cover - invariant
        raise PredictError(
            f"internal accounting drift: {sum(acc)} accesses "
            f"evaluated, {total_accesses} expected"
        )
    per_ref = tuple(
        RefPrediction(
            index=i,
            array=meta.array,
            ref=meta.text,
            line=meta.line,
            is_write=meta.is_write,
            unit_index=meta.unit_index,
            accesses=acc[i],
            misses=miss[i],
            cold_misses=cold[i],
            self_conflict_misses=own[i],
            cross_conflict_misses=cross[i],
        )
        for i, meta in enumerate(ref_meta)
    )
    reads = sum(r.accesses for r in per_ref if not r.is_write)
    writes = sum(r.accesses for r in per_ref if r.is_write)
    read_misses = sum(r.misses for r in per_ref if not r.is_write)
    write_misses = sum(r.misses for r in per_ref if r.is_write)
    stats = CacheStats(
        accesses=sum(acc),
        misses=sum(miss),
        reads=reads,
        writes=writes,
        read_misses=read_misses,
        write_misses=write_misses,
        writebacks=evaluator.engine.stats.writebacks,
        cold_misses=sum(cold),
    )
    prediction = MissPrediction(
        stats=stats,
        cache=cache,
        per_ref=per_ref,
        replayed_accesses=evaluator.replayed,
        folded_accesses=stats.accesses - evaluator.replayed,
    )
    obs.counter_add(
        "repro_predict_predictions_total", 1,
        "exact analytic miss predictions produced",
    )
    return PredictOutcome(prediction, ())


def _refuse(bailouts: Tuple[Bailout, ...]) -> PredictOutcome:
    """Count each bailout by reason; the outcome carrying them."""
    for b in bailouts:
        obs.counter_add(
            "repro_predict_bailouts_total", 1,
            "analytic predictions refused, by precondition",
            reason=b.reason,
        )
    return PredictOutcome(None, bailouts)

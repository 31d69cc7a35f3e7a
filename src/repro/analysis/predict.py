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

* **Evaluation** replays the per-set LRU automaton over each unit's
  address stream, accelerated by *translation folding*: when every
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
evictions by earlier top-level units and write-no-allocate bypasses, which
leave no eviction record).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.config import CacheConfig
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
#: the loop variables, and gathered values do not), plus ``exceeds_budget``,
#: issued at evaluation time when an unfoldable program would need more
#: than ``budget`` replayed accesses.
BAILOUT_REASONS = NEST_REASONS + ("indirect", "exceeds_budget")

#: Default replay budget (accesses) for :func:`predict_misses`.
DEFAULT_BUDGET = 1 << 22

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

    def __init__(self, exprs, flags, ref_ids):
        self.exprs = exprs
        self.flags = flags
        self.ref_ids = ref_ids

    @property
    def accesses(self) -> int:
        return len(self.exprs)

    def delta_of(self, var: str, step: int) -> List[int]:
        return [e.coeff(var) * step for e in self.exprs]


class _NestUnit:
    """Perfect affine nest with constant bounds, in the shared normal form."""

    __slots__ = ("form", "trips", "flags", "ref_ids", "total_iters")

    def __init__(self, form: NestForm, ref_ids):
        self.form = form
        self.trips = form.trips({})
        self.flags = form.flags.tolist()
        self.ref_ids = list(ref_ids)
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
        if not self.ref_ids:
            return 0
        deltas = set(int(d) for d in self.form.scaled[:, 0])
        return deltas.pop() if len(deltas) == 1 else None

    def delta_of(self, var: str, step: int) -> List[int]:
        return [e.coeff(var) * step for e in self.form.consts]

    def emit(self, env, flat_lo: int, flat_hi: int, chunk: int = 1 << 14):
        """Yield (addrs, flags, ref_ids) lists for a flat iteration range."""
        tiled = {}
        for addrs, _ in self.form.bind(env).blocks(chunk, flat_lo, flat_hi):
            iters = len(addrs) // len(self.ref_ids)
            if iters not in tiled:
                tiled[iters] = (self.flags * iters, self.ref_ids * iters)
            yield (addrs.tolist(),) + tiled[iters]


class _SeqLoop:
    """Constant-bound loop whose body is a sequence of sub-units."""

    __slots__ = ("var", "lower", "step", "trips", "body")

    def __init__(self, var, lower, step, trips, body):
        self.var = var
        self.lower = lower
        self.step = step
        self.trips = trips
        self.body = body

    @property
    def accesses(self) -> int:
        return self.trips * sum(u.accesses for u in self.body)

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


class _Model:
    """Exact set-associative LRU automaton with per-reference attribution.

    Semantics transcribed from :class:`repro.cache.sim.ReferenceCache`
    access by access (the differential battery holds the two together).
    """

    def __init__(self, cache: CacheConfig, nrefs: int, ref_arrays):
        self.cache = cache
        self.line_bytes = cache.line_bytes
        self.num_sets = cache.num_sets
        self.assoc = cache.associativity
        self.write_back = cache.write_back
        self.write_allocate = cache.write_allocate
        self.sets: List[List[List]] = [[] for _ in range(self.num_sets)]
        self.seen: set = set()
        # Folded units record their touched lines as arithmetic
        # progressions {l + k*w : l in base, 1 <= k <= folded} instead of
        # materializing them: (base_lines, w, folded).
        self.seen_folds: List[Tuple[List[int], int, int]] = []
        self.evictor: Dict[int, str] = {}
        self.ref_arrays = ref_arrays
        self.accesses = 0
        self.replayed = 0
        self.writebacks = 0
        self.ref_acc = [0] * nrefs
        self.ref_miss = [0] * nrefs
        self.ref_cold = [0] * nrefs
        self.ref_self = [0] * nrefs
        self.ref_cross = [0] * nrefs
        self.touch_log: Optional[set] = None
        self.evict_log: Optional[List[Tuple[int, str]]] = None
        self.budget = None

    # -- replay -----------------------------------------------------------

    def replay(self, addrs, flags, ref_ids) -> None:
        if self.budget is not None and self.replayed + len(addrs) > self.budget:
            raise _BudgetExceeded()
        L = self.line_bytes
        S = self.num_sets
        assoc = self.assoc
        wb = self.write_back
        walloc = self.write_allocate
        sets = self.sets
        seen = self.seen
        folds = self.seen_folds
        evictor = self.evictor
        ref_arrays = self.ref_arrays
        ref_acc = self.ref_acc
        ref_miss = self.ref_miss
        ref_cold = self.ref_cold
        ref_self = self.ref_self
        ref_cross = self.ref_cross
        touch = self.touch_log
        evlog = self.evict_log
        writebacks = self.writebacks
        for addr, is_write, rid in zip(addrs, flags, ref_ids):
            line = addr // L
            ways = sets[line % S]
            ref_acc[rid] += 1
            if is_write and not wb:
                writebacks += 1
            if touch is not None:
                touch.add(line)
            hit = False
            for pos, entry in enumerate(ways):
                if entry[0] == line:
                    ways.append(ways.pop(pos))
                    if is_write and wb:
                        entry[1] = True
                    hit = True
                    break
            if hit:
                continue
            ref_miss[rid] += 1
            if line in seen:
                fresh = False
            else:
                fresh = True
                for fbase, fw, fhi in folds:
                    for fl in fbase:
                        q, r = divmod(line - fl, fw)
                        if r == 0 and 1 <= q <= fhi:
                            fresh = False
                            break
                    if not fresh:
                        break
                seen.add(line)  # promote so later checks stay O(1)
            if fresh:
                ref_cold[rid] += 1
            else:
                arr = evictor.get(line)
                if arr is not None and arr == ref_arrays[rid]:
                    ref_self[rid] += 1
                else:
                    ref_cross[rid] += 1
            if is_write and not walloc:
                continue
            if len(ways) >= assoc:
                victim = ways.pop(0)
                if victim[1]:
                    writebacks += 1
                evictor[victim[0]] = ref_arrays[rid]
                if evlog is not None:
                    evlog.append((victim[0], ref_arrays[rid]))
            ways.append([line, is_write and wb])
        self.writebacks = writebacks
        self.accesses += len(addrs)
        self.replayed += len(addrs)

    # -- fold bookkeeping -------------------------------------------------

    def begin_logs(self) -> None:
        self.touch_log = set()
        self.evict_log = []

    def end_logs(self):
        touched, evictions = self.touch_log, self.evict_log
        self.touch_log = None
        self.evict_log = None
        return touched, evictions

    def counter_snapshot(self):
        return (
            tuple(self.ref_acc), tuple(self.ref_miss), tuple(self.ref_cold),
            tuple(self.ref_self), tuple(self.ref_cross),
            self.writebacks, self.accesses,
        )

    def signature(self):
        return [tuple((e[0], e[1]) for e in ways) for ways in self.sets]

    def matches_translated(self, prev_sig, w: int) -> bool:
        """Current state == prev state with every line shifted by ``w``."""
        S = self.num_sets
        sets = self.sets
        for s in range(S):
            cur = sets[(s + w) % S]
            prev = prev_sig[s]
            if len(cur) != len(prev):
                return False
            for (tag, dirty), entry in zip(prev, cur):
                if entry[0] != tag + w or entry[1] != dirty:
                    return False
        return True

    def translate(self, shift: int) -> None:
        S = self.num_sets
        old = self.sets
        new: List[List[List]] = [[] for _ in range(S)]
        for s in range(S):
            new[(s + shift) % S] = [[e[0] + shift, e[1]] for e in old[s]]
        self.sets = new

    def apply_fold(self, folded: int, before, after, w: int,
                   measured_lines: np.ndarray, evictions,
                   horizon: int) -> None:
        """Account ``folded`` repetitions of the measured unit delta.

        ``measured_lines`` is the line footprint of the measured block
        (the block whose delta is being repeated); the folded blocks
        touch exactly its translates.
        """
        for cur, prev in (
            (self.ref_acc, (after[0], before[0])),
            (self.ref_miss, (after[1], before[1])),
            (self.ref_cold, (after[2], before[2])),
            (self.ref_self, (after[3], before[3])),
            (self.ref_cross, (after[4], before[4])),
        ):
            a, b = prev
            for i in range(len(cur)):
                cur[i] += (a[i] - b[i]) * folded
        self.writebacks += (after[5] - before[5]) * folded
        self.accesses += (after[6] - before[6]) * folded
        if w:
            self.translate(folded * w)
            base = np.unique(measured_lines)
            self.seen_folds.append((base.tolist(), w, folded))
            # Eviction records only matter within the self-overlap horizon
            # of the end of the folded span (later touches of a line are
            # at most ``horizon`` units apart), so replaying the last few
            # translated copies of the measured unit's evictions restores
            # the map exactly for the tail and for nothing else.
            window = min(folded, horizon + 1)
            for k in range(folded - window + 1, folded + 1):
                off = k * w
                for line, arr in evictions:
                    self.evictor[line + off] = arr
        else:
            for line, arr in evictions:
                self.evictor[line] = arr


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
    """Membership of ``lines`` in ``{b + k*w : b in base, lo <= k <= hi}``."""
    member = np.zeros(lines.shape, dtype=bool)
    if hi < lo or len(base) == 0:
        return member
    for b in base:
        diff = lines - int(b)
        if w:
            k, r = np.divmod(diff, w)
            member |= (r == 0) & (k >= lo) & (k <= hi)
        else:
            member |= diff == 0
    return member


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
    if len(forever_fresh) * span > _MAX_WORKSPACE:
        return False
    ts = np.arange(start, num_units, dtype=np.int64) * w
    lines = (forever_fresh[:, None] + ts[None, :]).ravel()
    if len(entry_seen):
        idx = np.searchsorted(entry_seen, lines)
        idx[idx == len(entry_seen)] = 0
        member = entry_seen[idx] == lines
    else:
        member = np.zeros(lines.shape, dtype=bool)
    for fbase, fw, fhi in entry_folds:
        if len(fbase) * len(lines) > _MAX_WORKSPACE:
            return False
        member |= _progression_member(
            lines, np.asarray(fbase, dtype=np.int64), fw, 1, fhi
        )
    counts = member.reshape(len(forever_fresh), span).sum(axis=1)
    return bool(np.all((counts == 0) | (counts == span)))


class _Evaluator:
    """Drives the model over the unit tree, folding where provable."""

    def __init__(self, units, model: _Model, budget: int):
        self.units = units
        self.model = model
        self.model.budget = budget
        self.replayed = 0

    def run(self) -> None:
        for unit in self.units:
            if isinstance(unit, _StmtUnit):
                self._replay_stmt(unit, {})
            else:
                self._run_top(unit)
        self.replayed = self.model.replayed

    # -- plain replay -----------------------------------------------------

    def _replay_stmt(self, unit: _StmtUnit, env) -> None:
        if not unit.exprs:
            return
        addrs = [e.evaluate(env) for e in unit.exprs]
        self.model.replay(addrs, unit.flags, unit.ref_ids)

    def _replay_sub(self, unit, env) -> None:
        if isinstance(unit, _StmtUnit):
            self._replay_stmt(unit, env)
        elif isinstance(unit, _NestUnit):
            for addrs, flags, ids in unit.emit(env, 0, unit.total_iters):
                self.model.replay(addrs, flags, ids)
        else:
            env = dict(env)
            for t in range(unit.trips):
                env[unit.var] = unit.lower + t * unit.step
                for child in unit.body:
                    self._replay_sub(child, env)

    def _replay_outer(self, unit, lo: int, hi: int) -> None:
        """Replay outer iterations ``[lo, hi)`` of a top-level loop unit."""
        if isinstance(unit, _NestUnit):
            inner = unit.inner_iters
            for addrs, flags, ids in unit.emit({}, lo * inner, hi * inner):
                self.model.replay(addrs, flags, ids)
        else:
            env: Dict[str, int] = {}
            for t in range(lo, hi):
                env[unit.var] = unit.lower + t * unit.step
                for child in unit.body:
                    self._replay_sub(child, env)

    # -- folding ----------------------------------------------------------

    def _run_top(self, unit) -> None:
        self.model.evictor.clear()  # attribution is per top-level unit
        entry_seen = np.fromiter(
            self.model.seen, dtype=np.int64, count=len(self.model.seen)
        )
        entry_seen.sort()
        entry_folds = tuple(self.model.seen_folds)
        n = unit.trips[0] if isinstance(unit, _NestUnit) else unit.trips
        if n <= 0 or unit.accesses == 0:
            return
        delta = unit.outer_delta()
        if delta is None:
            self._replay_outer(unit, 0, n)
            return
        p, w = _period(delta, self.model.line_bytes)
        num_units, _tail = divmod(n, p)
        if num_units < 4:
            self._replay_outer(unit, 0, n)
            return
        # Block 0 under a touch log establishes the footprint and the
        # cold-miss horizon; fold checks then run at exponentially spaced
        # checkpoints (strict translation matching may only start holding
        # once the stream has wrapped the cache sets, so checking every
        # block would cost more signatures than it saves replay).
        self.model.begin_logs()
        self._replay_outer(unit, 0, p)
        touched, _evictions = self.model.end_logs()
        u0 = np.fromiter(touched, dtype=np.int64, count=len(touched))
        u0.sort()
        m, forever_fresh = _horizon(u0, w, num_units)
        done = 1  # blocks fully replayed so far
        check = max(m, 1)
        while check + 1 < num_units:
            # Replay up to the checkpoint pair (check, check + 1).
            if check - 1 > done:
                self._replay_outer(unit, done * p, (check - 1) * p)
                done = check - 1
            if done < check:
                self._replay_outer(unit, done * p, check * p)
                done = check
            prev_sig = self.model.signature()
            prev_snap = self.model.counter_snapshot()
            self.model.begin_logs()
            self._replay_outer(unit, check * p, (check + 1) * p)
            _touched, evictions = self.model.end_logs()
            snap = self.model.counter_snapshot()
            done = check + 1
            measured = check  # block index whose delta was measured
            folded = num_units - done
            if (
                folded > 0
                and measured >= m
                and self.model.matches_translated(prev_sig, w)
                and self._fold_allowed(len(evictions), folded, m, w)
                and _fresh_stable(
                    forever_fresh, w, measured, num_units,
                    entry_seen, entry_folds,
                )
            ):
                self.model.apply_fold(
                    folded, prev_snap, snap, w,
                    u0 + measured * w, evictions, m,
                )
                done = num_units
                break
            check = max(check * 2, check + 1)
        if done < num_units:
            self._replay_outer(unit, done * p, num_units * p)
        self._replay_outer(unit, num_units * p, n)

    def _fold_allowed(self, evict_count, folded, m, w) -> bool:
        if not w:
            return True
        return evict_count * min(folded, m + 1) <= _MAX_EVICT_OPS


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
        for b in bailouts:
            obs.counter_add(
                "repro_predict_bailouts_total", 1,
                "analytic predictions refused, by precondition",
                reason=b.reason,
            )
        return PredictOutcome(None, bailouts)
    total_accesses = sum(u.accesses for u in units)
    model = _Model(cache, len(ref_meta), [r.array for r in ref_meta])
    evaluator = _Evaluator(units, model, budget)
    try:
        evaluator.run()
    except _BudgetExceeded:
        bail = Bailout(
            "exceeds_budget",
            f"replay would exceed {budget} accesses "
            f"(program has {total_accesses})",
        )
        obs.counter_add(
            "repro_predict_bailouts_total", 1,
            "analytic predictions refused, by precondition",
            reason="exceeds_budget",
        )
        return PredictOutcome(None, (bail,))
    if model.accesses != total_accesses:  # pragma: no cover - invariant
        raise PredictError(
            f"internal accounting drift: {model.accesses} accesses "
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
            accesses=model.ref_acc[i],
            misses=model.ref_miss[i],
            cold_misses=model.ref_cold[i],
            self_conflict_misses=model.ref_self[i],
            cross_conflict_misses=model.ref_cross[i],
        )
        for i, meta in enumerate(ref_meta)
    )
    reads = sum(r.accesses for r in per_ref if not r.is_write)
    writes = sum(r.accesses for r in per_ref if r.is_write)
    read_misses = sum(r.misses for r in per_ref if not r.is_write)
    write_misses = sum(r.misses for r in per_ref if r.is_write)
    stats = CacheStats(
        accesses=model.accesses,
        misses=sum(model.ref_miss),
        reads=reads,
        writes=writes,
        read_misses=read_misses,
        write_misses=write_misses,
        writebacks=model.writebacks,
        cold_misses=sum(model.ref_cold),
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

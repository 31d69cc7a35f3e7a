"""Static severe-conflict miss estimation.

The paper positions itself against full cache-miss-equation solvers
(Ghosh et al.) by using "a simplified version of cache miss equations to
detect when large numbers of conflict misses will occur".  This module
packages that detection as an *estimator*: without simulating, predict
which fraction of a program's references suffers severe conflicts under a
layout.

Model: within each loop nest, a reference loses its reuse when it
severely conflicts with any other uniformly generated reference of the
nest (the conflicting pair evicts it between consecutive touches), so it
misses on every iteration; otherwise it pays only its streaming rate
``element_size / line_size`` (unit-stride spatial reuse) or 1.0 for
non-affine (gather) references.  Nest weights are static trip-count
products.  The estimate is deliberately simple — its job, like the
compiler's, is to *rank* layouts and flag severe trouble, and the tests
validate exactly that against simulation.  Exact answers come from the
analytic miss predictor (:mod:`repro.analysis.predict`), which the
brownout path (:mod:`repro.resilience.degrade`) consults first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.analysis.conflict import severe_conflict
from repro.analysis.linearize import linearized_distance
from repro.analysis.uniform import uniform_groups
from repro.cache.config import CacheConfig
from repro.ir.loops import Loop
from repro.ir.program import Program
from repro.layout.layout import MemoryLayout


@dataclass(frozen=True)
class ConflictEstimate:
    """Static prediction for one program under one layout."""

    miss_rate_pct: float
    conflicting_refs: int
    total_refs: int
    per_nest: Dict[int, float]
    #: the same weighted rate with every conflict ignored — the floor the
    #: program would pay from streaming (spatial) misses alone.
    streaming_floor_pct: float = 0.0

    @property
    def severe(self) -> bool:
        """True when any reference is predicted to thrash."""
        return self.conflicting_refs > 0

    @property
    def error_bound_pct(self) -> float:
        """The conflict-attributable share of the estimate.

        Everything between the streaming floor and the estimate rides on
        the severe-conflict model, so this band is how far the estimate
        can be off if the model mis-classifies every pair — the honest
        uncertainty attached to a degraded (non-simulated) answer.
        """
        return max(0.0, self.miss_rate_pct - self.streaming_floor_pct)


def _approx_trips(loop: Loop, outer_mid: Dict[str, int]) -> int:
    """Static trip count; outer-variable bounds evaluated at midpoints."""
    lo = loop.lower.substitute(outer_mid)
    hi = loop.upper.substitute(outer_mid)
    if not (lo.is_constant and hi.is_constant):
        return 1
    if loop.step > 0:
        return max(0, (hi.const - lo.const) // loop.step + 1)
    return max(0, (lo.const - hi.const) // (-loop.step) + 1)


def _nest_weight(loop: Loop, outer_mid: Dict[str, int]) -> int:
    trips = _approx_trips(loop, outer_mid)
    mid = dict(outer_mid)
    lo = loop.lower.substitute(outer_mid)
    hi = loop.upper.substitute(outer_mid)
    if lo.is_constant and hi.is_constant:
        mid[loop.var] = (lo.const + hi.const) // 2
    else:
        mid[loop.var] = 1
    inner = [node for node in loop.body if isinstance(node, Loop)]
    if not inner:
        stmt_refs = sum(
            len(node.refs) for node in loop.body if not isinstance(node, Loop)
        )
        return trips * max(1, stmt_refs)
    return trips * sum(_nest_weight(n, mid) for n in inner)


def estimate_conflicts(
    prog: Program,
    layout: MemoryLayout,
    cache: CacheConfig,
) -> ConflictEstimate:
    """Predict the severe-conflict miss rate of a program under a layout."""
    total_weight = 0.0
    miss_weight = 0.0
    floor_weight = 0.0
    conflicting_refs = 0
    total_refs = 0
    per_nest: Dict[int, float] = {}

    for nest_index, nest in enumerate(prog.loop_nests()):
        refs = list(nest.refs())
        if not refs:
            continue
        # Which refs are in a severely conflicting pair?
        doomed: Set[int] = set()
        groups = uniform_groups(prog, nest)
        ref_ids = {id(r): i for i, r in enumerate(refs)}
        for group in groups:
            members = group.refs
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    (na, ra), (nb, rb) = members[i], members[j]
                    delta = linearized_distance(
                        ra, prog.array(na), rb, prog.array(nb),
                        layout.dim_sizes(na), layout.dim_sizes(nb),
                        layout.base(na), layout.base(nb),
                    )
                    if not delta.is_constant:
                        continue
                    if severe_conflict(delta.const, cache.size_bytes, cache.line_bytes):
                        doomed.add(ref_ids.get(id(ra), -1))
                        doomed.add(ref_ids.get(id(rb), -1))
        doomed.discard(-1)

        nest_weight = _nest_weight(nest, {})
        nest_miss = 0.0
        nest_floor = 0.0
        for i, ref in enumerate(refs):
            total_refs += 1
            if ref.is_affine:
                decl = prog.array(ref.array)
                stream = min(1.0, decl.element_size / cache.line_bytes)
            else:
                stream = 1.0
            nest_floor += stream
            if i in doomed:
                conflicting_refs += 1
                nest_miss += 1.0
            else:
                nest_miss += stream
        per_ref_rate = nest_miss / len(refs)
        per_nest[nest_index] = 100.0 * per_ref_rate
        total_weight += nest_weight
        miss_weight += nest_weight * per_ref_rate
        floor_weight += nest_weight * (nest_floor / len(refs))

    rate = 100.0 * miss_weight / total_weight if total_weight else 0.0
    floor = 100.0 * floor_weight / total_weight if total_weight else 0.0
    return ConflictEstimate(
        miss_rate_pct=rate,
        conflicting_refs=conflicting_refs,
        total_refs=total_refs,
        per_nest=per_nest,
        streaming_floor_pct=floor,
    )

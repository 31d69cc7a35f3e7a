"""Beam search + branch-and-bound over the padding constraint network.

``optimize_layout`` is the engine behind ``pad --optimize``.  Where the
paper's heuristics commit one decision at a time (and provably get stuck
— see ``tests/corpus/optimize``), the search explores *joint* intra/inter
assignments:

1. **Beam search** walks the variables in placement order, keeping the
   ``beam`` best partial assignments ranked by static penalty (violated
   conflict constraints among the already-placed prefix) then footprint.
2. **Branch-and-bound** refines the best beam survivor: a depth-first
   sweep over the inter variables, pruning any prefix whose penalty
   already exceeds the best complete assignment found (the prefix
   penalty is monotone — placing more units can only add violations —
   so the prune is admissible).
3. Up to ``budget`` surviving candidates are **scored**: with the
   analytic predictor (:func:`repro.analysis.predict.predict_misses`)
   when the program is analyzable — exact conflict-miss counts for the
   price of arithmetic — falling back to JIT simulation otherwise.
4. The greedy heuristic's result is always held as the **incumbent**:
   a candidate replaces it only by scoring *strictly* better, so the
   search can never regress what the paper's pass already achieved.
5. The winner goes through the full guard pipeline (layout invariants,
   semantic sanitizer, miss-rate regression with rollback).  A winner
   the guard rolls back is discarded and the incumbent is emitted, so
   every layout this module returns is guard-clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.predict import predict_misses
from repro.errors import OptimizeError
from repro.guard.config import GuardConfig, GuardReport
from repro.guard.core import check_layout, check_transform
from repro.guard.sanitizer import sanitize
from repro.ir.program import Program
from repro.layout.layout import MemoryLayout, original_layout
from repro.obs import runtime as obs
from repro.optimize.constraints import ConstraintNetwork, build_network
from repro.padding.common import PadParams, PaddingResult

OBJECTIVES = ("miss", "bytes")

#: hard ceiling on branch-and-bound nodes, scaled by the score budget
_BB_NODE_FACTOR = 64

Assignment = Dict[Tuple[str, str], int]


@dataclass(frozen=True)
class LayoutScore:
    """One scored candidate layout."""

    conflicts: int
    total_bytes: int
    scorer: str  # "predict" or "sim"
    miss_rate_pct: float

    def key(self, objective: str) -> Tuple[int, int]:
        """Comparison key under ``objective`` (smaller is better)."""
        if objective == "bytes":
            return (self.total_bytes, self.conflicts)
        return (self.conflicts, self.total_bytes)

    def render(self) -> str:
        """One-line human rendering (``N predicted conflict misses, ...``)."""
        kind = ("predicted" if self.scorer == "predict"
                else "simulated") + " conflict misses"
        return f"{self.conflicts} {kind}, {self.total_bytes} bytes"


@dataclass
class OptimizeResult:
    """Everything ``pad --optimize`` needs to report one search."""

    program: str
    objective: str
    beam: int
    budget: int
    heuristic: str
    incumbent: PaddingResult
    incumbent_score: LayoutScore
    winner_score: LayoutScore
    layout: MemoryLayout
    winner_from: str  # "search" or "incumbent"
    assignment: Assignment = field(default_factory=dict)
    enumerated: int = 0
    scored: int = 0
    scored_predict: int = 0
    scored_sim: int = 0
    prunes: int = 0
    variables: int = 0
    constraints: int = 0
    seeds: Dict[str, int] = field(default_factory=dict)
    guard: Optional[GuardReport] = None
    guard_rolled_back: bool = False

    @property
    def improved(self) -> bool:
        return self.winner_from == "search"

    @property
    def improvement(self) -> int:
        """Conflict misses removed relative to the greedy incumbent."""
        return self.incumbent_score.conflicts - self.winner_score.conflicts

    def describe(self) -> List[str]:
        """Report lines summarizing the search, for the CLI and logs."""
        seeds = ", ".join(
            f"{k}={v}" for k, v in sorted(self.seeds.items())
        ) or "none"
        lines = [
            f"OPTIMIZE {self.program}: objective={self.objective} "
            f"beam={self.beam} budget={self.budget}",
            f"  network: {self.variables} variable(s), "
            f"{self.constraints} constraint(s) (seeds: {seeds})",
            f"  enumerated {self.enumerated} candidate(s), scored "
            f"{self.scored} (predict {self.scored_predict}, "
            f"sim {self.scored_sim}), {self.prunes} pruned",
            f"  incumbent {self.heuristic}: {self.incumbent_score.render()}",
        ]
        if self.improved:
            lines.append(
                f"  winner search: {self.winner_score.render()} "
                f"(improvement {self.improvement})"
            )
        elif self.guard_rolled_back:
            lines.append(
                "  winner incumbent: search's best was rolled back by "
                "the guard; keeping the greedy layout"
            )
        else:
            lines.append(
                "  winner incumbent: search found nothing strictly better"
            )
        if self.guard is not None:
            lines.append(f"  guard: {self.guard.status}")
        return lines


def score_layout(
    prog: Program,
    layout: MemoryLayout,
    params: PadParams,
    jit: str = "auto",
) -> LayoutScore:
    """Conflict misses + footprint for one layout, cheapest honest way.

    The analytic predictor is exact and costs arithmetic; it is tried
    first.  Programs it bails on (non-affine, over budget) fall back to
    JIT simulation, where conflicts are ``misses - cold_misses``.
    """
    cache = params.primary
    outcome = predict_misses(prog, layout, cache)
    if outcome.analyzable:
        pred = outcome.prediction
        conflicts = sum(r.conflict_misses for r in pred.per_ref)
        return LayoutScore(
            conflicts=conflicts,
            total_bytes=layout.end_address(),
            scorer="predict",
            miss_rate_pct=pred.stats.miss_rate_pct,
        )
    from repro import simulate_program

    stats = simulate_program(prog, layout, cache, jit=jit)
    return LayoutScore(
        conflicts=stats.misses - stats.cold_misses,
        total_bytes=layout.end_address(),
        scorer="sim",
        miss_rate_pct=stats.miss_rate_pct,
    )


def vet_layout(
    prog: Program,
    layout: MemoryLayout,
    baseline_layout: Optional[MemoryLayout] = None,
    sanitize_limit: int = 1 << 20,
    budget_bytes: Optional[int] = None,
    reference_layout: Optional[MemoryLayout] = None,
) -> list:
    """Invariant + sanitizer violations for one candidate layout.

    This is the per-candidate slice of the guard pipeline (the miss-rate
    regression needs the winner only).  The property suite runs it over
    every layout the search enumerates.  ``reference_layout`` is the
    layout the generator committed: passing it lets the sanitizer catch
    consistent-but-wrong relocations (swapped or shifted bases) that an
    inversion against the suspect layout itself cannot see.
    """
    violations = list(check_layout(prog, layout, budget_bytes=budget_bytes))
    if violations:
        return violations
    base = baseline_layout or original_layout(prog)
    violations.extend(
        sanitize(prog, layout, base, limit=sanitize_limit,
                 reference_layout=reference_layout)
    )
    return violations


def enumerate_candidates(
    network: ConstraintNetwork,
    beam: int = 8,
    budget: int = 64,
) -> Tuple[List[Tuple[Assignment, int]], int]:
    """All candidate assignments the search would score, plus prune count.

    Returns ``(candidates, prunes)`` where ``candidates`` is a deduped
    list of ``(assignment, penalty)`` ordered best-first (penalty, then
    footprint) and truncated to ``budget``.
    """
    unit_index = {label: i for i, label in enumerate(network.unit_labels)}
    intra_vars = [v for v in network.variables if v.kind == "intra"]
    inter_vars = [v for v in network.variables if v.kind == "inter"]

    # -- stage A: beam over intra variables (ranked on full layouts with
    # no inter pads, since intra pads shift every later base address) ----
    states: List[Assignment] = [{}]
    for var in intra_vars:
        expanded = [
            {**state, var.key: choice}
            for state in states
            for choice in var.domain
        ]
        if len(expanded) > max(beam, 2) * 4:
            expanded = _rank(network, expanded)[: max(beam, 2) * 4]
        states = expanded
    if intra_vars:
        states = _rank(network, states)[:beam]

    # -- stage B: beam over inter variables in placement order ----------
    for var in inter_vars:
        placed = unit_index[var.name] + 1
        scored = []
        for state in states:
            for choice in var.domain:
                assignment = {**state, var.key: choice}
                prefix = network.materialize(assignment, placed_units=placed)
                scored.append(
                    (network.penalty(prefix), prefix.end_address(), assignment)
                )
        scored.sort(key=lambda t: (t[0], t[1]))
        states = [assignment for _, _, assignment in scored[:beam]]

    candidates: Dict[Tuple, Tuple[Assignment, int]] = {}

    def admit(assignment: Assignment, penalty: Optional[int] = None) -> None:
        sig = tuple(sorted(assignment.items()))
        if sig in candidates:
            return
        if penalty is None:
            penalty = network.penalty(network.materialize(assignment))
        candidates[sig] = (assignment, penalty)

    for state in states:
        admit(state)

    # -- stage C: branch-and-bound refinement around the beam's best ----
    prunes = 0
    if states and inter_vars:
        best_assignment, best_penalty = min(
            (candidates[tuple(sorted(s.items()))] for s in states),
            key=lambda pair: pair[1],
        )
        intra_fixed = {
            k: v for k, v in best_assignment.items() if k[0] == "intra"
        }
        completions, prunes = _branch_and_bound(
            network, intra_fixed, inter_vars, unit_index,
            incumbent_penalty=best_penalty,
            node_cap=max(256, budget * _BB_NODE_FACTOR),
        )
        for penalty, assignment in completions:
            admit(assignment, penalty)

    ordered = sorted(
        candidates.values(),
        key=lambda pair: (
            pair[1],
            network.materialize(pair[0]).end_address(),
        ),
    )
    return ordered[:budget], prunes


def _rank(network: ConstraintNetwork, states: List[Assignment]) -> List[Assignment]:
    scored = []
    for index, state in enumerate(states):
        layout = network.materialize(state)
        scored.append(
            (network.penalty(layout), layout.end_address(), index, state)
        )
    scored.sort(key=lambda t: t[:3])
    return [state for *_, state in scored]


def _branch_and_bound(
    network: ConstraintNetwork,
    intra_fixed: Assignment,
    inter_vars,
    unit_index: Dict[str, int],
    incumbent_penalty: int,
    node_cap: int,
) -> Tuple[List[Tuple[int, Assignment]], int]:
    """DFS over inter variables with monotone-penalty pruning.

    A prefix's penalty never decreases as more units are placed (earlier
    addresses are independent of later choices and constraints only
    *activate* as their arrays get placed), so any prefix already worse
    than the best complete assignment can be cut.
    """
    complete: List[Tuple[int, Assignment]] = []
    prunes = 0
    explored = 0
    best = incumbent_penalty

    def dfs(depth: int, assignment: Assignment) -> None:
        nonlocal prunes, explored, best
        if explored >= node_cap:
            return
        explored += 1
        if depth == len(inter_vars):
            penalty = network.penalty(network.materialize(assignment))
            if penalty <= best:
                best = min(best, penalty)
                complete.append((penalty, dict(assignment)))
            return
        var = inter_vars[depth]
        placed = unit_index[var.name] + 1
        for choice in var.domain:
            assignment[var.key] = choice
            prefix = network.materialize(assignment, placed_units=placed)
            if network.penalty(prefix) > best:
                prunes += 1
            else:
                dfs(depth + 1, assignment)
        del assignment[var.key]

    dfs(0, dict(intra_fixed))
    return complete, prunes


def optimize_layout(
    prog: Program,
    params: PadParams,
    beam: int = 8,
    budget: int = 64,
    objective: str = "miss",
    heuristic: str = "pad",
    jit: str = "auto",
    guard: Optional[GuardConfig] = None,
) -> OptimizeResult:
    """Search for a layout strictly better than the greedy incumbent.

    Raises :class:`OptimizeError` on bad knobs or an unsearchable
    program; never emits a layout that is worse than ``heuristic``'s or
    that the guard pipeline rejects.
    """
    from repro.experiments.runner import HEURISTICS

    if beam < 1:
        raise OptimizeError(f"beam width must be at least 1, got {beam}")
    if budget < 1:
        raise OptimizeError(
            f"candidate budget must be at least 1, got {budget}"
        )
    if objective not in OBJECTIVES:
        raise OptimizeError(
            f"objective {objective!r} unknown; known: {OBJECTIVES}"
        )
    if heuristic not in HEURISTICS:
        raise OptimizeError(
            f"incumbent heuristic {heuristic!r} unknown; "
            f"known: {sorted(HEURISTICS)}"
        )
    obs.counter_add(
        "repro_optimize_runs_total", 1,
        help="layout-optimization searches started",
    )

    with obs.span("optimize.search", program=prog.name):
        incumbent = HEURISTICS[heuristic](prog, params)
        network = build_network(prog, params, incumbent)
        candidates, prunes = enumerate_candidates(network, beam, budget)
        obs.counter_add(
            "repro_optimize_prunes_total", prunes,
            help="branch-and-bound prefixes cut by the penalty bound",
        )

        incumbent_score = _score(prog, incumbent.layout, params, jit)
        scored_predict = scored_sim = 0
        best_candidate: Optional[Tuple[LayoutScore, Assignment,
                                       MemoryLayout]] = None
        for assignment, _penalty in candidates:
            layout = network.materialize(assignment)
            score = _score(prog, layout, params, jit)
            if score.scorer == "predict":
                scored_predict += 1
            else:
                scored_sim += 1
            if best_candidate is None or (
                score.key(objective) < best_candidate[0].key(objective)
            ):
                best_candidate = (score, assignment, layout)

        winner_score = incumbent_score
        winner_layout = incumbent.layout
        winner_assignment: Assignment = {}
        winner_from = "incumbent"
        if best_candidate is not None:
            score, assignment, layout = best_candidate
            beats = score.key(objective) < incumbent_score.key(objective)
            # under the bytes objective, never trade conflict misses
            # away for footprint: the incumbent's miss count is a floor
            if objective == "bytes":
                beats = beats and score.conflicts <= incumbent_score.conflicts
            if beats:
                winner_score, winner_layout = score, layout
                winner_assignment = assignment
                winner_from = "search"

        # -- full guard pipeline on the search's winner ------------------
        guard_report = None
        rolled_back = False
        if winner_from == "search":
            config = guard or GuardConfig()
            if config.strict:
                # rollback semantics, not exceptions: a condemned winner
                # falls back to the incumbent, which is guard-clean
                config = GuardConfig(
                    mode="warn",
                    epsilon_pct=config.epsilon_pct,
                    budget_bytes=config.budget_bytes,
                    sanitize_limit=config.sanitize_limit,
                )
            from repro import simulate_program

            guard_report, _stats = check_transform(
                prog, winner_layout, config,
                simulate_fn=lambda p, lay: simulate_program(
                    p, lay, params.primary, jit=jit
                ),
                baseline_layout=incumbent.layout,
            )
            if guard_report.rolled_back:
                rolled_back = True
                obs.counter_add(
                    "repro_optimize_guard_rollbacks_total", 1,
                    help="search winners the guard rolled back",
                )
                winner_score = incumbent_score
                winner_layout = incumbent.layout
                winner_assignment = {}
                winner_from = "incumbent"

        if winner_from == "search":
            obs.counter_add(
                "repro_optimize_improvements_total", 1,
                help="searches that beat the greedy incumbent",
            )

        return OptimizeResult(
            program=prog.name,
            objective=objective,
            beam=beam,
            budget=budget,
            heuristic=heuristic,
            incumbent=incumbent,
            incumbent_score=incumbent_score,
            winner_score=winner_score,
            layout=winner_layout,
            winner_from=winner_from,
            assignment=winner_assignment,
            enumerated=len(candidates),
            scored=scored_predict + scored_sim + 1,  # + the incumbent
            scored_predict=scored_predict,
            scored_sim=scored_sim,
            prunes=prunes,
            variables=len(network.variables),
            constraints=len(network.constraints),
            seeds=dict(network.seeds),
            guard=guard_report,
            guard_rolled_back=rolled_back,
        )


def _score(prog, layout, params, jit) -> LayoutScore:
    score = score_layout(prog, layout, params, jit=jit)
    obs.counter_add(
        "repro_optimize_candidates_total", 1,
        help="candidate layouts scored, by scorer",
        scorer=score.scorer,
    )
    return score

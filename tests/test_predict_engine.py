"""The analytic miss predictor and its tier-0 integrations.

The byte-for-byte equivalence against the reference simulator lives in
tests/test_predict_differential.py; these tests pin everything else:
classification and the precondition report, provenance bookkeeping
invariants, the replay budget, obs counters, and the tier-0 wiring into
the Runner, the engine, campaign policies, the CLI, degraded serving and
the conflict estimator.
"""

import json

import numpy as np
import pytest

from repro import simulate_program
from repro.analysis.predict import (
    BAILOUT_REASONS,
    DEFAULT_BUDGET,
    _fresh_stable,
    _horizon,
    classify_program,
    predict_misses,
)
from repro.bench.corpus import bailout_case
from repro.cache.config import CacheConfig
from repro.errors import ConfigError, PredictError, UsageError
from repro.experiments.runner import Runner
from repro.layout.layout import original_layout
from tests.conftest import jacobi_program, vector_sum_program

pytestmark = pytest.mark.predict

CACHE = CacheConfig(1024, 4, 1)


def predict_jacobi(n=64, cache=CACHE):
    prog = jacobi_program(n)
    return predict_misses(prog, original_layout(prog), cache)


class TestClassification:
    def test_perfect_nest_is_analyzable(self):
        prog = jacobi_program(32)
        units, ref_meta, bailouts = classify_program(
            prog, original_layout(prog)
        )
        assert units is not None
        assert bailouts == ()
        assert len(ref_meta) == len(list(prog.refs()))

    def test_every_bailout_reason_is_catalogued(self):
        for kind in ("triangular", "indirect", "imperfect", "symbolic"):
            case = bailout_case(kind)
            units, _, bailouts = classify_program(case.prog, case.layout)
            assert units is None
            assert bailouts
            assert all(b.reason in BAILOUT_REASONS for b in bailouts)

    def test_unknown_bailout_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown bailout kind"):
            bailout_case("nonsense")


class TestBailoutReport:
    @pytest.mark.parametrize(
        "kind,reason",
        [
            ("triangular", "symbolic_bounds"),
            ("indirect", "indirect"),
            ("imperfect", "imperfect"),
            ("symbolic", "symbolic_bounds"),
        ],
    )
    def test_reason_pinned_per_kind(self, kind, reason):
        case = bailout_case(kind)
        outcome = predict_misses(case.prog, case.layout, case.cache)
        assert not outcome.analyzable
        assert outcome.reason == reason
        assert outcome.reason == case.expect_reason

    def test_require_raises_with_every_bailout_rendered(self):
        case = bailout_case("imperfect")
        outcome = predict_misses(case.prog, case.layout, case.cache)
        with pytest.raises(PredictError, match="not analyzable"):
            outcome.require()
        rendered = [b.render() for b in outcome.bailouts]
        assert any("imperfect" in r for r in rendered)

    def test_require_returns_prediction_when_analyzable(self):
        outcome = predict_jacobi()
        assert outcome.require() is outcome.prediction
        assert outcome.reason is None
        assert outcome.bailouts == ()

    def test_budget_bailout_names_the_budget(self):
        prog = jacobi_program(64)
        outcome = predict_misses(prog, original_layout(prog), CACHE, budget=8)
        assert not outcome.analyzable
        assert outcome.reason == "exceeds_budget"
        assert "8" in outcome.bailouts[0].where

    def test_default_budget_admits_large_kernels(self):
        assert DEFAULT_BUDGET >= 1 << 22
        assert predict_jacobi(128).analyzable


class TestHorizon:
    """Block b of a footprint ``u0`` translating by ``w`` lines per block
    touches ``u0 + b*w``; an offset is re-touched by an earlier block's
    offset ``lag * w`` away, or never (forever fresh)."""

    def test_upward_translation_covered_from_above(self):
        # offset 0 of block b is offset 6 of block b-3; 6 is never covered
        m, fresh = _horizon(np.array([0, 6]), 2, 10)
        assert m == 3
        assert fresh.tolist() == [6]

    def test_downward_translation_covered_from_below(self):
        # offset 6 of block b is offset 0 of block b-3; 0 is never covered
        m, fresh = _horizon(np.array([0, 6]), -2, 10)
        assert m == 3
        assert fresh.tolist() == [0]

    def test_residue_classes_are_independent(self):
        m, fresh = _horizon(np.array([0, 1, 2, 4]), 2, 10)
        assert m == 1
        assert sorted(fresh.tolist()) == [1, 4]
        m, fresh = _horizon(np.array([0, 1, 2, 4]), -2, 10)
        assert sorted(fresh.tolist()) == [0, 1]

    def test_lag_beyond_the_loop_stays_fresh(self):
        m, fresh = _horizon(np.array([0, 6]), 2, 3)
        assert m == 1
        assert sorted(fresh.tolist()) == [0, 6]


class TestFreshStability:
    """``_fresh_stable`` against a brute-force count: every forever-fresh
    offset's translates over ``[start, stop)`` lie all inside or all
    outside the lines seen so far (points plus fold progressions, of the
    unit's stride or another)."""

    @staticmethod
    def brute_force(fresh, w, start, stop, seen, folds):
        covered = set(seen.tolist())
        for base, fw, count in folds:
            covered.update(b + k * fw for b in base.tolist()
                           for k in range(1, count + 1))
        span = stop - start
        hits = [sum(f + t * w in covered for t in range(start, stop))
                for f in fresh.tolist()]
        return all(h in (0, span) for h in hits)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        strides = [-3, -2, -1, 1, 2, 4]
        for _ in range(400):
            w = int(rng.choice(strides))
            stop = int(rng.integers(2, 30))
            start = int(rng.integers(0, stop))
            fresh = np.unique(rng.integers(-20, 20, size=rng.integers(1, 5)))
            seen = np.unique(rng.integers(-50, 60, size=rng.integers(0, 12)))
            if rng.random() < 0.3:  # every translate of one offset seen
                seen = np.union1d(seen, fresh[0] + np.arange(start, stop) * w)
            folds = tuple(
                (np.unique(rng.integers(-30, 30, size=rng.integers(1, 4))),
                 w if rng.random() < 0.7 else int(rng.choice(strides)),
                 int(rng.integers(1, 15)))
                for _ in range(rng.integers(0, 3))
            )
            assert _fresh_stable(fresh, w, start, stop, seen, folds) == (
                self.brute_force(fresh, w, start, stop, seen, folds)
            ), (w, start, stop, fresh, seen, folds)


class TestProvenanceInvariants:
    """The per-reference decomposition must tile the totals exactly."""

    def outcome(self):
        return predict_jacobi(48)

    def test_per_ref_sums_equal_stats(self):
        pred = self.outcome().prediction
        assert sum(r.accesses for r in pred.per_ref) == pred.stats.accesses
        assert sum(r.misses for r in pred.per_ref) == pred.stats.misses
        assert (
            sum(r.cold_misses for r in pred.per_ref)
            == pred.stats.cold_misses
        )

    def test_miss_decomposition_is_exhaustive(self):
        pred = self.outcome().prediction
        for ref in pred.per_ref:
            assert (
                ref.cold_misses
                + ref.self_conflict_misses
                + ref.cross_conflict_misses
                == ref.misses
            )
            assert ref.conflict_misses == ref.misses - ref.cold_misses
            assert 0 <= ref.miss_rate_pct <= 100.0

    def test_per_array_aggregates_per_ref(self):
        pred = self.outcome().prediction
        for array, row in pred.per_array.items():
            refs = [r for r in pred.per_ref if r.array == array]
            assert row["accesses"] == sum(r.accesses for r in refs)
            assert row["misses"] == sum(r.misses for r in refs)

    def test_fold_bookkeeping(self):
        pred = self.outcome().prediction
        assert pred.replayed_accesses + pred.folded_accesses == (
            pred.stats.accesses
        )
        assert pred.fold_ratio >= 1.0

    def test_cold_misses_bounded_by_footprint(self):
        # every array line can go cold at most once
        pred = self.outcome().prediction
        for array, row in pred.per_array.items():
            assert row["cold_misses"] <= row["accesses"]


class TestObsCounters:
    def _snapshot(self, fn):
        from repro.obs import runtime as obs

        obs.reset()
        obs.enable()
        try:
            fn()
        finally:
            obs.disable()
        snap = obs.snapshot()
        obs.reset()
        return {c["name"]: c for c in snap["counters"]}

    def test_prediction_counters(self):
        counters = self._snapshot(lambda: predict_jacobi(32))
        assert counters["repro_predict_requests_total"]["value"] == 1
        assert counters["repro_predict_predictions_total"]["value"] == 1
        assert "repro_predict_bailouts_total" not in counters

    def test_bailout_counter_labelled_with_reason(self):
        case = bailout_case("indirect")

        counters = self._snapshot(
            lambda: predict_misses(case.prog, case.layout, case.cache)
        )
        assert counters["repro_predict_requests_total"]["value"] == 1
        bail = counters["repro_predict_bailouts_total"]
        assert bail["labels"]["reason"] == "indirect"

    def test_write_no_allocate_cache_bails_with_write_policy(self):
        cache = CacheConfig(1024, 4, 1, write_allocate=False)
        outcomes = []
        counters = self._snapshot(
            lambda: outcomes.append(predict_jacobi(32, cache))
        )
        assert [b.reason for b in outcomes[0].bailouts] == ["write_policy"]
        assert "write_policy" in BAILOUT_REASONS
        bail = counters["repro_predict_bailouts_total"]
        assert bail["labels"]["reason"] == "write_policy"

    def test_tier0_answer_simulates_nothing(self):
        """Tier 0 replays on the LRU engine, but that is not simulation:
        no ``repro_sim_*`` count moves."""
        runner = Runner(predict="analytic")
        counters = self._snapshot(
            lambda: runner.run("jacobi", "original", CACHE, size=48)
        )
        assert runner.last_tier == "analytic"
        assert counters["repro_predict_predictions_total"]["value"] == 1
        assert not [name for name in counters if name.startswith("repro_sim")]


class TestRunnerTier0:
    def test_predict_modes(self):
        assert Runner.PREDICT_MODES == ("analytic", "auto", "sim")
        with pytest.raises(ConfigError, match="predict"):
            Runner(predict="sometimes")

    def test_auto_serves_analytic_and_matches_sim(self):
        analytic = Runner(predict="auto")
        sim = Runner()
        request = analytic.request_for("jacobi", "original", CACHE, size=48)
        stats = analytic.run("jacobi", "original", CACHE, size=48)
        assert analytic.last_tier == "analytic"
        assert stats == sim.execute(request)
        # repeats keep coming from tier 0, not the simulator
        assert analytic.run("jacobi", "original", CACHE, size=48) == stats
        assert analytic.last_tier == "analytic"

    def test_analytic_answer_written_through_once(self):
        class CountingStore:
            def __init__(self):
                self.puts = []

            def get(self, key):
                return None

            def put(self, key, value):
                self.puts.append((key, value))

        store = CountingStore()
        runner = Runner(store=store, predict="auto")
        for _ in range(3):
            runner.run("jacobi")
            assert runner.last_tier == "analytic"
        assert len(store.puts) == 1
        assert store.puts[0][1]["status"] == "analytic"

    def test_sim_mode_never_consults_the_predictor(self):
        runner = Runner()  # predict defaults to "sim"
        runner.run("dot", "original", CACHE, size=64)
        assert runner.last_tier == "sim"

    def test_auto_falls_back_to_simulation_on_bailout(self):
        runner = Runner(predict="auto")
        # linpackd has an imperfect, triangular nest: not analyzable
        stats = runner.run("linpackd", "original", CACHE, size=32)
        assert runner.last_tier == "sim"
        request = runner.request_for("linpackd", "original", CACHE, size=32)
        assert stats == Runner().execute(request)

    def test_analytic_mode_refuses_unanalyzable(self):
        runner = Runner(predict="analytic")
        with pytest.raises(PredictError, match="not analyzable"):
            runner.run("linpackd", "original", CACHE, size=32)

    def test_analytic_mode_refuses_active_guard(self):
        from repro.guard import runtime as guard_runtime
        from repro.guard.core import GuardConfig

        runner = Runner(predict="analytic")
        with guard_runtime.activated(GuardConfig(mode="strict")):
            with pytest.raises(PredictError, match="guard"):
                runner.run("jacobi", "pad", CACHE, size=48)

    def test_prediction_memoised_per_request(self):
        runner = Runner(predict="auto")
        request = runner.request_for("jacobi", "original", CACHE, size=48)
        first = runner.predict_request(request)
        assert runner.predict_request(request) is first
        runner.clear()
        assert runner.predict_request(request) is not first


class TestEngineTierThreading:
    def test_outcomes_carry_the_analytic_tier(self):
        from repro.engine import EngineConfig, ExperimentEngine

        runner = Runner()
        requests = [
            runner.request_for("jacobi", "original", CACHE, size=48),
            runner.request_for("dot", "pad", CACHE, size=64),
        ]
        config = EngineConfig(jobs=2, timeout=60, retries=0, tier="auto")
        outcomes = ExperimentEngine(config).run_many(requests)
        for request, outcome in zip(requests, outcomes):
            assert outcome.status == "ok"
            assert outcome.tier == "analytic"
            assert outcome.stats == runner.execute(request)

    def test_default_tier_is_simulation(self):
        from repro.engine import EngineConfig, ExperimentEngine

        runner = Runner()
        requests = [runner.request_for("dot", "original", CACHE, size=64)]
        outcomes = ExperimentEngine(
            EngineConfig(jobs=1, timeout=60, retries=0)
        ).run_many(requests)
        assert outcomes[0].tier == "sim"


class TestCampaignPolicyTier:
    MINIMAL = {"benchmarks": ["dot"], "heuristics": ["pad"]}

    def _spec(self, **policy):
        from repro.campaign.spec import parse_spec

        body = dict(self.MINIMAL)
        if policy:
            body["policy"] = policy
        return parse_spec(body)

    def test_default_tier_is_sim(self):
        assert self._spec().policy.tier == "sim"

    def test_tier_accepted_and_content_addressed(self):
        spec = self._spec(tier="auto")
        assert spec.policy.tier == "auto"
        assert spec.policy.to_record()["tier"] == "auto"
        assert (
            self._spec(tier="auto").policy.to_record()
            != self._spec().policy.to_record()
        )

    def test_invalid_tier_rejected(self):
        with pytest.raises(UsageError, match="policy.tier"):
            self._spec(tier="warp")


class TestEstimatorExactPath:
    """The estimator has no exact path of its own: exact brownout answers
    come from the predictor in :mod:`repro.resilience.degrade`."""

    def test_default_stays_on_the_heuristic_model(self):
        from repro.extensions.estimate import estimate_conflicts

        prog = vector_sum_program(256)
        est = estimate_conflicts(prog, original_layout(prog),
                                 CacheConfig(2048, 32, 1))
        assert not hasattr(est, "exact") and not hasattr(est, "bailout")
        assert est.error_bound_pct == max(
            0.0, est.miss_rate_pct - est.streaming_floor_pct
        )


class TestLintC006:
    def test_silent_on_unanalyzable_program(self):
        from repro.lint import lint_source

        triangular = (
            "program tri\n"
            "param N = 512\n"
            "real*8 A(N, N), B(N, N)\n"
            "do j = 1, N\n"
            "  do i = j, N\n"
            "    A(i, j) = A(i, j) + B(i, j)\n"
            "  end do\n"
            "end do\n"
            "end\n"
        )
        result = lint_source(triangular)
        assert "C006" not in result.by_rule()

    def test_fires_on_predicted_thrashing(self):
        from repro.lint import LintConfig, lint_source

        clash = (
            "program clash\n"
            "param N = 512\n"
            "real*8 A(N, N), B(N, N)\n"
            "do j = 1, N\n"
            "  do i = 1, N\n"
            "    A(i, j) = A(i, j) + B(i, j)\n"
            "  end do\n"
            "end do\n"
            "end\n"
        )
        result = lint_source(clash, config=LintConfig(select=("C006",)))
        findings = [f for f in result.findings if f.rule == "C006"]
        assert findings
        assert "predicted conflict misses" in findings[0].message


class TestCliPredict:
    KERNEL = "examples/kernels/dot.dsl"

    def test_text_report(self, capsys):
        from repro.cli import main

        rc = main(["predict", self.KERNEL, "--cache", "2K"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "per-array:" in out
        assert "fold" in out

    def test_json_report_matches_simulation(self, capsys):
        from repro.cli import main

        rc = main([
            "predict", self.KERNEL, "--cache", "2K", "--format", "json",
        ])
        record = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert record["analyzable"] is True

        from repro.frontend import parse_program

        prog = parse_program(open(self.KERNEL).read())
        stats = simulate_program(
            prog, original_layout(prog), CacheConfig(2048, 32, 1), jit="off"
        )
        assert record["stats"]["misses"] == stats.misses
        assert record["stats"]["accesses"] == stats.accesses
        assert set(record["per_array"]) == {"X", "Y", "S"}

    def test_bailout_exits_2_with_reasons(self, tmp_path, capsys):
        from repro.cli import main

        source = (
            "program tri\n"
            "param N = 64\n"
            "real*8 A(N, N)\n"
            "do i = 1, N\n"
            "  do j = i, N\n"
            "    A(j, i) = A(j, i) + 1\n"
            "  end do\n"
            "end do\n"
            "end\n"
        )
        path = tmp_path / "tri.dsl"
        path.write_text(source)
        rc = main(["predict", str(path), "--cache", "2K"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "not analyzable" in out
        assert "symbolic_bounds" in out

    def test_budget_flag_forces_bailout(self, capsys):
        from repro.cli import main

        rc = main([
            "predict", self.KERNEL, "--cache", "2K",
            "--budget", "4", "--format", "json",
        ])
        record = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert record["bailouts"][0]["reason"] == "exceeds_budget"

    def test_simulate_tier_auto_matches_sim(self, capsys):
        from repro.cli import main

        rc = main(["simulate", self.KERNEL, "--cache", "2K"])
        sim_out = capsys.readouterr().out
        assert rc == 0
        rc = main([
            "simulate", self.KERNEL, "--cache", "2K", "--tier", "auto",
        ])
        tier_out = capsys.readouterr().out
        assert rc == 0
        assert "[analytic]" in tier_out

        def counts(text):
            return [
                line.split(":", 1)[1].replace(" [analytic]", "")
                for line in text.splitlines()
                if "misses" in line
            ]

        assert counts(sim_out) == counts(tier_out)

    def test_simulate_tier_analytic_refuses_guard(self, capsys):
        from repro.cli import exit_code_for, main

        rc = main([
            "simulate", self.KERNEL, "--cache", "2K",
            "--tier", "analytic", "--guard", "strict",
        ])
        err = capsys.readouterr().err
        assert rc == exit_code_for(PredictError("x")) == 2
        assert "guard" in err

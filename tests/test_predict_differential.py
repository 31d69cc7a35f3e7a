"""Differential battery: analytic predictor == reference simulator.

The predictor's contract is byte-identical statistics on every program it
accepts, and an explicit bailout (never a silent approximation) on every
program it does not.  Three populations drive that contract:

* 240 seeded :func:`random_affine_case` programs — exactly the
  analyzable class, paired with randomized cache geometries including
  set-associative and exotic write policies;
* the JIT fuzz corpus (:func:`repro.jit.corpus.random_case`), which also
  produces triangular/imperfect/indirect shapes — each case must either
  match the simulator or bail out;
* the on-disk DSL corpora (``tests/corpus/lint``, ``examples/kernels``).

The large streaming corpus the throughput gate uses
(:func:`eligible_corpus`) is verified exactly too, in the ``slow`` tail.
"""

import glob

import pytest

from repro import simulate_program
from repro.analysis.predict import predict_misses
from repro.analysis.predict_corpus import (
    bailout_case,
    eligible_corpus,
    random_affine_case,
)
from repro.bench.suites import get_spec
from repro.cache.config import CacheConfig, base_cache
from repro.cache.sim import ReferenceCache
from repro.frontend import parse_program
from repro.jit.corpus import random_case
from repro.layout.layout import original_layout
from repro.trace.interpreter import trace_addresses

pytestmark = pytest.mark.predict

AFFINE_SEEDS = range(240)
FUZZ_SEEDS = range(120)
PAPER_CACHE = CacheConfig(2048, 32, 1)


def assert_match_or_bailout(prog, layout, cache, label):
    """The predictor's only two legal answers, checked."""
    outcome = predict_misses(prog, layout, cache)
    if not outcome.analyzable:
        assert outcome.bailouts, f"{label}: bailed without a reason"
        return outcome
    expected = simulate_program(prog, layout, cache, jit="off")
    assert outcome.prediction.stats == expected, (
        f"{label}: predicted {outcome.prediction.stats} "
        f"!= simulated {expected}"
    )
    return outcome


class TestSeededAffineBattery:
    """Every generated case is analyzable and byte-identical."""

    @pytest.mark.parametrize("seed", AFFINE_SEEDS)
    def test_predicts_exactly(self, seed):
        case = random_affine_case(seed)
        outcome = predict_misses(case.prog, case.layout, case.cache)
        assert outcome.analyzable, (
            f"{case.name}: {[b.render() for b in outcome.bailouts]}"
        )
        expected = simulate_program(
            case.prog, case.layout, case.cache, jit="off"
        )
        assert outcome.prediction.stats == expected

    def test_corpus_exercises_the_analyzable_class(self):
        """The battery covers the geometries the claim is about."""
        assocs, policies = set(), set()
        for seed in AFFINE_SEEDS:
            cache = random_affine_case(seed).cache
            assocs.add(cache.associativity)
            policies.add((cache.write_allocate, cache.write_back))
        assert {1, 2, 4} <= assocs
        assert len(policies) >= 3  # write policies actually vary


class TestAgainstReferenceCacheDirectly:
    """Pin the ground truth: not the fast engines, the reference LRU."""

    @pytest.mark.parametrize("seed", range(40))
    def test_access_for_access(self, seed):
        case = random_affine_case(seed)
        outcome = predict_misses(case.prog, case.layout, case.cache)
        assert outcome.analyzable
        addrs, writes = trace_addresses(case.prog, case.layout, jit="off")
        ref = ReferenceCache(case.cache)
        ref.access_chunk(addrs, writes)
        assert outcome.prediction.stats == ref.stats


class TestPaperKernelRegressions:
    """Paper kernels the predictor once answered wrong, pinned against
    the reference LRU on the paper's 16K caches."""

    @pytest.mark.parametrize("assoc", [1, 2])
    def test_apsi_cold_misses(self, assoc):
        # A reversed self-cover direction in the fold horizon once let a
        # fold through that dropped 84 cold misses here.
        cache = base_cache().with_associativity(assoc)
        prog = get_spec("apsi").build()
        layout = original_layout(prog)
        outcome = predict_misses(prog, layout, cache)
        assert outcome.analyzable
        addrs, writes = trace_addresses(prog, layout, jit="off")
        ref = ReferenceCache(cache)
        ref.access_chunk(addrs, writes)
        assert outcome.prediction.stats == ref.stats


class TestFuzzCorpusMatchOrBailout:
    """The JIT fuzz corpus includes shapes outside the analyzable class;
    the predictor must never answer wrong — match exactly or bail out."""

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_affine_profile(self, seed):
        case = random_case(seed, profile="fuzz")
        for layout in (case.layout, case.padded_layout):
            assert_match_or_bailout(case.prog, layout, PAPER_CACHE, case.name)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_indirect_profile(self, seed):
        case = random_case(seed, profile="fuzz", allow_indirect=True)
        for layout in (case.layout, case.padded_layout):
            outcome = assert_match_or_bailout(
                case.prog, layout, PAPER_CACHE, case.name
            )
            if case.has_indirect:
                # an indirect subscript is never analyzable
                assert not outcome.analyzable


class TestDslCorpora:
    """Every kernel shipped in the repo is either predicted exactly or
    refused with reasons."""

    @pytest.mark.parametrize(
        "path",
        sorted(glob.glob("tests/corpus/lint/*.dsl"))
        + sorted(glob.glob("examples/kernels/*.dsl")),
    )
    def test_match_or_bailout(self, path):
        prog = parse_program(open(path).read())
        layout = original_layout(prog)
        for cache in (CacheConfig(16 * 1024, 32, 1), CacheConfig(4096, 32, 2)):
            assert_match_or_bailout(prog, layout, cache, path)


class TestBailoutPins:
    """One unanalyzable feature at a time: the refusal is attributed."""

    @pytest.mark.parametrize(
        "kind,reason",
        [
            ("triangular", "symbolic_bounds"),
            ("indirect", "indirect"),
            ("imperfect", "imperfect"),
            ("symbolic", "symbolic_bounds"),
        ],
    )
    def test_reason(self, kind, reason):
        case = bailout_case(kind)
        outcome = predict_misses(case.prog, case.layout, case.cache)
        assert not outcome.analyzable
        assert outcome.prediction is None  # no partial answer rides along
        assert outcome.reason == reason


@pytest.mark.slow
class TestEligibleCorpusExact:
    """The corpus the tier-0 throughput gate runs over is predicted
    exactly — the speedup claim is meaningless otherwise."""

    @pytest.mark.parametrize(
        "case", eligible_corpus(), ids=lambda c: c.name
    )
    def test_byte_identical(self, case):
        outcome = predict_misses(case.prog, case.layout, case.cache)
        assert outcome.analyzable
        expected = simulate_program(
            case.prog, case.layout, case.cache, jit="off"
        )
        assert outcome.prediction.stats == expected
        # these kernels are the fold showcase: replay must compress
        assert outcome.prediction.fold_ratio > 5.0

"""Differential battery: analytic predictor == reference simulator.

The predictor's contract is byte-identical statistics on every program it
accepts, and an explicit bailout (never a silent approximation) on every
program it does not.  Three populations drive that contract:

* 240 seeded ``random_case(seed, "affine")`` programs from
  :mod:`repro.bench.corpus` — exactly the analyzable class, paired with
  randomized cache geometries including set-associative and exotic
  write policies (the 27 write-no-allocate caches among them must bail
  with ``write_policy``);
* the same corpus's ``fuzz`` profile, which the JIT battery draws from
  and which also produces triangular/imperfect/indirect shapes — each
  case must either match the simulator or bail out;
* the on-disk DSL corpora (``tests/corpus/lint``, ``examples/kernels``).

The large streaming corpus the throughput gate uses
(:func:`eligible_corpus`) is verified exactly too, in the ``slow`` tail.
"""

import glob

import pytest

from repro import simulate_program
from repro.analysis.predict import (
    _Evaluator, _StmtUnit, classify_program, predict_misses,
)
from repro.bench.corpus import bailout_case, eligible_corpus, random_case
from repro.bench.suites import get_spec
from repro.cache.config import CacheConfig, base_cache
from repro.cache.sim import ReferenceCache
from repro.frontend import parse_program
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


def assert_write_policy_bailout(outcome, case):
    """A write-no-allocate cache is refused, for that reason alone."""
    assert not case.cache.write_allocate, case.name
    assert [b.reason for b in outcome.bailouts] == ["write_policy"], (
        f"{case.name}: {[b.render() for b in outcome.bailouts]}"
    )


class TestSeededAffineBattery:
    """Every generated case on a write-allocate cache is analyzable and
    byte-identical; every write-no-allocate case bails with
    ``write_policy``."""

    @pytest.mark.parametrize("seed", AFFINE_SEEDS)
    def test_predicts_exactly(self, seed):
        case = random_case(seed, "affine")
        outcome = predict_misses(case.prog, case.layout, case.cache)
        if not outcome.analyzable:
            assert_write_policy_bailout(outcome, case)
            return
        assert case.cache.write_allocate, case.name
        expected = simulate_program(
            case.prog, case.layout, case.cache, jit="off"
        )
        assert outcome.prediction.stats == expected

    def test_write_policy_bailouts_are_counted(self):
        """The refused share is pinned, so coverage cannot shrink
        silently: 213 of the 240 seeds predict, 27 are write-no-allocate."""
        refused = [
            seed for seed in AFFINE_SEEDS
            if not random_case(seed, "affine").cache.write_allocate
        ]
        assert len(refused) == 27
        assert len(AFFINE_SEEDS) - len(refused) == 213
        assert [s for s in refused if s < 40] == [0, 7, 25, 32, 36, 38]

    def test_corpus_exercises_the_analyzable_class(self):
        """The battery covers the geometries the claim is about."""
        assocs, policies = set(), set()
        for seed in AFFINE_SEEDS:
            cache = random_case(seed, "affine").cache
            assocs.add(cache.associativity)
            policies.add((cache.write_allocate, cache.write_back))
        assert {1, 2, 4} <= assocs
        assert len(policies) >= 3  # write policies actually vary


class TestAgainstReferenceCacheDirectly:
    """Pin the ground truth: not the fast engines, the reference LRU."""

    @pytest.mark.parametrize("seed", range(40))
    def test_access_for_access(self, seed):
        case = random_case(seed, "affine")
        outcome = predict_misses(case.prog, case.layout, case.cache)
        if not case.cache.write_allocate:
            assert_write_policy_bailout(outcome, case)
            return
        assert outcome.analyzable
        addrs, writes = trace_addresses(case.prog, case.layout, jit="off")
        ref = ReferenceCache(case.cache)
        ref.access_chunk(addrs, writes)
        assert outcome.prediction.stats == ref.stats


def reference_attribution(prog, layout, cache):
    """Per-reference (accesses, misses, cold, self, cross), access by
    access on a ReferenceCache: a miss is cold on a line never touched,
    self when the line was last evicted within the same top-level loop
    unit by an access to the same array, cross otherwise."""
    units, meta, _ = classify_program(prog, layout)
    stream = _Evaluator(units, cache, [m.array for m in meta], 0)._stream
    ref = ReferenceCache(cache)
    seen, evictor = set(), {}
    counts = [[0] * 5 for _ in meta]
    for unit in units:
        if not isinstance(unit, _StmtUnit):
            evictor.clear()
        for addrs, writes, ids in stream(unit, {}):
            for addr, write, rid in zip(addrs.tolist(), writes.tolist(),
                                        ids.tolist()):
                line = addr // cache.line_bytes
                before = ref.resident_lines()
                row = counts[rid]
                row[0] += 1
                if ref.access(addr, write):
                    row[1] += 1
                    own = evictor.get(line) == meta[rid].array
                    row[2 if line not in seen else 3 if own else 4] += 1
                for victim in before - ref.resident_lines():
                    evictor[victim] = meta[rid].array
                seen.add(line)
    return counts


class TestPerReferenceAttribution:
    """Cold/self/cross per reference, folded or not, match a per-access
    reference replay."""

    @pytest.mark.parametrize("seed", AFFINE_SEEDS)
    def test_matches_reference_replay(self, seed):
        case = random_case(seed, "affine")
        if not case.cache.write_allocate:
            return
        outcome = predict_misses(case.prog, case.layout, case.cache)
        assert [
            [r.accesses, r.misses, r.cold_misses, r.self_conflict_misses,
             r.cross_conflict_misses]
            for r in outcome.require().per_ref
        ] == reference_attribution(case.prog, case.layout, case.cache)

    def test_folding_is_exercised(self):
        folded = [
            seed for seed in AFFINE_SEEDS
            if (case := random_case(seed, "affine")).cache.write_allocate
            and predict_misses(
                case.prog, case.layout, case.cache
            ).require().folded_accesses
        ]
        assert len(folded) >= 20

    @pytest.mark.parametrize("n", [86, 99])
    def test_fold_restores_eviction_records(self, n):
        # A(3*i + 24) is evicted by A(3*i + 152) (one cache size on) in
        # the same block, and A(3*i) re-misses it two blocks later: in
        # the partial tail block after the fold, that self miss is
        # attributed only through the fold's translated eviction records
        # of the second-last folded block.
        prog = parse_program(f"""program p
param N = {n}
real*8 A({3 * n + 216})
do i = 1, N
  A(3*i) = A(3*i + 24) + A(3*i + 152)
end do
end
""")
        layout = original_layout(prog)
        cache = CacheConfig(1024, 32, 1)
        prediction = predict_misses(prog, layout, cache).require()
        assert prediction.folded_accesses
        assert [
            [r.accesses, r.misses, r.cold_misses, r.self_conflict_misses,
             r.cross_conflict_misses]
            for r in prediction.per_ref
        ] == reference_attribution(prog, layout, cache)


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

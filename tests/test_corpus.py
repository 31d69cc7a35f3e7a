"""The seeded program corpus: fixed corpora pinned, random cases repeatable.

The BENCH_7 (JIT) and BENCH_9 (tier 0) gates and the bailout pins are
only comparable across commits while they measure the same programs, so
every fixed-corpus entry's pretty-printed source and cache are pinned by
digest here.  Random cases must be a pure function of (seed, profile).
"""

import hashlib

import pytest

from repro.bench.corpus import (
    PROFILES,
    bailout_case,
    eligible_corpus,
    perf_corpus,
    random_case,
)
from repro.ir.pretty import pretty

pytestmark = [pytest.mark.jit, pytest.mark.predict]

PERF_DIGESTS = {
    "perf_deep4_narrow": "5f7339204c59eea2",
    "perf_deep4_tiny": "1a1d00e3fe94617e",
    "perf_deep3_wide": "7610d1f6f114be5b",
    "perf_deep3_narrow": "48ea20a1582d4560",
    "perf_deep2": "ff2a434463b64434",
}

ELIGIBLE_DIGESTS = {
    "triad_4m": "f3c6a0e07847d440",
    "sweep_2m": "37a8f4a28f412153",
    "stepped_64x1024": "4a28dbcab8631b60",
    "stepped_96x512_a2": "1fbf81e2b3a986fe",
}

BAILOUT_DIGESTS = {
    "triangular": "bb1acfb4cb8d6425",
    "indirect": "6832647d302a799a",
    "imperfect": "ac2dd8b2aaa4f998",
    "symbolic": "a7b4ff546d323f7e",
}


def digest(prog, cache=None) -> str:
    text = pretty(prog)
    if cache is not None:
        text += (f"{cache.size_bytes}/{cache.line_bytes}/"
                 f"{cache.associativity}/{cache.write_allocate}/"
                 f"{cache.write_back}")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_perf_corpus_is_pinned():
    assert {
        prog.name: digest(prog) for prog, _ in perf_corpus()
    } == PERF_DIGESTS


def test_eligible_corpus_is_pinned():
    assert {
        case.name: digest(case.prog, case.cache)
        for case in eligible_corpus()
    } == ELIGIBLE_DIGESTS


@pytest.mark.parametrize("kind", sorted(BAILOUT_DIGESTS))
def test_bailout_case_is_pinned(kind):
    case = bailout_case(kind)
    assert digest(case.prog, case.cache) == BAILOUT_DIGESTS[kind]


def _fingerprint(case):
    layouts = [
        (name, layout.base(name), layout.dim_sizes(name))
        for layout in (case.layout, case.padded_layout)
        for name in (decl.name for decl in case.prog.arrays)
    ]
    return pretty(case.prog), layouts, case.cache, case.has_indirect


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_random_case_is_a_function_of_seed_and_profile(profile):
    for seed in range(12):
        first = random_case(seed, profile, allow_indirect=seed % 2 == 1)
        again = random_case(seed, profile, allow_indirect=seed % 2 == 1)
        assert _fingerprint(first) == _fingerprint(again)
        assert first.name == f"{profile}_{seed}"
    assert len({pretty(random_case(seed, profile).prog).split("\n", 1)[1]
                for seed in range(12)}) == 12


def test_profiles_draw_different_programs_for_one_seed():
    bodies = {
        pretty(random_case(3, profile).prog).split("\n", 1)[1]
        for profile in PROFILES
    }
    assert len(bodies) == len(PROFILES)

"""Differential fuzz battery: JIT stream == interpreter stream, byte for byte.

240 seeded random affine nests (depth 1-4, mixed strides including
negative, multiple arrays and element sizes, perfect/imperfect/sibling/
triangular structures) are traced twice — ``jit="on"`` and ``jit="off"``
— under both an unpadded and a randomly padded layout.  Addresses, write
flags and their order must match exactly; any divergence is a
miscompilation.  The bigger ``slow``-profile tail carries
``pytest.mark.slow``.
"""

import numpy as np
import pytest

from repro.bench.corpus import random_case
from repro.trace.interpreter import trace_addresses

pytestmark = pytest.mark.jit

FAST_SEEDS = range(160)
SLOW_SEEDS = range(1000, 1080)


def assert_streams_identical(case):
    for layout in (case.layout, case.padded_layout):
        addrs_off, writes_off = trace_addresses(case.prog, layout, jit="off")
        addrs_on, writes_on = trace_addresses(case.prog, layout, jit="on")
        assert addrs_on.dtype == addrs_off.dtype
        assert np.array_equal(addrs_on, addrs_off), (
            f"{case.name}: JIT addresses diverge under {layout!r}"
        )
        assert np.array_equal(writes_on, writes_off), (
            f"{case.name}: JIT write flags diverge under {layout!r}"
        )


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_affine_nests_byte_identical(seed):
    assert_streams_identical(random_case(seed, profile="fuzz"))


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_nests_with_indirect_refs_byte_identical(seed):
    # Indirect refs force deopts at the containing nest; the interleaved
    # index-array loads and gathered accesses must still line up exactly.
    assert_streams_identical(
        random_case(seed, profile="fuzz", allow_indirect=True)
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_large_nests_byte_identical(seed):
    assert_streams_identical(random_case(seed, profile="slow"))


def test_corpus_exercises_every_structure():
    """The seeded corpus covers the shapes the battery claims to cover."""
    from repro.ir.loops import Loop, nest_depth

    depths = set()
    saw_negative_step = saw_triangular = saw_indirect = False
    saw_multi_array = False
    for seed in FAST_SEEDS:
        case = random_case(seed, profile="fuzz", allow_indirect=True)
        saw_indirect = saw_indirect or case.has_indirect
        saw_multi_array = saw_multi_array or len(case.prog.decls) > 1
        for node in case.prog.body:
            if isinstance(node, Loop):
                depths.add(nest_depth(node))
                stack = [node]
                while stack:
                    loop = stack.pop()
                    saw_negative_step = saw_negative_step or loop.step < 0
                    saw_triangular = saw_triangular or not (
                        loop.lower.is_constant and loop.upper.is_constant
                    )
                    stack.extend(
                        child for child in loop.body
                        if isinstance(child, Loop)
                    )
    assert {1, 2, 3, 4} <= depths
    assert saw_negative_step and saw_triangular
    assert saw_indirect and saw_multi_array

"""Compiled gather nests: ``X(IDX(e))`` in the affine normal form.

The index data is seeded before a trace starts, so the JIT compiles
gather nests instead of interpreting them.  Pinned here:

* streams are byte-identical under ``jit`` on, auto and off for the
  guarded paper kernels (cgm, su2cor, wave5, expl) under every heuristic,
  and for the fuzz corpus's indirect cases;
* cgm compiles with no ``indirect`` deopt, and the guard's sanitizer
  traces on the compiled path too;
* gather nests cross chunk boundaries exactly;
* a gather that might leave its bounds deopts with ``gather_range``, and
  a bad index raises one error text, after the same chunks, in every mode.
"""

import numpy as np
import pytest

from repro.cache.config import base_cache
from repro.errors import SimulationError
from repro.experiments.runner import Runner
from repro.guard.sanitizer import sanitize
from repro.ir import builder as b
from repro.ir.nest import GATHER_RANGE, NestForm, normalize_nest
from repro.jit import DEOPT_REASONS, make_interpreter
from repro.bench.corpus import random_case
from repro.layout.layout import original_layout
from repro.obs import runtime as obs
from repro.trace.env import DataEnv
from repro.trace.interpreter import trace_addresses

pytestmark = pytest.mark.jit

MODES = ("on", "auto", "off")
GUARDED_KERNELS = ("cgm", "su2cor", "wave5", "expl")
HEURISTICS = ("original", "pad", "padlite")


@pytest.fixture
def metrics():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def counter_total(name, **labels):
    total = 0.0
    for row in obs.snapshot().get("counters", ()):
        if row["name"] != name:
            continue
        if any(row["labels"].get(k) != v for k, v in labels.items()):
            continue
        total += row["value"]
    return total


def assert_modes_agree(prog, layout, seed=12345):
    addrs_off, writes_off = trace_addresses(
        prog, layout, DataEnv(seed=seed), jit="off"
    )
    for jit in ("on", "auto"):
        addrs, writes = trace_addresses(
            prog, layout, DataEnv(seed=seed), jit=jit
        )
        assert addrs.dtype == addrs_off.dtype
        assert np.array_equal(addrs, addrs_off), (prog.name, jit)
        assert np.array_equal(writes, writes_off), (prog.name, jit)
    return len(addrs_off)


def guarded_request(kernel, heuristic):
    runner = Runner()
    request = runner.request_for(kernel, heuristic, base_cache())
    return request, runner.materialize(request)


def gather_nest(outer=8, inner=16):
    """``Y(j, i) = X(IDX(j))`` over an outer x inner box: 3 columns."""
    prog = b.program(
        "gathers",
        decls=[b.real8("X", 32), b.real8("Y", inner, outer),
               b.int4("IDX", inner)],
        body=[b.loop("i", 1, outer, [
            b.loop("j", 1, inner, [
                b.stmt(b.w("Y", "j", "i"), b.r("X", b.indirect("IDX", "j"))),
            ]),
        ])],
    )
    return prog, original_layout(prog)


def chunks_until_error(prog, layout, jit, chunk_target=64):
    """(chunks emitted, error text) of a trace that must fail."""
    chunks = []
    interp = make_interpreter(prog, layout, chunk_target=chunk_target, jit=jit)
    with pytest.raises(SimulationError) as info:
        for addrs, writes in interp.trace():
            chunks.append((addrs.copy(), writes.copy()))
    return chunks, str(info.value)


class TestStreamsAreByteIdentical:
    @pytest.mark.parametrize("heuristic", HEURISTICS)
    @pytest.mark.parametrize("kernel", GUARDED_KERNELS)
    def test_guarded_kernels(self, kernel, heuristic):
        request, (prog, layout) = guarded_request(kernel, heuristic)
        assert assert_modes_agree(prog, layout, request.seed) > 0

    def test_fuzz_corpus_indirect_cases(self):
        cases = [random_case(seed, allow_indirect=True) for seed in range(400)]
        picked = [case for case in cases if case.has_indirect]
        assert len(picked) >= 300, "corpus stopped generating indirect refs"
        for case in picked:
            for layout in (case.layout, case.padded_layout):
                assert_modes_agree(case.prog, layout)


class TestGatherNestsCompile:
    def test_cgm_compiles_without_indirect_deopts(self, metrics):
        _, (prog, layout) = guarded_request("cgm", "pad")
        gather_head = prog.body[0]
        form = normalize_nest(gather_head, prog, layout)
        assert isinstance(form, NestForm) and len(form.gathers) == 1
        list(make_interpreter(prog, layout, jit="on").trace())
        assert counter_total("repro_jit_deopt_total", reason="indirect") == 0
        assert counter_total(
            "repro_jit_deopt_total", reason=GATHER_RANGE) == 0
        assert counter_total("repro_jit_compiled_total") >= 1

    def test_sanitizer_traces_on_the_compiled_path(self, metrics):
        request, (prog, layout) = guarded_request("cgm", "pad")
        baseline = original_layout(prog)
        assert sanitize(prog, layout, baseline, seed=request.seed,
                        jit="on") == []
        # Both cgm nests compile, under both layouts.
        assert counter_total("repro_jit_compiled_total") == 4
        assert counter_total("repro_jit_deopt_total") == 0
        obs.reset()
        assert sanitize(prog, layout, baseline, seed=request.seed,
                        jit="off") == []
        assert counter_total("repro_jit_compiled_total") == 0

    def test_gather_range_is_a_runtime_deopt_reason(self):
        assert GATHER_RANGE in DEOPT_REASONS
        assert "indirect" not in DEOPT_REASONS


class TestChunkBoundaries:
    @pytest.mark.parametrize("delta", (-1, 0, 1))
    def test_gather_blocks_cross_chunks_exactly(self, delta):
        prog, layout = gather_nest()  # 8*16 iterations x 3 columns = 384
        target = 64 + delta
        chunks = list(
            make_interpreter(prog, layout, chunk_target=target, jit="on")
            .trace()
        )
        sizes = [len(addrs) for addrs, _ in chunks]
        assert len(sizes) > 1 and all(sizes)
        assert all(size >= target for size in sizes[:-1]), sizes
        addrs_off, writes_off = trace_addresses(prog, layout, jit="off")
        assert np.array_equal(
            np.concatenate([addrs for addrs, _ in chunks]), addrs_off
        )
        assert np.array_equal(
            np.concatenate([writes for _, writes in chunks]), writes_off
        )


class TestGatherRange:
    def test_out_of_range_value_deopts_and_the_interpreter_raises(
        self, metrics
    ):
        prog, layout = gather_nest()
        env = DataEnv()
        env.set_values("IDX", [33] + [1] * 15)  # X is 1..32
        interp = make_interpreter(prog, layout, env, jit="on")
        with pytest.raises(SimulationError) as info:
            list(interp.trace())
        assert str(info.value) == (
            "index array 'IDX' yields subscript 33 outside [1, 32] "
            "for X(IDX(j))"
        )
        assert counter_total(
            "repro_jit_deopt_total", reason=GATHER_RANGE) >= 1
        assert counter_total("repro_jit_compiled_total") == 0

    def test_unread_bad_value_deopts_but_traces_exactly(self, metrics):
        # The window check is conservative: the bad value sits at a
        # position the stride-2 gather never reads, so the nest deopts
        # and the interpreter traces it without error.
        prog = b.program(
            "strided",
            decls=[b.real8("X", 8), b.real8("Y", 8), b.int4("IDX", 16)],
            body=[b.loop("i", 1, 8, [
                b.stmt(b.w("Y", "i"),
                       b.r("X", b.indirect("IDX", b.idx("i", -1, coef=2)))),
            ])],
        )
        layout = original_layout(prog)
        env = DataEnv()
        env.set_values("IDX", [1, 99] * 8)  # odd positions are never read
        addrs_on, _ = trace_addresses(prog, layout, env, jit="on")
        assert counter_total(
            "repro_jit_deopt_total", reason=GATHER_RANGE) == 1
        addrs_off, _ = trace_addresses(prog, layout, env, jit="off")
        assert np.array_equal(addrs_on, addrs_off)


class TestBadIndexText:
    """``IDX(0)`` on ``IDX(1:8)``: one text and the same chunks, any mode."""

    def program(self, bad):
        prog = b.program(
            "badidx",
            decls=[b.real8("A", 32, 32), b.real8("X", 8), b.int4("IDX", 8)],
            body=[
                # 8*16 iterations x 2 refs: four full chunks of 64.
                b.loop("i", 1, 8, [
                    b.loop("j", 1, 16, [
                        b.stmt(b.w("A", "j", "i"),
                               b.r("A", b.idx("j", 1), "i")),
                    ]),
                ]),
                bad,
            ],
        )
        return prog, original_layout(prog)

    @pytest.mark.parametrize("where", ("statement", "loop"))
    def test_same_text_and_chunks_in_every_mode(self, where):
        if where == "statement":
            bad = b.stmt(b.w("X", b.indirect("IDX", b.const(0))))
            ref = "X(IDX(0))"
        else:
            bad = b.loop("k", 0, 8, [
                b.stmt(b.w("X", b.indirect("IDX", "k"))),
            ])
            ref = "X(IDX(k))"
        prog, layout = self.program(bad)
        results = {jit: chunks_until_error(prog, layout, jit) for jit in MODES}
        off_chunks, off_text = results["off"]
        assert off_text == (
            f"index array 'IDX' read at subscript 0 outside its bounds "
            f"[1, 8] for {ref}"
        )
        assert [len(addrs) for addrs, _ in off_chunks] == [64] * 4
        for jit in ("on", "auto"):
            chunks, text = results[jit]
            assert text == off_text, jit
            assert len(chunks) == len(off_chunks), jit
            for (addrs, writes), (want_a, want_w) in zip(chunks, off_chunks):
                assert np.array_equal(addrs, want_a), jit
                assert np.array_equal(writes, want_w), jit

    def test_several_offending_subscripts_are_listed(self):
        prog = b.program(
            "wide",
            decls=[b.real8("X", 8), b.int4("IDX", 8)],
            body=[b.loop("k", -2, 11, [
                b.stmt(b.w("X", b.indirect("IDX", "k"))),
            ])],
        )
        layout = original_layout(prog)
        texts = set()
        for jit in MODES:
            with pytest.raises(SimulationError) as info:
                trace_addresses(prog, layout, jit=jit)
            texts.add(str(info.value))
        assert texts == {
            "index array 'IDX' read at subscripts -2, -1, 0, 9, ... outside "
            "its bounds [1, 8] for X(IDX(k))"
        }

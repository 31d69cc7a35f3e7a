"""Property tests for the trace JIT.

Pinned properties, per ISSUE 7:

* ``count_accesses()`` equals the traced stream length under both paths;
* a deopt mid-nest (indirect ref at a random depth) never drops,
  duplicates or reorders accesses;
* chunk boundaries at exactly ``chunk_target`` and ``chunk_target±1``
  flush correctly;
* the hotness policy, deopt reasons and ``repro_jit_*`` counters behave
  as documented, and ``jit="off"`` is the plain interpreter with no jit
  counters at all.
"""

import numpy as np
import pytest

from repro import simulate_program
from repro.cache.config import base_cache
from repro.cache.fastsim import FastDirectMapped, make_simulator
from repro.cache.sim import ReferenceCache
from repro.errors import ConfigError
from repro.ir import builder as b
from repro.ir.nest import NestForm, normalize_nest
from repro.jit import (
    DEOPT_REASONS,
    JitConfig,
    JitInterpreter,
    make_interpreter,
    resolve_mode,
)
from repro.bench.corpus import random_case
from repro.layout.layout import original_layout
from repro.obs import runtime as obs
from repro.trace.interpreter import TraceInterpreter, trace_addresses

pytestmark = pytest.mark.jit


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


def two_ref_nest(outer_trips=8, inner_trips=16):
    prog = b.program(
        "chunky",
        decls=[b.real8("A", 32, 32)],
        body=[b.loop("i", 1, outer_trips, [
            b.loop("j", 1, inner_trips, [
                b.stmt(b.w("A", "j", "i"), b.r("A", b.idx("j", 1), "i")),
            ]),
        ])],
    )
    return prog, original_layout(prog)


class TestCountAccesses:
    @pytest.mark.parametrize("seed", range(0, 40, 4))
    @pytest.mark.parametrize("indirect", (False, True))
    def test_count_matches_stream_both_paths(self, seed, indirect):
        case = random_case(seed, allow_indirect=indirect)
        stream_len = len(trace_addresses(case.prog, case.layout, jit="off")[0])
        for jit in ("off", "on", "auto"):
            interp = make_interpreter(case.prog, case.layout, jit=jit)
            assert interp.count_accesses() == stream_len


class TestDeoptNeverReordersTheStream:
    def indirect_cases(self):
        cases = [
            random_case(seed, allow_indirect=True) for seed in range(48)
        ]
        picked = [case for case in cases if case.has_indirect]
        assert len(picked) >= 8, "corpus stopped generating indirect refs"
        return picked

    def test_indirect_injection_preserves_the_stream(self):
        for case in self.indirect_cases()[:8]:
            addrs_off, writes_off = trace_addresses(
                case.prog, case.layout, jit="off"
            )
            addrs_on, writes_on = trace_addresses(
                case.prog, case.layout, jit="on"
            )
            assert np.array_equal(addrs_on, addrs_off)
            assert np.array_equal(writes_on, writes_off)

    def test_indirect_nests_count_a_deopt(self, metrics):
        # Gathers compile: the perfect gather nest heading this case is
        # served by a compiled generator, with no deopt of any kind, and
        # the stream still equals the interpreter's.
        case = self.indirect_cases()[0]
        head = case.prog.body[0]
        form = normalize_nest(head, case.prog, case.layout)
        assert isinstance(form, NestForm) and form.gathers
        chunks = list(
            make_interpreter(case.prog, case.layout, jit="on").trace()
        )
        assert counter_total("repro_jit_deopt_total", reason="indirect") == 0
        assert counter_total(
            "repro_jit_deopt_total", reason="gather_range") == 0
        assert counter_total("repro_jit_compiled_total") >= 1
        addrs_off, writes_off = trace_addresses(
            case.prog, case.layout, jit="off"
        )
        assert np.array_equal(
            np.concatenate([addrs for addrs, _ in chunks]), addrs_off
        )
        assert np.array_equal(
            np.concatenate([writes for _, writes in chunks]), writes_off
        )


class TestChunkBoundaries:
    @pytest.mark.parametrize("delta", (-1, 0, 1))
    @pytest.mark.parametrize("chunk_target", (64, 256))
    def test_flushes_at_target_and_off_by_one(self, chunk_target, delta):
        prog, layout = two_ref_nest()  # 8*16 iterations x 2 refs = 256
        target = chunk_target + delta
        chunks = list(
            make_interpreter(prog, layout, chunk_target=target, jit="on")
            .trace()
        )
        sizes = [len(addrs) for addrs, _ in chunks]
        assert all(sizes), "empty chunk emitted"
        assert all(size >= target for size in sizes[:-1]), (
            f"non-final chunk below chunk_target: {sizes}"
        )
        flat = np.concatenate([addrs for addrs, _ in chunks])
        flat_writes = np.concatenate([writes for _, writes in chunks])
        addrs_off, writes_off = trace_addresses(prog, layout, jit="off")
        assert np.array_equal(flat, addrs_off)
        assert np.array_equal(flat_writes, writes_off)

    def test_exact_target_splits_evenly(self):
        prog, layout = two_ref_nest()
        chunks = list(
            make_interpreter(prog, layout, chunk_target=64, jit="on").trace()
        )
        assert [len(addrs) for addrs, _ in chunks] == [64, 64, 64, 64]


class TestHotnessPolicy:
    def cold_inner_program(self, outer_trips=20):
        # The outer level is imperfect (statement + loop), so it always
        # deopts; the tiny inner nest (4 accesses/entry) is entered once
        # per outer iteration and must earn compilation by repetition.
        return b.program(
            "coldhot",
            decls=[b.real8("A", 8, 32), b.real8("S", 4)],
            body=[b.loop("i", 1, outer_trips, [
                b.stmt(b.w("S", 1)),
                b.loop("j", 1, 4, [
                    b.stmt(b.w("A", "j", "i"), b.r("A", b.idx("j", 1), "i")),
                ]),
            ])],
        )

    def test_auto_compiles_after_hot_invocations(self, metrics):
        prog = self.cold_inner_program()
        layout = original_layout(prog)
        config = JitConfig(mode="auto", compile_threshold=512,
                           hot_invocations=8)
        interp = JitInterpreter(prog, layout, config=config)
        list(interp.trace())
        assert counter_total("repro_jit_deopt_total", reason="cold") == 7
        assert counter_total("repro_jit_deopt_total", reason="imperfect") == 1
        assert counter_total("repro_jit_compiled_total") == 13

    def test_mode_on_compiles_immediately(self, metrics):
        prog = self.cold_inner_program()
        layout = original_layout(prog)
        list(make_interpreter(prog, layout, jit="on").trace())
        assert counter_total("repro_jit_deopt_total", reason="cold") == 0
        assert counter_total("repro_jit_compiled_total") == 20

    def test_mode_off_is_the_plain_interpreter(self, metrics):
        prog, layout = two_ref_nest()
        interp = make_interpreter(prog, layout, jit="off")
        assert type(interp) is TraceInterpreter
        list(interp.trace())
        assert counter_total("repro_jit_compiled_total") == 0
        assert counter_total("repro_jit_deopt_total") == 0
        assert counter_total("repro_jit_chunks_total") == 0

    def test_compiled_nests_count_chunks(self, metrics):
        prog, layout = two_ref_nest()
        list(make_interpreter(prog, layout, chunk_target=64, jit="on")
             .trace())
        assert counter_total("repro_jit_compiled_total") == 1
        assert counter_total("repro_jit_chunks_total") == 4


class TestDeoptReasons:
    def test_triangular_bounds_deopt_but_inner_nest_compiles(self, metrics):
        prog = b.program(
            "tri",
            decls=[b.real8("A", 64, 64)],
            body=[b.loop("i", 1, 16, [
                b.loop("j", "i", 16, [   # lower bound uses i: symbolic
                    b.loop("k", 1, 8, [b.stmt(b.w("A", "k", "j"))]),
                ]),
            ])],
        )
        layout = original_layout(prog)
        addrs_on, _ = trace_addresses(prog, layout, jit="on")
        addrs_off, _ = trace_addresses(prog, layout, jit="off")
        assert np.array_equal(addrs_on, addrs_off)
        assert counter_total(
            "repro_jit_deopt_total", reason="symbolic_bounds") >= 1
        assert counter_total("repro_jit_compiled_total") >= 1

    def test_specialize_reports_static_reasons(self):
        prog = b.program(
            "reasons",
            decls=[b.real8("A", 16, 16), b.int4("IDX", 16)],
            body=[
                b.loop("i", 1, 8, [
                    b.stmt(b.w("A", 1, "i")),
                    b.loop("j", 1, 8, [b.stmt(b.w("A", "j", "i"))]),
                ]),
                b.loop("m", 1, 8, [
                    b.loop("n", "m", 8, [b.stmt(b.w("A", "n", "m"))]),
                ]),
                b.loop("p", 1, 8, [
                    b.stmt(b.r("A", b.indirect("IDX", "p"), 1)),
                ]),
            ],
        )
        layout = original_layout(prog)
        imperfect, symbolic, indirect = prog.body
        assert normalize_nest(imperfect, prog, layout) == "imperfect"
        assert normalize_nest(symbolic, prog, layout) == "symbolic_bounds"
        form = normalize_nest(indirect, prog, layout)
        assert isinstance(form, NestForm)
        # One gather term: the IDX(p) load column, then the written A
        # column it offsets by (IDX(p) - 1) * 8 bytes.
        assert form.flags.tolist() == [False, True]
        (term,) = form.gathers
        assert term.column == 1
        assert term.gather.array == "IDX"
        assert term.coeffs.tolist() == [1]
        assert (term.gather.stride, term.gather.lower,
                term.gather.upper) == (8, 1, 16)
        for reason in ("imperfect", "symbolic_bounds", "gather_range"):
            assert reason in DEOPT_REASONS
        assert "indirect" not in DEOPT_REASONS

    def test_zero_trip_nests_emit_nothing(self):
        prog = b.program(
            "empty",
            decls=[b.real8("A", 8)],
            body=[b.loop("i", 5, 4, [b.stmt(b.w("A", 1))])],
        )
        layout = original_layout(prog)
        for jit in ("on", "off"):
            assert len(trace_addresses(prog, layout, jit=jit)[0]) == 0


class TestModeResolution:
    def test_resolve_mode_accepts_aliases(self):
        assert resolve_mode("on") == "on"
        assert resolve_mode("OFF") == "off"
        assert resolve_mode(None) == "auto"
        assert resolve_mode(True) == "on"
        assert resolve_mode(False) == "off"

    def test_resolve_mode_rejects_garbage(self):
        with pytest.raises(ConfigError, match="jit mode"):
            resolve_mode("sometimes")

    def test_jit_interpreter_rejects_off_mode(self):
        prog, layout = two_ref_nest()
        with pytest.raises(ConfigError):
            JitInterpreter(prog, layout, config=JitConfig(mode="off"))

    def test_simulate_program_rejects_bad_mode(self):
        prog, layout = two_ref_nest()
        with pytest.raises(ConfigError):
            simulate_program(prog, layout, jit="sideways")


class TestAccessStream:
    @pytest.mark.parametrize("engine", (
        lambda: make_simulator(base_cache()),
        lambda: ReferenceCache(base_cache()),
        lambda: FastDirectMapped(base_cache()),
    ))
    def test_access_stream_equals_chunk_loop(self, engine):
        prog, layout = two_ref_nest()
        chunks = list(make_interpreter(prog, layout, jit="on").trace())
        streamed = engine()
        streamed.access_stream(iter(chunks))
        looped = engine()
        for addrs, writes in chunks:
            looped.access_chunk(addrs, writes)
        assert streamed.stats == looped.stats
        assert streamed.stats.accesses == sum(len(a) for a, _ in chunks)

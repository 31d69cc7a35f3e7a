"""Semantic sanitizer: transformed layouts must touch the same cells."""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.corpus import random_case
from repro.cache.config import CacheConfig
from repro.guard import sanitize
from repro.guard import sanitizer as sanitizer_mod
from repro.guard.config import GuardViolation
from repro.guard.sanitizer import _Inverter, cell_stream
from repro.optimize.search import vet_layout
from repro.layout.layout import original_layout
from repro.padding.common import PadParams
from repro.padding.drivers import pad, padlite

from tests.conftest import jacobi_program, vector_sum_program

PAPER_PARAMS = PadParams.for_cache(CacheConfig(2048, 4, 1))


def kinds(violations):
    return {v.kind for v in violations}


class TestCellStream:
    def test_deterministic_under_seed(self):
        prog = jacobi_program(64)
        layout = original_layout(prog)
        first = cell_stream(prog, layout, seed=7, limit=1 << 20)
        second = cell_stream(prog, layout, seed=7, limit=1 << 20)
        for a, b in zip(first[:3], second[:3]):
            assert np.array_equal(a, b)

    def test_limit_truncates(self):
        prog = jacobi_program(64)
        layout = original_layout(prog)
        ids, cells, writes, oob, touched, truncated = cell_stream(
            prog, layout, seed=7, limit=100
        )
        assert truncated
        assert len(ids) == len(cells) == len(writes) == 100

    def test_clean_trace_stays_in_bounds(self):
        prog = jacobi_program(64)
        _, _, _, oob, touched, _ = cell_stream(
            prog, original_layout(prog), seed=7, limit=1 << 20
        )
        assert oob == 0 and touched == 0


class TestSanitize:
    def test_padding_preserves_semantics(self):
        # The real drivers must sail through their own guard.
        for driver in (pad, padlite):
            result = driver(jacobi_program(128), PAPER_PARAMS)
            violations = sanitize(
                result.prog, result.layout, original_layout(result.prog),
                reference_layout=result.layout,
            )
            assert violations == [], driver.__name__

    def test_swapped_bases_caught_with_reference(self):
        # Swapping two same-size arrays' bases keeps the layout
        # self-consistent — only the committed reference exposes it.
        result = pad(jacobi_program(64), PAPER_PARAMS)
        reference = result.layout.copy()
        result.layout._bases["A"], result.layout._bases["B"] = (
            result.layout._bases["B"], result.layout._bases["A"],
        )
        clean = sanitize(
            result.prog, result.layout, original_layout(result.prog)
        )
        caught = sanitize(
            result.prog, result.layout, original_layout(result.prog),
            reference_layout=reference,
        )
        assert clean == []  # self-inversion is blind to the swap...
        assert "cell_mismatch" in kinds(caught)  # ...the reference is not

    def test_shifted_base_caught_with_reference(self):
        result = pad(vector_sum_program(64), PAPER_PARAMS)
        reference = result.layout.copy()
        last = max(
            (d.name for d in result.prog.arrays),
            key=result.layout.base,
        )
        result.layout._bases[last] += 8  # one real*8 element
        caught = sanitize(
            result.prog, result.layout, original_layout(result.prog),
            reference_layout=reference,
        )
        assert caught
        assert kinds(caught) & {"cell_mismatch", "out_of_bounds", "pad_touched"}

    def test_interleaved_layout_is_a_cell_mismatch(self):
        # A layout where A occupies B's memory touches the wrong cells
        # even without a committed reference.
        prog = jacobi_program(32)
        layout = original_layout(prog)
        reference = layout.copy()
        layout._bases["A"], layout._bases["B"] = (
            layout._bases["B"], layout._bases["A"],
        )
        caught = sanitize(
            prog, layout, original_layout(prog), reference_layout=reference
        )
        assert "cell_mismatch" in kinds(caught)

    def test_message_names_first_divergence(self):
        result = pad(jacobi_program(64), PAPER_PARAMS)
        reference = result.layout.copy()
        result.layout._bases["A"], result.layout._bases["B"] = (
            result.layout._bases["B"], result.layout._bases["A"],
        )
        caught = sanitize(
            result.prog, result.layout, original_layout(result.prog),
            reference_layout=reference,
        )
        mismatch = [v for v in caught if v.kind == "cell_mismatch"]
        assert mismatch and "first at access" in mismatch[0].message


# -- the inverter against a per-address decoder ----------------------------

def scalar_invert(prog, layout, addr):
    """(id, cell) of one address, decoded one variable at a time.

    -1/-1 outside every placed variable; cell -2 inside padding.
    """
    for index, decl in enumerate(prog.decls):
        if not layout.has_base(decl.name):
            continue
        base = layout.base(decl.name)
        if not base <= addr < base + layout.size_bytes(decl.name):
            continue
        if not hasattr(decl, "dims"):  # a scalar is one cell
            return index, 0
        flat = (addr - base) // decl.element_size
        cell, stride = 0, 1
        for padded, declared in zip(layout.dim_sizes(decl.name),
                                    decl.dim_sizes):
            coord, flat = flat % padded, flat // padded
            if coord >= declared:
                return index, -2
            cell += coord * stride
            stride *= declared
        return index, cell
    return -1, -1


def probe_addresses(prog, layout, rng):
    """Slot edges, padding cells, interior cells and unplaced gaps."""
    addrs = []
    placed = [d for d in prog.decls if layout.has_base(d.name)]
    for decl in placed:
        base = layout.base(decl.name)
        end = base + layout.size_bytes(decl.name)
        addrs += [base - 1, base, end - 1, end]
        addrs += [rng.randrange(base, end) for _ in range(20)]
        if hasattr(decl, "dims"):
            element = decl.element_size
            padded = layout.dim_sizes(decl.name)
            for dim, declared in enumerate(decl.dim_sizes):
                if padded[dim] > declared:
                    # first padding cell along ``dim``, other coords zero
                    stride = element
                    for size in padded[:dim]:
                        stride *= size
                    addrs.append(base + declared * stride)
    top = max(layout.base(d.name) + layout.size_bytes(d.name) for d in placed)
    addrs += [-8, top, top + 4096]
    addrs += [rng.randrange(-64, top + 64) for _ in range(200)]
    return np.array(addrs, dtype=np.int64)


class TestInverterDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_scalar_decoder(self, seed):
        case = random_case(seed, "fuzz", allow_indirect=seed % 3 == 0)
        rng = random.Random(seed)
        for layout in (case.layout, case.padded_layout):
            addrs = probe_addresses(case.prog, layout, rng)
            expected = [scalar_invert(case.prog, layout, int(a)) for a in addrs]
            ids, cells, oob, touched = _Inverter(case.prog, layout).invert(addrs)
            assert list(zip(ids.tolist(), cells.tolist())) == expected
            assert oob == sum(i == -1 for i, _ in expected)
            assert touched == sum(c == -2 for _, c in expected)

    def test_probes_reach_padding_and_gaps(self):
        # The battery above is only as good as what it probes.
        touched = oob = 0
        for seed in range(40):
            case = random_case(seed, "fuzz", allow_indirect=seed % 3 == 0)
            addrs = probe_addresses(case.prog, case.padded_layout,
                                    random.Random(seed))
            _, _, out, pad = _Inverter(case.prog, case.padded_layout).invert(addrs)
            touched += pad
            oob += out
        assert touched > 100 and oob > 100


# -- the streaming comparison ----------------------------------------------

def rechunk(monkeypatch, baseline, sizes, edits=None):
    """Serve the baseline and transformed traces in chunks of ``sizes``.

    ``edits`` maps "base"/"moved" to ``fn(addrs, writes)`` applied to the
    whole trace first.  Returns the pull log: one ``(stream, accesses
    already pulled from it, accesses pulled from the other)`` per chunk.
    """
    real = sanitizer_mod.make_interpreter
    pulled = {"base": 0, "moved": 0}
    log = []

    def fake(prog, layout, env, jit="auto"):
        name = "base" if layout is baseline else "moved"
        chunks = list(real(prog, layout, env, jit=jit).trace())
        addrs = np.concatenate([c[0] for c in chunks])
        writes = np.concatenate([c[1] for c in chunks])
        if edits and name in edits:
            addrs, writes = edits[name](addrs.copy(), writes.copy())
        size = sizes[name]

        def trace():
            other = "moved" if name == "base" else "base"
            for start in range(0, len(addrs), size):
                log.append((name, start, pulled[other]))
                pulled[name] = min(start + size, len(addrs))
                yield addrs[start:start + size], writes[start:start + size]

        return SimpleNamespace(trace=trace)

    monkeypatch.setattr(sanitizer_mod, "make_interpreter", fake)
    return log


def swapped_pad():
    """A padded jacobi with A's and B's bases swapped, plus its reference."""
    result = pad(jacobi_program(64), PAPER_PARAMS)
    reference = result.layout.copy()
    result.layout._bases["A"], result.layout._bases["B"] = (
        result.layout._bases["B"], result.layout._bases["A"],
    )
    return result.prog, result.layout, reference


class TestStreaming:
    @pytest.mark.parametrize("sizes", [(1000, 1000), (1000, 777), (37, 1000)])
    def test_never_more_than_one_chunk_ahead(self, monkeypatch, sizes):
        result = pad(jacobi_program(64), PAPER_PARAMS)
        baseline = original_layout(result.prog)
        log = rechunk(monkeypatch, baseline,
                      {"base": sizes[0], "moved": sizes[1]})
        assert sanitize(result.prog, result.layout, baseline,
                        reference_layout=result.layout) == []
        assert {name for name, _, _ in log} == {"base", "moved"}
        assert len(log) > 40
        # A stream is pulled again only once everything it yielded has
        # been compared, so it never holds more than the chunk it is on.
        for name, already, other in log:
            assert already <= other, (name, already, other)

    @pytest.mark.parametrize("limit", [1 << 20, 5000])
    @pytest.mark.parametrize("sizes", [(1000, 777), (777, 1000), (37, 4096)])
    def test_misaligned_chunks_give_the_same_violations(
        self, monkeypatch, sizes, limit
    ):
        prog, layout, reference = swapped_pad()
        baseline = original_layout(prog)
        aligned = sanitize(prog, layout, baseline, limit=limit,
                           reference_layout=reference)
        assert "cell_mismatch" in kinds(aligned)
        rechunk(monkeypatch, baseline, {"base": sizes[0], "moved": sizes[1]})
        assert sanitize(prog, layout, baseline, limit=limit,
                        reference_layout=reference) == aligned

    SIZES = {"base": 1000, "moved": 777}

    def test_length_mismatch_returns_before_the_cell_comparison(
        self, monkeypatch
    ):
        result = pad(jacobi_program(64), PAPER_PARAMS)
        baseline = original_layout(result.prog)

        def shorten(addrs, writes):
            addrs[1000] = addrs[0]  # a cell divergence that must not report
            return addrs[:-5], writes[:-5]

        rechunk(monkeypatch, baseline, self.SIZES, {"moved": shorten})
        violations = sanitize(result.prog, result.layout, baseline,
                              reference_layout=result.layout)
        assert violations == [
            GuardViolation(
                "length_mismatch", "sanitizer",
                "transformed trace has 26903 accesses, baseline has 26908",
            )
        ]

    def test_write_mismatch_across_a_chunk_boundary(self, monkeypatch):
        result = pad(jacobi_program(64), PAPER_PARAMS)
        baseline = original_layout(result.prog)

        def flip(addrs, writes):
            writes[[1000, 2000]] ^= True
            return addrs, writes

        rechunk(monkeypatch, baseline, self.SIZES, {"moved": flip})
        violations = sanitize(result.prog, result.layout, baseline,
                              reference_layout=result.layout)
        assert violations == [
            GuardViolation(
                "write_mismatch", "sanitizer",
                "read/write pattern diverges at access 1000",
            )
        ]

    def test_truncated_prefix_cell_mismatch_text(self, monkeypatch):
        result = pad(jacobi_program(64), PAPER_PARAMS)
        baseline = original_layout(result.prog)
        ids, cells, *_ = cell_stream(result.prog, baseline, seed=12345,
                                     limit=1 << 20)
        assert (ids[2999], cells[2999]) != (ids[3000], cells[3000])

        def repeat(addrs, writes):
            addrs[[3000, 4500]] = addrs[[2999, 4499]]
            return addrs, writes

        rechunk(monkeypatch, baseline, self.SIZES, {"moved": repeat})
        violations = sanitize(result.prog, result.layout, baseline,
                              limit=20000, reference_layout=result.layout)
        names = [d.name for d in result.prog.decls]
        assert violations == [
            GuardViolation(
                "cell_mismatch", "sanitizer",
                f"2 of 20000 (prefix) accesses touch different cells; "
                f"first at access 3000: baseline "
                f"{names[ids[3000]]}[{cells[3000]}] vs transformed "
                f"{names[ids[2999]]}[{cells[2999]}]",
            )
        ]


class TestTracerFailure:
    def test_an_interpreter_crash_is_one_violation(self, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(sanitizer_mod, "make_interpreter", crash)
        prog = jacobi_program(32)
        expected = [
            GuardViolation(
                "out_of_bounds", "sanitizer",
                "trace interpretation failed: RuntimeError: boom",
            )
        ]
        layout = original_layout(prog)
        assert sanitize(prog, layout, layout) == expected
        assert vet_layout(prog, layout) == expected

    def test_memory_error_is_not_a_verdict(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(sanitizer_mod, "make_interpreter", exhausted)
        prog = jacobi_program(32)
        layout = original_layout(prog)
        with pytest.raises(MemoryError):
            sanitize(prog, layout, layout)

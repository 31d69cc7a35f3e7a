"""Tests for the trace interpreter."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.frontend import parse_program
from repro.ir import builder as b
from repro.ir.types import ElementType
from repro.layout import original_layout
from repro.trace import (
    DataEnv,
    TraceInterpreter,
    trace_addresses,
    trace_program,
    truncate_outer_loops,
)
from tests.conftest import jacobi_program


class TestBasicOrdering:
    def test_reads_before_write_per_iteration(self):
        prog = b.program(
            "p",
            decls=[b.real8("A", 4), b.real8("B", 4)],
            body=[b.loop("i", 1, 4, [b.stmt(b.w("B", "i"), b.r("A", "i"))])],
        )
        lay = original_layout(prog)
        addrs, writes = trace_addresses(prog, lay)
        assert len(addrs) == 8
        # Interleaved: A(1) B(1) A(2) B(2) ...
        assert list(writes) == [False, True] * 4
        assert addrs[0] == lay.base("A")
        assert addrs[1] == lay.base("B")
        assert addrs[2] == lay.base("A") + 8

    def test_statement_order_within_iteration(self):
        prog = b.program(
            "p",
            decls=[b.real8("A", 4), b.real8("B", 4)],
            body=[
                b.loop("i", 1, 2, [
                    b.stmt(b.w("A", "i")),
                    b.stmt(b.w("B", "i")),
                ]),
            ],
        )
        lay = original_layout(prog)
        addrs, _ = trace_addresses(prog, lay)
        assert list(addrs) == [
            lay.base("A"), lay.base("B"),
            lay.base("A") + 8, lay.base("B") + 8,
        ]

    def test_column_major_walk(self):
        prog = b.program(
            "p",
            decls=[b.real8("A", 3, 2)],
            body=[
                b.loop("i", 1, 2, [
                    b.loop("j", 1, 3, [b.stmt(b.w("A", "j", "i"))]),
                ]),
            ],
        )
        addrs, _ = trace_addresses(prog, original_layout(prog))
        assert list(addrs) == [0, 8, 16, 24, 32, 40]

    def test_top_level_statement(self):
        prog = b.program(
            "p",
            decls=[b.real8("A", 4)],
            body=[b.stmt(b.w("A", 2))],
        )
        addrs, writes = trace_addresses(prog, original_layout(prog))
        assert list(addrs) == [8]
        assert list(writes) == [True]

    def test_mixed_body_loop(self):
        """A loop whose body mixes statements and loops takes the slow path."""
        prog = b.program(
            "p",
            decls=[b.real8("A", 4), b.real8("B", 4, 4)],
            body=[
                b.loop("i", 1, 2, [
                    b.stmt(b.r("A", "i")),
                    b.loop("j", 1, 2, [b.stmt(b.w("B", "j", "i"))]),
                ]),
            ],
        )
        lay = original_layout(prog)
        addrs, writes = trace_addresses(prog, lay)
        base_b = lay.base("B")
        assert list(addrs) == [
            lay.base("A"), base_b, base_b + 8,
            lay.base("A") + 8, base_b + 32, base_b + 40,
        ]


class TestBounds:
    def test_triangular_loops(self):
        prog = b.program(
            "p",
            decls=[b.real8("A", 4, 4)],
            body=[
                b.loop("k", 1, 3, [
                    b.loop("i", b.idx("k", 1), 3, [b.stmt(b.w("A", "i", "k"))]),
                ]),
            ],
        )
        addrs, _ = trace_addresses(prog, original_layout(prog))
        expected = []
        for k in range(1, 4):
            for i in range(k + 1, 4):
                expected.append((i - 1) * 8 + (k - 1) * 32)
        assert list(addrs) == expected

    def test_negative_step(self):
        prog = b.program(
            "p",
            decls=[b.real8("A", 4)],
            body=[b.loop("i", 4, 1, [b.stmt(b.w("A", "i"))], step=-1)],
        )
        addrs, _ = trace_addresses(prog, original_layout(prog))
        assert list(addrs) == [24, 16, 8, 0]

    def test_stride_2(self):
        prog = b.program(
            "p",
            decls=[b.real8("A", 8)],
            body=[b.loop("i", 1, 8, [b.stmt(b.w("A", "i"))], step=2)],
        )
        addrs, _ = trace_addresses(prog, original_layout(prog))
        assert list(addrs) == [0, 16, 32, 48]

    def test_empty_range(self):
        prog = b.program(
            "p",
            decls=[b.real8("A", 4)],
            body=[b.loop("i", 3, 2, [b.stmt(b.w("A", "i"))])],
        )
        addrs, _ = trace_addresses(prog, original_layout(prog))
        assert len(addrs) == 0


class TestPaddedLayouts:
    def test_padded_column_changes_addresses(self):
        prog = jacobi_program(8)
        lay = original_layout(prog)
        padded = lay.copy()
        padded.set_dim_sizes("A", (10, 8))
        # Rebase B since A grew.
        padded.set_base("B", padded.size_bytes("A"))
        addrs_orig, _ = trace_addresses(prog, lay)
        addrs_pad, _ = trace_addresses(prog, padded)
        assert len(addrs_orig) == len(addrs_pad)
        assert not np.array_equal(addrs_orig, addrs_pad)

    def test_coefficient_subscripts(self):
        prog = b.program(
            "p",
            decls=[b.real8("A", 16)],
            body=[b.loop("i", 1, 4, [b.stmt(b.w("A", b.idx("i", -1, coef=2)))])],
        )
        addrs, _ = trace_addresses(prog, original_layout(prog))
        # subscripts 1,3,5,7 -> offsets 0,16,32,48
        assert list(addrs) == [0, 16, 32, 48]


class TestIndirect:
    def test_indirect_emits_index_load_then_access(self):
        prog = b.program(
            "p",
            decls=[b.real8("X", 4), b.int4("IDX", 4)],
            body=[b.loop("i", 1, 4, [b.reads_only(b.r("X", b.indirect("IDX", "i")))])],
        )
        env = DataEnv()
        env.set_values("IDX", [3, 1, 4, 2])
        lay = original_layout(prog)
        addrs, writes = trace_addresses(prog, lay, env)
        assert len(addrs) == 8
        idx_base, x_base = lay.base("IDX"), lay.base("X")
        assert list(addrs[0::2]) == [idx_base, idx_base + 4, idx_base + 8, idx_base + 12]
        assert list(addrs[1::2]) == [
            x_base + 16, x_base, x_base + 24, x_base + 8
        ]
        assert not writes.any()

    def test_out_of_range_index_raises(self):
        prog = b.program(
            "p",
            decls=[b.real8("X", 4), b.int4("IDX", 4)],
            body=[b.loop("i", 1, 4, [b.reads_only(b.r("X", b.indirect("IDX", "i")))])],
        )
        env = DataEnv()
        env.set_values("IDX", [99, 1, 1, 1])
        with pytest.raises(SimulationError):
            trace_addresses(prog, original_layout(prog), env)

    def test_disjoint_subscripted_ranges_raise_a_simulation_error(self):
        # IDX subscripts A(1:4) and B(10:20): no value satisfies both, so
        # the defaults cannot be drawn; the error names IDX and the range.
        prog = parse_program("""
program disjoint
  real*8 A(4), B(10:20)
  integer*4 IDX(4)
  do i = 1, 4
    A(IDX(i)) = B(IDX(i))
  end do
end
""")
        with pytest.raises(SimulationError, match=r"'IDX'.*\[10, 4\] is empty"):
            DataEnv().populate_defaults(prog)
        for jit in ("on", "off"):
            with pytest.raises(SimulationError, match="'IDX'"):
                trace_addresses(prog, original_layout(prog), jit=jit)

    def test_default_population_is_reproducible(self):
        prog = b.program(
            "p",
            decls=[b.real8("X", 64), b.int4("IDX", 64)],
            body=[b.loop("i", 1, 64, [b.reads_only(b.r("X", b.indirect("IDX", "i")))])],
        )
        lay = original_layout(prog)
        a1, _ = trace_addresses(prog, lay, DataEnv(seed=7))
        a2, _ = trace_addresses(prog, lay, DataEnv(seed=7))
        a3, _ = trace_addresses(prog, lay, DataEnv(seed=8))
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, a3)


class TestChunking:
    def test_chunk_boundaries_preserve_order(self):
        prog = jacobi_program(12)
        lay = original_layout(prog)
        whole, _ = trace_addresses(prog, lay)
        parts = []
        for addrs, _ in trace_program(prog, lay, chunk_target=64):
            assert len(addrs) > 0
            parts.append(addrs)
        assert np.array_equal(whole, np.concatenate(parts))

    def test_count_accesses(self):
        prog = jacobi_program(12)
        interp = TraceInterpreter(prog, original_layout(prog))
        assert interp.count_accesses() == (10 * 10) * 5 + (10 * 10) * 2


class TestTruncation:
    def test_truncate_outer(self):
        prog = jacobi_program(12)
        short = truncate_outer_loops(prog, 3)
        addrs, _ = trace_addresses(short, original_layout(short))
        assert len(addrs) == 3 * 10 * 5 + 3 * 10 * 2

    def test_truncate_noop_when_small(self):
        prog = jacobi_program(12)
        same = truncate_outer_loops(prog, 1000)
        a1, _ = trace_addresses(prog, original_layout(prog))
        a2, _ = trace_addresses(same, original_layout(same))
        assert np.array_equal(a1, a2)

    def test_truncate_rejects_nonpositive(self):
        with pytest.raises(SimulationError):
            truncate_outer_loops(jacobi_program(8), 0)

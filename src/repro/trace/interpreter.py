"""Trace interpreter: execute a program's loop nests into address chunks.

The interpreter walks the loop structure with concrete index values and
emits, in exact program order, the byte address and read/write flag of
every array reference.  Addresses come from the :class:`MemoryLayout`
(base addresses + padded strides), so the same program traced under two
layouts yields the padded and unpadded address streams the experiments
compare.

Performance: outer loops run in Python but any loop whose body is purely
statements (the innermost loops of all kernels) is vectorized — each
reference's address across the whole iteration range is one numpy
expression, and per-iteration interleaving is a reshape.  Chunks are
yielded once they reach ``chunk_target`` accesses.

Indirect references ``X(IDX(i))`` emit the load of ``IDX(i)`` followed by
the gathered access to ``X``, matching what the hardware would do.  Both
the vectorized and the scalar path read index data through the one
:class:`~repro.ir.nest.Gather` helper, so a bad index is reported with one
text (the offending subscripts and the bounds they left).  The JIT
(:mod:`repro.jit`) compiles gather nests too, and hands any nest whose
gathers it cannot prove in range back to this interpreter, so every
bad-index :class:`SimulationError` is raised here.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.ir.expr import AffineExpr
from repro.ir.loops import BodyNode, Loop
from repro.ir.nest import ref_address, trip
from repro.ir.program import Program
from repro.ir.refs import ArrayRef
from repro.ir.stmts import Statement
from repro.layout.layout import MemoryLayout
from repro.obs import runtime as obs
from repro.trace.env import DataEnv

Chunk = Tuple[np.ndarray, np.ndarray]

_CHUNK_SIZE_BUCKETS = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
)


class _RefPlan:
    """Precomputed addressing data for one reference under one layout.

    ``address`` is the affine part of the linearized address and
    ``gathers`` its :class:`~repro.ir.nest.Gather` list, read through the
    data environment at run time.
    """

    __slots__ = ("ref", "address", "gathers", "is_write")

    def __init__(self, ref: ArrayRef, layout: MemoryLayout):
        self.ref = ref
        self.address, self.gathers = ref_address(ref, layout.prog, layout)
        self.is_write = ref.is_write


class TraceInterpreter:
    """Executes a program under a layout, yielding address chunks."""

    def __init__(
        self,
        prog: Program,
        layout: MemoryLayout,
        env: Optional[DataEnv] = None,
        chunk_target: int = 1 << 16,
    ):
        if layout.prog is not prog and layout.prog.name != prog.name:
            raise SimulationError("layout was built for a different program")
        self.prog = prog
        self.layout = layout
        self.env = env or DataEnv()
        self.env.populate_defaults(prog)
        self.chunk_target = int(chunk_target)
        self._plans: Dict[int, _RefPlan] = {}
        self._pending_addrs: List[np.ndarray] = []
        self._pending_writes: List[np.ndarray] = []
        self._pending_count = 0

    # -- plan cache --------------------------------------------------------

    def _plan(self, ref: ArrayRef) -> _RefPlan:
        key = id(ref)
        plan = self._plans.get(key)
        if plan is None:
            plan = _RefPlan(ref, self.layout)
            self._plans[key] = plan
        return plan

    # -- public API ------------------------------------------------------

    def trace(self) -> Iterator[Chunk]:
        """Yield (addresses, write-flags) chunks in exact program order."""
        self._pending_addrs = []
        self._pending_writes = []
        self._pending_count = 0
        env: Dict[str, int] = {}
        yield from self._run_body(self.prog.body, env)
        if self._pending_count:
            yield self._flush()

    def count_accesses(self) -> int:
        """Total accesses the trace would contain (runs the interpreter)."""
        return sum(len(addrs) for addrs, _ in self.trace())

    # -- execution --------------------------------------------------------

    def _run_body(self, body: Sequence[BodyNode], env: Dict[str, int]) -> Iterator[Chunk]:
        for node in body:
            if isinstance(node, Statement):
                self._emit_statement_once(node, env)
                if self._pending_count >= self.chunk_target:
                    yield self._flush()
            elif node.is_innermost:
                self._emit_vector_loop(node, env)
                if self._pending_count >= self.chunk_target:
                    yield self._flush()
            else:
                yield from self._run_loop(node, env)

    def _run_loop(self, loop: Loop, env: Dict[str, int]) -> Iterator[Chunk]:
        lo = loop.lower.evaluate(env)
        hi = loop.upper.evaluate(env)
        step = loop.step
        value = lo
        while (value <= hi) if step > 0 else (value >= hi):
            env[loop.var] = value
            yield from self._run_body(loop.body, env)
            value += step
        env.pop(loop.var, None)

    # -- vectorized innermost loop ----------------------------------------

    def _emit_vector_loop(self, loop: Loop, env: Dict[str, int]) -> None:
        lo = loop.lower.evaluate(env)
        hi = loop.upper.evaluate(env)
        step = loop.step
        count = trip(lo, hi, step)
        if count == 0:
            return
        values = lo + step * np.arange(count, dtype=np.int64)

        columns: List[np.ndarray] = []
        write_flags: List[bool] = []
        for stmt in loop.body:
            for ref in stmt.refs:
                self._append_ref_columns(
                    self._plan(ref), loop.var, values, env, columns, write_flags
                )
        if not columns:
            return
        matrix = np.stack(columns, axis=1)
        addrs = matrix.reshape(-1)
        writes = np.tile(np.asarray(write_flags, dtype=bool), count)
        self._push(addrs, writes)

    def _append_ref_columns(
        self,
        plan: _RefPlan,
        var: str,
        values: np.ndarray,
        env: Dict[str, int],
        columns: List[np.ndarray],
        write_flags: List[bool],
    ) -> None:
        """Append this ref's address column(s) for a vectorized loop.

        Each gather contributes an extra column for the index-array load
        that precedes the main access.
        """

        def column(expr: AffineExpr) -> np.ndarray:
            const = expr.const + sum(
                c * env[v] for v, c in expr.coeffs.items() if v != var
            )
            return const + expr.coeff(var) * values

        total = column(plan.address)
        for gather in plan.gathers:
            total = total + gather.gather(
                column(gather.position), self.env.values(gather.array)
            )
            columns.append(column(gather.load))
            write_flags.append(False)
        columns.append(total)
        write_flags.append(plan.is_write)

    # -- scalar (non-vectorized) statement execution -------------------------

    def _emit_statement_once(self, stmt: Statement, env: Dict[str, int]) -> None:
        addrs: List[int] = []
        writes: List[bool] = []
        for ref in stmt.refs:
            plan = self._plan(ref)
            total = plan.address.evaluate(env)
            for gather in plan.gathers:
                position = np.array(
                    [gather.position.evaluate(env)], dtype=np.int64
                )
                offset = gather.gather(position, self.env.values(gather.array))
                addrs.append(gather.load.evaluate(env))
                writes.append(False)
                total += int(offset[0])
            addrs.append(total)
            writes.append(plan.is_write)
        self._push(np.asarray(addrs, dtype=np.int64), np.asarray(writes, dtype=bool))

    # -- chunk management -------------------------------------------------

    def _push(self, addrs: np.ndarray, writes: np.ndarray) -> None:
        self._pending_addrs.append(addrs)
        self._pending_writes.append(writes)
        self._pending_count += len(addrs)

    def _flush(self) -> Chunk:
        addrs = np.concatenate(self._pending_addrs)
        writes = np.concatenate(self._pending_writes)
        self._pending_addrs = []
        self._pending_writes = []
        self._pending_count = 0
        if obs.is_enabled():
            obs.counter_add(
                "repro_trace_chunks_total", 1, "address chunks emitted"
            )
            obs.counter_add(
                "repro_trace_addresses_total", len(addrs),
                "addresses generated by the trace interpreter",
            )
            obs.observe(
                "repro_trace_chunk_size", len(addrs),
                "accesses per emitted chunk", buckets=_CHUNK_SIZE_BUCKETS,
            )
        return addrs, writes


def trace_program(
    prog: Program,
    layout: MemoryLayout,
    env: Optional[DataEnv] = None,
    chunk_target: int = 1 << 16,
    jit: str = "auto",
) -> Iterator[Chunk]:
    """Convenience wrapper: iterate address chunks for a program.

    ``jit`` selects the execution engine (``"on"``/``"off"``/``"auto"``,
    see :mod:`repro.jit`); every mode emits the identical stream.
    """
    # Imported here: repro.jit subclasses TraceInterpreter, so the import
    # must not run at this module's load time.
    from repro.jit import make_interpreter

    return make_interpreter(prog, layout, env, chunk_target, jit=jit).trace()


def trace_addresses(
    prog: Program,
    layout: MemoryLayout,
    env: Optional[DataEnv] = None,
    jit: str = "auto",
) -> Tuple[np.ndarray, np.ndarray]:
    """The full trace as two arrays (small programs / tests only)."""
    addr_parts: List[np.ndarray] = []
    write_parts: List[np.ndarray] = []
    for addrs, writes in trace_program(prog, layout, env, jit=jit):
        addr_parts.append(addrs)
        write_parts.append(writes)
    if not addr_parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    return np.concatenate(addr_parts), np.concatenate(write_parts)


def simulate(prog: Program, layout: MemoryLayout, simulator, env=None,
             jit: str = "auto"):
    """Drive a cache simulator with a program's trace; returns its stats."""
    chunks = trace_program(prog, layout, env, jit=jit)
    stream = getattr(simulator, "access_stream", None)
    if stream is not None:
        return stream(chunks)
    for addrs, writes in chunks:
        simulator.access_chunk(addrs, writes)
    return simulator.stats


def truncate_outer_loops(prog: Program, max_trips: int) -> Program:
    """Limit every outermost loop to at most ``max_trips`` iterations.

    Used by the experiment runner to bound O(N^3) linear-algebra kernels:
    their conflict behaviour repeats across outer iterations, so a prefix
    of the outer loop preserves the miss-rate shape.  Only outermost loops
    with constant bounds are truncated.
    """
    if max_trips <= 0:
        raise SimulationError("max_trips must be positive")
    new_body = []
    for node in prog.body:
        if isinstance(node, Loop) and node.lower.is_constant and node.upper.is_constant:
            trips = node.trip_count({})
            if trips > max_trips:
                new_upper = node.lower.const + (max_trips - 1) * node.step
                node = Loop(node.var, node.lower, new_upper, node.body, step=node.step)
        new_body.append(node)
    return Program(
        prog.name,
        prog.decls,
        new_body,
        source_lines=prog.source_lines,
        suite=prog.suite,
        description=prog.description,
    )

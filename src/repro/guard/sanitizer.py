"""Semantic sanitizer: a transformed layout must touch the same cells.

The paper's transformations change *addresses*, never *meaning*: a
padded program must read and write exactly the logical array cells the
original program does, in the same order, with the same read/write
pattern.  The sanitizer checks that directly:

1. trace the program under the baseline layout and under the transformed
   layout (same :class:`~repro.trace.env.DataEnv` seed, so indirect
   subscripts gather identical index data);
2. invert every traced byte address back to a logical cell — which
   variable it falls in, and which declared-coordinate element of that
   variable — using each layout's own bases and padded strides;
3. compare the two logical-cell sequences element-wise.

Addresses are allowed to differ arbitrarily; a single differing cell,
write flag, or trace length is a violation.  Inversion also exposes two
corruption modes a plain diff cannot: addresses that land *outside*
every placed variable (``out_of_bounds``) and addresses that land inside
a variable's padding (``pad_touched``).

A layout corrupted *consistently* (e.g. two same-size arrays with their
bases swapped) is internally coherent — inverting its own trace with its
own bases reconstructs the intended cells.  The ``reference_layout``
parameter closes that hole: the transformed trace is inverted with the
layout the transformation *committed* (where the data actually lives),
so any post-commit drift of the address metadata shows up as accesses to
the wrong variable or the wrong cell.

Cost and memory: the two traces advance in lockstep, one trace chunk at
a time, and each pair of chunks is inverted and compared as it arrives,
so at most one chunk of each trace is in flight — never two whole
``limit``-access arrays.  Inverting a chunk is a ``searchsorted`` over
the variable bases plus one gather per access; only variables whose
dimensions were padded pay a mixed-radix decode.  Cost is bounded by
``limit`` accesses per layout; traces longer than the limit are compared
on their prefix (the compared prefix is reported).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.guard.config import GuardViolation
from repro.ir.program import Program
from repro.jit import make_interpreter
from repro.layout.layout import MemoryLayout
from repro.trace.env import DataEnv

#: one inverted trace chunk: (ids, cells, writes, out_of_bounds,
#: pad_touched, truncated)
CellChunk = Tuple[np.ndarray, np.ndarray, np.ndarray, int, int, bool]

#: the sentinel slot's end: no address lies below it
_NOWHERE = np.iinfo(np.int64).min


class _Inverter:
    """Vectorized byte-address -> (variable, canonical cell) mapping."""

    def __init__(self, prog: Program, layout: MemoryLayout):
        slots = []
        for index, decl in enumerate(prog.decls):
            if not layout.has_base(decl.name):
                continue
            base = layout.base(decl.name)
            size = layout.size_bytes(decl.name)
            if hasattr(decl, "dims"):  # array
                padded = tuple(layout.dim_sizes(decl.name))
                declared = tuple(decl.dim_sizes)
                element = decl.element_size
            else:  # scalar: one cell
                padded = declared = (1,)
                element = size or 1
            slots.append((base, base + size, index, element, padded, declared))
        slots.sort()
        self._bases = np.array([s[0] for s in slots], dtype=np.int64)
        # Per-slot tables for the one gather per access, indexed by the
        # searchsorted position: entry 0 is a sentinel for addresses below
        # every base (never inside), entry k + 1 is slot k.
        self._ends = np.array([_NOWHERE] + [s[1] for s in slots], np.int64)
        self._starts = np.array([0] + [s[0] for s in slots], np.int64)
        self._ids = np.array([-1] + [s[2] for s in slots], np.int64)
        self._elements = np.array([1] + [s[3] for s in slots], np.int64)
        # Without padding, size_bytes is element * prod(declared), so the
        # mixed-radix decode of (addr - base) // element returns it as is.
        self._padded = [
            (slot, padded, declared)
            for slot, (*_, padded, declared) in enumerate(slots, start=1)
            if padded != declared
        ]

    def invert(
        self, addrs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """(variable ids, canonical cells, #out-of-bounds, #pad-touched).

        Out-of-bounds addresses get id/cell -1; pad-touched cells get
        cell -2 so any mismatch against a clean stream is detected.
        """
        pos = np.searchsorted(self._bases, addrs, side="right")
        inside = addrs < self._ends.take(pos)
        ids = self._ids.take(pos)
        cells = addrs - self._starts.take(pos)
        cells //= self._elements.take(pos)
        out_of_bounds = len(addrs) - int(np.count_nonzero(inside))
        if out_of_bounds:
            outside = ~inside
            ids[outside] = -1
            cells[outside] = -1
            pos[outside] = 0
        pad_touched = 0
        for slot, padded, declared in self._padded:
            at = np.flatnonzero(pos == slot)
            if not len(at):
                continue
            flat = cells[at]
            canon = np.zeros(len(flat), dtype=np.int64)
            in_pad = np.zeros(len(flat), dtype=bool)
            declared_stride = 1
            for pad_size, decl_size in zip(padded, declared):
                coord = flat % pad_size
                flat = flat // pad_size
                in_pad |= coord >= decl_size
                canon += coord * declared_stride
                declared_stride *= decl_size
            canon[in_pad] = -2
            pad_touched += int(np.count_nonzero(in_pad))
            cells[at] = canon
        return ids, cells, out_of_bounds, pad_touched


def _cell_chunks(
    prog: Program,
    layout: MemoryLayout,
    seed: int,
    limit: int,
    invert_layout: Optional[MemoryLayout] = None,
    jit: str = "auto",
) -> Iterator[CellChunk]:
    """Inverted trace chunks, at most ``limit`` accesses in all.

    The last chunk of a trace longer than ``limit`` is cut to fit and
    flagged ``truncated``; the trace stops there.
    """
    inverter = _Inverter(prog, invert_layout or layout)
    room = limit
    interp = make_interpreter(prog, layout, DataEnv(seed=seed), jit=jit)
    for addrs, writes in interp.trace():
        truncated = len(addrs) > room
        if truncated:
            addrs = addrs[:room]
            writes = writes[:room]
        room -= len(addrs)
        ids, cells, oob, touched = inverter.invert(
            np.asarray(addrs, dtype=np.int64)
        )
        writes = np.asarray(writes, dtype=bool)
        yield ids, cells, writes, oob, touched, truncated
        if truncated:
            return


def cell_stream(
    prog: Program,
    layout: MemoryLayout,
    seed: int,
    limit: int,
    invert_layout: Optional[MemoryLayout] = None,
    jit: str = "auto",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int, bool]:
    """Logical-cell view of a program's trace under one layout.

    The trace is generated under ``layout`` by the engine ``jit`` selects
    (every mode emits the same stream, see :mod:`repro.jit`) and inverted
    with ``invert_layout`` (default: ``layout`` itself).  Returns ``(ids,
    cells, writes, out_of_bounds, pad_touched, truncated)`` with at most
    ``limit`` entries.
    """
    chunks = list(_cell_chunks(prog, layout, seed, limit, invert_layout, jit))
    if not chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty.astype(bool), 0, 0, False
    ids, cells, writes, oob, touched, truncated = zip(*chunks)
    return (
        np.concatenate(ids), np.concatenate(cells), np.concatenate(writes),
        sum(oob), sum(touched), any(truncated),
    )


class _Cursor:
    """One trace's chunk stream, consumed in slices, with running totals."""

    def __init__(self, chunks: Iterator[CellChunk]):
        self._chunks = chunks
        self._chunk: Tuple[np.ndarray, ...] = (np.empty(0),)
        self._at = 0
        self.length = self.oob = self.touched = 0
        self.truncated = False

    def ready(self) -> int:
        """Accesses buffered but not consumed (0 once the trace ends).

        The next chunk is pulled only when the current one is used up.
        """
        while self._at == len(self._chunk[0]):
            chunk = next(self._chunks, None)
            if chunk is None:
                return 0
            ids, cells, writes, oob, touched, truncated = chunk
            self._chunk = (ids, cells, writes)
            self._at = 0
            self.length += len(ids)
            self.oob += oob
            self.touched += touched
            self.truncated |= truncated
        return len(self._chunk[0]) - self._at

    def take(self, count: int) -> Tuple[np.ndarray, ...]:
        """The next ``count`` (ids, cells, writes); ``count <= ready()``."""
        start, self._at = self._at, self._at + count
        return tuple(column[start:self._at] for column in self._chunk)

    def drain(self) -> None:
        """Consume the rest of the trace, keeping only the totals."""
        while self.ready():
            self._at = len(self._chunk[0])


def sanitize(
    prog: Program,
    layout: MemoryLayout,
    baseline_layout: MemoryLayout,
    seed: int = 12345,
    limit: int = 1 << 20,
    reference_layout: Optional[MemoryLayout] = None,
    jit: str = "auto",
) -> List[GuardViolation]:
    """Violations between a transformed layout and the baseline (or []).

    ``reference_layout`` is the layout the transformation committed
    (where the data actually lives); when given, the transformed trace
    is inverted with it instead of with ``layout``, catching consistent
    base/stride drift that self-inversion cannot see.  ``jit`` selects
    the trace engine for both traces.  A trace that cannot be
    interpreted (an unsound layout may crash the tracer) is reported as
    one ``out_of_bounds`` violation; ``MemoryError`` is not a verdict on
    the layout and propagates.
    """
    try:
        return _compare(
            prog, layout, baseline_layout, seed, limit, reference_layout, jit
        )
    except MemoryError:
        raise
    except Exception as exc:
        return [
            GuardViolation(
                "out_of_bounds", "sanitizer",
                f"trace interpretation failed: {type(exc).__name__}: {exc}",
            )
        ]


def _compare(
    prog: Program,
    layout: MemoryLayout,
    baseline_layout: MemoryLayout,
    seed: int,
    limit: int,
    reference_layout: Optional[MemoryLayout],
    jit: str,
) -> List[GuardViolation]:
    violations: List[GuardViolation] = []
    names = [decl.name for decl in prog.decls]

    def flag(kind: str, message: str) -> None:
        violations.append(GuardViolation(kind, "sanitizer", message))

    def describe(i, c):
        name = names[i] if 0 <= i < len(names) else "?"
        return f"{name}[{c}]"

    base = _Cursor(_cell_chunks(prog, baseline_layout, seed, limit, jit=jit))
    moved = _Cursor(
        _cell_chunks(
            prog, layout, seed, limit, invert_layout=reference_layout, jit=jit
        )
    )
    compared = mismatches = 0
    first_write: Optional[int] = None
    first_cell: Optional[str] = None
    while True:
        count = min(base.ready(), moved.ready())
        if not count:
            break
        base_ids, base_cells, base_writes = base.take(count)
        ids, cells, writes = moved.take(count)
        if first_write is None and not np.array_equal(writes, base_writes):
            first_write = compared + int(np.argmax(writes != base_writes))
        differ = ids != base_ids
        differ |= cells != base_cells
        found = int(np.count_nonzero(differ))
        if found:
            if first_cell is None:
                at = int(np.argmax(differ))
                first_cell = (
                    f"first at access {compared + at}: baseline "
                    f"{describe(int(base_ids[at]), int(base_cells[at]))} vs "
                    f"transformed {describe(int(ids[at]), int(cells[at]))}"
                )
            mismatches += found
        compared += count
    base.drain()
    moved.drain()

    if moved.oob:
        flag(
            "out_of_bounds",
            f"{moved.oob} traced address(es) outside every placed variable",
        )
    if moved.touched:
        flag(
            "pad_touched",
            f"{moved.touched} traced address(es) landed in padding",
        )
    if base.oob or base.touched:  # baseline itself unsound: report loudly
        flag(
            "out_of_bounds",
            f"baseline layout unsound: {base.oob} out-of-bounds, "
            f"{base.touched} in-padding accesses",
        )

    if moved.length != base.length:
        flag(
            "length_mismatch",
            f"transformed trace has {moved.length} accesses, "
            f"baseline has {base.length}",
        )
        return violations

    if first_write is not None:
        flag(
            "write_mismatch",
            f"read/write pattern diverges at access {first_write}",
        )

    if first_cell is not None:
        flag(
            "cell_mismatch",
            f"{mismatches} of {moved.length}"
            f"{' (prefix)' if moved.truncated else ''} accesses touch different "
            f"cells; {first_cell}",
        )
    return violations

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

Cost is bounded by ``limit`` accesses per layout; traces longer than the
limit are compared on their prefix (the compared prefix is reported).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.guard.config import GuardViolation
from repro.ir.program import Program
from repro.jit import make_interpreter
from repro.layout.layout import MemoryLayout
from repro.trace.env import DataEnv


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
                padded = layout.dim_sizes(decl.name)
                declared = decl.dim_sizes
                element = decl.element_size
            else:  # scalar: one cell
                padded = declared = (1,)
                element = size or 1
            slots.append((base, base + size, index, element, padded, declared))
        slots.sort()
        self._bases = np.array([s[0] for s in slots], dtype=np.int64)
        self._ends = np.array([s[1] for s in slots], dtype=np.int64)
        self._slots = slots

    def invert(
        self, addrs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """(variable ids, canonical cells, #out-of-bounds, #pad-touched).

        Out-of-bounds addresses get id/cell -1; pad-touched cells get
        cell -2 so any mismatch against a clean stream is detected.
        """
        pos = np.searchsorted(self._bases, addrs, side="right") - 1
        clipped = np.clip(pos, 0, len(self._bases) - 1)
        inside = (pos >= 0) & (addrs < self._ends[clipped])
        ids = np.full(len(addrs), -1, dtype=np.int64)
        cells = np.full(len(addrs), -1, dtype=np.int64)
        pad_touched = 0
        for slot_index, (base, _end, decl_id, element, padded, declared) in (
            enumerate(self._slots)
        ):
            mask = inside & (clipped == slot_index)
            if not mask.any():
                continue
            ids[mask] = decl_id
            flat = (addrs[mask] - base) // element
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
            pad_touched += int(in_pad.sum())
            cells[mask] = canon
        return ids, cells, int((~inside).sum()), pad_touched


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
    inverter = _Inverter(prog, invert_layout or layout)
    ids_parts: List[np.ndarray] = []
    cell_parts: List[np.ndarray] = []
    write_parts: List[np.ndarray] = []
    oob = touched = 0
    total = 0
    truncated = False
    interp = make_interpreter(prog, layout, DataEnv(seed=seed), jit=jit)
    for addrs, writes in interp.trace():
        if total + len(addrs) > limit:
            addrs = addrs[: limit - total]
            writes = writes[: limit - total]
            truncated = True
        ids, cells, chunk_oob, chunk_touched = inverter.invert(
            np.asarray(addrs, dtype=np.int64)
        )
        ids_parts.append(ids)
        cell_parts.append(cells)
        write_parts.append(np.asarray(writes, dtype=bool))
        oob += chunk_oob
        touched += chunk_touched
        total += len(addrs)
        if truncated:
            break
    empty = np.empty(0, dtype=np.int64)
    return (
        np.concatenate(ids_parts) if ids_parts else empty,
        np.concatenate(cell_parts) if cell_parts else empty,
        np.concatenate(write_parts) if write_parts else empty.astype(bool),
        oob,
        touched,
        truncated,
    )


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
    the trace engine for both traces.
    """
    violations: List[GuardViolation] = []

    def flag(kind: str, message: str, variable: Optional[str] = None) -> None:
        violations.append(
            GuardViolation(kind, "sanitizer", message, variable=variable)
        )

    base_ids, base_cells, base_writes, base_oob, base_touched, _ = cell_stream(
        prog, baseline_layout, seed, limit, jit=jit
    )
    ids, cells, writes, oob, touched, truncated = cell_stream(
        prog, layout, seed, limit, invert_layout=reference_layout, jit=jit
    )

    if oob:
        flag(
            "out_of_bounds",
            f"{oob} traced address(es) outside every placed variable",
        )
    if touched:
        flag("pad_touched", f"{touched} traced address(es) landed in padding")
    if base_oob or base_touched:  # baseline itself unsound: report loudly
        flag(
            "out_of_bounds",
            f"baseline layout unsound: {base_oob} out-of-bounds, "
            f"{base_touched} in-padding accesses",
        )

    if len(ids) != len(base_ids):
        flag(
            "length_mismatch",
            f"transformed trace has {len(ids)} accesses, "
            f"baseline has {len(base_ids)}",
        )
        return violations

    if not np.array_equal(writes, base_writes):
        first = int(np.nonzero(writes != base_writes)[0][0])
        flag(
            "write_mismatch",
            f"read/write pattern diverges at access {first}",
        )

    mismatch = (ids != base_ids) | (cells != base_cells)
    if mismatch.any():
        first = int(np.nonzero(mismatch)[0][0])
        decls = list(prog.decls)

        def describe(i, c):
            name = decls[i].name if 0 <= i < len(decls) else "?"
            return f"{name}[{c}]"

        flag(
            "cell_mismatch",
            f"{int(mismatch.sum())} of {len(ids)}"
            f"{' (prefix)' if truncated else ''} accesses touch different "
            f"cells; first at access {first}: baseline "
            f"{describe(int(base_ids[first]), int(base_cells[first]))} vs "
            f"transformed {describe(int(ids[first]), int(cells[first]))}",
        )
    return violations

"""Data environment for trace generation.

Most references are affine and need no data values — only *addresses*
matter to a cache.  Indirect references (the paper's IRR benchmark,
relaxation over an irregular mesh) read subscripts out of index arrays, so
the interpreter needs their contents.  :class:`DataEnv` holds those
contents and can synthesize reproducible random index arrays on demand.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import SimulationError
from repro.ir.program import Program


class DataEnv:
    """Holds index-array contents keyed by array name.

    Values are *logical subscript values* (in the coordinate system of the
    array being indexed, i.e. respecting its lower bound), stored densely
    from each index array's own lower bound.
    """

    def __init__(self, seed: int = 12345):
        self.seed = seed
        self._values: Dict[str, np.ndarray] = {}

    def set_values(self, name: str, values) -> None:
        """Provide explicit contents for an index array."""
        self._values[name] = np.asarray(values, dtype=np.int64)

    def has(self, name: str) -> bool:
        """True when contents for ``name`` are present."""
        return name in self._values

    def values(self, name: str) -> np.ndarray:
        """Contents of an index array."""
        try:
            return self._values[name]
        except KeyError:
            raise SimulationError(
                f"no data for index array {name!r}; call set_values or "
                f"populate_defaults first"
            ) from None

    def populate_defaults(self, prog: Program) -> None:
        """Fill every referenced index array with reproducible random values.

        Each index array's value range is derived from the dimensions it
        subscripts: for ``X(IDX(i))`` the values span X's first dimension.
        When the range length equals the index array's length a permutation
        is used (the irregular-mesh idiom: every node visited once in
        scattered order); otherwise uniform random values (the histogram
        idiom, e.g. bucket sort keys).  Seeded for reproducibility; each
        array gets an independent stream.  An index array that subscripts
        dimensions with no common range raises :class:`SimulationError`.
        """
        ranges = _index_value_ranges(prog)
        for offset, name in enumerate(prog.referenced_index_arrays()):
            if name in self._values:
                continue
            decl = prog.array(name)
            lower, upper = ranges.get(name, (decl.dims[0].lower, decl.dims[0].upper))
            if upper < lower:
                raise SimulationError(
                    f"index array {name!r} subscripts dimensions whose "
                    f"ranges do not overlap: their common range "
                    f"[{lower}, {upper}] is empty"
                )
            rng = np.random.default_rng(self.seed + offset)
            span = upper - lower + 1
            if span == decl.num_elements:
                values = rng.permutation(span).astype(np.int64) + lower
            else:
                values = rng.integers(
                    lower, upper + 1, size=decl.num_elements, dtype=np.int64
                )
            self._values[name] = values


def _index_value_ranges(prog: Program) -> dict:
    """Intersection of the subscript ranges each index array must satisfy."""
    from repro.ir.expr import IndirectExpr

    ranges = {}
    for ref in prog.refs():
        decl = prog.array(ref.array)
        for sub, dim in zip(ref.subscripts, decl.dims):
            if not isinstance(sub, IndirectExpr):
                continue
            lower, upper = ranges.get(sub.array, (dim.lower, dim.upper))
            ranges[sub.array] = (max(lower, dim.lower), min(upper, dim.upper))
    return ranges

"""Data-dependence analysis for perfect loop nests.

The paper positions data-layout transformation against the classic
*computation-reordering* transformations (loop permutation, tiling —
references [9, 17, 23]); to compare the two experimentally we need enough
dependence analysis to know when reordering is legal.

For uniformly generated reference pairs (the same class the padding
analysis handles) the dependence distance in each loop dimension is just
the difference of the subscript constants carried by that loop variable:
``A(i+1, j)`` written and ``A(i, j)`` read is a distance vector ``(1, 0)``.
Loop variables not constrained by the pair get the unknown distance ``*``.
Pairs that are not uniformly generated (gathers, strided refs) produce a
conservative all-unknown vector.

A loop permutation is legal iff every dependence's *permuted* distance
vector remains lexicographically positive under the worst case for ``*``
entries (standard theory; see e.g. Allen & Kennedy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError
from repro.ir.loops import Loop
from repro.ir.nest import perfect_chain
from repro.ir.program import Program
from repro.ir.refs import ArrayRef

UNKNOWN = None  # the '*' distance


@dataclass(frozen=True)
class Dependence:
    """One dependence between two references to the same array.

    ``distance`` is indexed by nest loop order, outermost first; entries
    are ints or ``None`` (unknown).  ``kind`` is flow/anti/output/input
    purely for reporting — legality treats them alike (input dependences
    are not generated).
    """

    array: str
    source: ArrayRef
    sink: ArrayRef
    distance: Tuple[Optional[int], ...]
    kind: str

    def describe(self) -> str:
        """Human-readable rendering like ``A: (1, 0) flow``."""
        vec = ", ".join("*" if d is None else str(d) for d in self.distance)
        return f"{self.array}: ({vec}) {self.kind}"


def nest_loop_order(nest: Loop) -> List[Loop]:
    """The loops of a perfect nest, outermost first.

    Raises :class:`AnalysisError` when the nest is not perfect (a loop
    body containing both statements and loops, or several loops).
    """
    chain = perfect_chain(nest)
    if chain is None:
        raise AnalysisError(f"loop nest over {nest.var!r} is not perfect")
    return chain


def _pair_distance(
    ref_a: ArrayRef, ref_b: ArrayRef, loop_vars: Sequence[str]
) -> Tuple[Optional[int], ...]:
    """Distance vector taking iteration(ref_a) to iteration(ref_b)."""
    shape_a = ref_a.uniform_shape()
    shape_b = ref_b.uniform_shape()
    if shape_a is None or shape_b is None or shape_a != shape_b:
        return tuple(UNKNOWN for _ in loop_vars)
    per_var: Dict[str, int] = {}
    for dim, var in enumerate(shape_a):
        if var is None:
            if ref_a.subscripts[dim].const != ref_b.subscripts[dim].const:
                # Different constant planes: no dependence at all; encode
                # as an impossible marker the caller filters out.
                raise _NoDependence()
            continue
        delta = ref_a.subscripts[dim].const - ref_b.subscripts[dim].const
        if var in per_var and per_var[var] != delta:
            raise _NoDependence()  # inconsistent constraints
        per_var[var] = delta
    return tuple(per_var.get(v, UNKNOWN) for v in loop_vars)


class _NoDependence(Exception):
    pass


def _lex_sign(distance: Tuple[Optional[int], ...]) -> int:
    """+1 lexicographically positive, -1 negative, 0 zero, 2 unknown."""
    for entry in distance:
        if entry is None:
            return 2
        if entry > 0:
            return 1
        if entry < 0:
            return -1
    return 0


def _negate(distance):
    return tuple(None if d is None else -d for d in distance)


def nest_dependences(prog: Program, nest: Loop) -> List[Dependence]:
    """All (flow/anti/output) dependences of one perfect nest.

    Distance vectors are normalized to be lexicographically non-negative
    (the dependence runs from the earlier iteration to the later one);
    unknown-leading vectors are kept as-is (conservatively both ways).
    """
    loops = nest_loop_order(nest)
    loop_vars = [l.var for l in loops]
    refs = list(nest.refs())
    out: List[Dependence] = []
    for i in range(len(refs)):
        for j in range(len(refs)):
            if i == j:
                continue
            a, c = refs[i], refs[j]
            if a.array != c.array:
                continue
            if not (a.is_write or c.is_write):
                continue
            if i > j and not (a.is_write and c.is_write):
                # unordered pair already visited in the other orientation
                pass
            try:
                distance = _pair_distance(a, c, loop_vars)
            except _NoDependence:
                continue
            sign = _lex_sign(distance)
            if sign == -1:
                continue  # the reversed orientation covers it
            if sign == 0 and i >= j:
                continue  # loop-independent: keep one orientation
            kind = (
                "flow"
                if a.is_write and not c.is_write
                else "anti"
                if c.is_write and not a.is_write
                else "output"
            )
            dep = Dependence(a.array, a, c, distance, kind)
            if not any(
                d.distance == dep.distance and d.kind == dep.kind
                and d.array == dep.array for d in out
            ):
                out.append(dep)
    return out


def permutation_legal(
    dependences: Sequence[Dependence], permutation: Sequence[int]
) -> bool:
    """Is applying ``permutation`` to the nest's loops legal?

    ``permutation[k]`` gives the original index of the loop placed at
    position ``k`` (outermost = 0).  Legal iff every permuted distance
    vector is lexicographically non-negative treating ``*`` as "could be
    negative" — a leading ``*`` or a negative entry before the first
    positive entry rejects the permutation.  The identity permutation is
    always legal (it is the original program, whatever the unknowns).
    """
    if list(permutation) == list(range(len(permutation))):
        return True
    for dep in dependences:
        permuted = [dep.distance[p] for p in permutation]
        for entry in permuted:
            if entry is None:
                return False  # could be negative at this outer position
            if entry > 0:
                break
            if entry < 0:
                return False
            # entry == 0: look further in
    return True

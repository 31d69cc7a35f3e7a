"""Symbolic linearization of array references.

Linearizing a reference turns its subscript tuple into a single affine
byte-offset expression over the loop variables:

    addr(A(e1, ..., ed)) = base(A) + sum_k (e_k - lb_k) * stride_k

with column-major strides ``stride_1 = elem_size`` and
``stride_k = elem_size * prod_{m<k} dim_m``.  Subtracting two linearized
references gives the paper's expression (1); when the variable terms cancel
the result is the constant distance used to compute conflict distances.
The sum itself is :func:`repro.ir.nest.linear_address`, shared with the
trace interpreter, the JIT and the analytic predictor.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import AnalysisError
from repro.ir.arrays import ArrayDecl
from repro.ir.expr import AffineExpr
from repro.ir.nest import linear_address
from repro.ir.refs import ArrayRef


def linearize(
    ref: ArrayRef,
    decl: ArrayDecl,
    dim_sizes: Optional[Sequence[int]] = None,
    base_address: int = 0,
) -> AffineExpr:
    """Linearize ``ref`` into an affine byte offset.

    ``dim_sizes`` supplies padded dimension sizes (defaults to the declared
    ones) and ``base_address`` the variable's placement.  Raises
    :class:`AnalysisError` for references with indirect subscripts, which
    have no affine address.
    """
    if ref.array != decl.name:
        raise AnalysisError(
            f"reference {ref} does not match declaration {decl.name!r}"
        )
    if ref.rank != decl.rank:
        raise AnalysisError(
            f"reference {ref} has rank {ref.rank}, declaration has {decl.rank}"
        )
    total, indirect = linear_address(
        ref, decl, decl.strides(dim_sizes), base_address
    )
    if indirect:
        raise AnalysisError(f"cannot linearize indirect subscript in {ref}")
    return total


def linearized_distance(
    ref_a: ArrayRef,
    decl_a: ArrayDecl,
    ref_b: ArrayRef,
    decl_b: ArrayDecl,
    dim_sizes_a: Optional[Sequence[int]] = None,
    dim_sizes_b: Optional[Sequence[int]] = None,
    base_a: int = 0,
    base_b: int = 0,
) -> AffineExpr:
    """The symbolic address difference ``addr(ref_a) - addr(ref_b)`` in bytes.

    This is expression (1) of the paper.  For a uniformly generated pair
    the result is constant (``.is_constant`` holds); its value combines the
    base-address difference and the subscript-offset difference.
    """
    la = linearize(ref_a, decl_a, dim_sizes_a, base_a)
    lb = linearize(ref_b, decl_b, dim_sizes_b, base_b)
    return la - lb


def constant_distance(
    ref_a: ArrayRef,
    decl_a: ArrayDecl,
    ref_b: ArrayRef,
    decl_b: ArrayDecl,
    dim_sizes_a: Optional[Sequence[int]] = None,
    dim_sizes_b: Optional[Sequence[int]] = None,
    base_a: int = 0,
    base_b: int = 0,
) -> Optional[int]:
    """The constant byte distance between two references, or None.

    Returns None when the distance varies across iterations (the pair is
    not uniformly generated once array shapes are taken into account) or
    when either reference is indirect.
    """
    try:
        delta = linearized_distance(
            ref_a, decl_a, ref_b, decl_b, dim_sizes_a, dim_sizes_b, base_a, base_b
        )
    except AnalysisError:
        return None
    if not delta.is_constant:
        return None
    return delta.const

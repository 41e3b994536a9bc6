"""Relative dimension of coefficient subspaces and certified kernel estimates.

For a finite conjugation-closed window F, the dimension of a subspace
K <= W_F^n relative to F is |F|^{-1} dim_C(K), a number in [0, n]. For a
nonzero matrix T over the algebra with support S, the kernel of the
restricted multiplication operator W_{int_S(F)}^n -> W_F^n gives a certified
two-sided estimate of the Murray-von Neumann kernel dimension:

    lower = |F|^{-1} nullity,   upper = lower + n |bd_S(F)| / |F|,

all weighted counts exact integers, so the bracket is an exact rational
interval. On finite providers the dimension is computed outright, which
serves as the oracle for the bracket: on the exact group rings as a sum over
irreducible blocks, one small exact rank per Galois orbit (``_blocks``), and
on the float provider finite:S3 by an SVD of the full multiplication
operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _blocks, exactla
from .fusion import BoundaryData, boundary_decomposition, weighted_size
from .polalg import (AlgebraElement, AlgebraError, MatrixOverPol, _check_operator,
                     _component_basis, _restricted_operator, full_mult_matrix)
from .scalars import EXACT, FLOAT
from .serialize import Report


@dataclass(frozen=True)
class DimensionEstimate(Report):
    """Certified interval [lower, upper] for a Murray-von Neumann dimension."""

    lower: Fraction
    upper: Fraction
    window: tuple
    n: int
    boundary_ratio: Fraction
    window_weight: int
    boundary_weight: int
    interior_weight: int
    nullity: int
    rank: int
    side: str
    degenerate: bool = False

    def contains(self, value) -> bool:
        return self.lower <= value <= self.upper

    def width(self) -> Fraction:
        return self.upper - self.lower


def _require_conj_closed(ring, F):
    F = ring.label_set(F)
    if not F:
        raise ValueError("window must be non-empty")
    if frozenset(ring._conj(u) for u in F) != F:
        raise ValueError("window must be conjugation-closed")
    return F


def coordinates_in_window(algebra, vectors, F, n: int):
    """Coordinate rows of vectors of W_F^n in the orthonormal window basis.

    Vectors may be AlgebraElements (n = 1) or n-tuples of them; raw
    coordinate rows of the right length pass through unchanged. An element
    coefficient c of u^a_ij is the coordinate c / sqrt(n_a) of the basis
    vector sqrt(n_a) u^a_ij, the inverse of
    ``RestrictedOperator.elements_from_coords``. A component supported
    outside F is a precondition error.
    """
    ring = algebra.ring
    index = {key: k for k, key in enumerate(_component_basis(ring, ring.sorted_labels(F), n))}
    dim = len(index)
    scaled = algebra.mode == FLOAT
    rows = []
    for v in vectors:
        if isinstance(v, AlgebraElement):
            v = (v,)
        if isinstance(v, (tuple, list)) and v and isinstance(v[0], AlgebraElement):
            if len(v) != n:
                raise ValueError(f"expected {n} components, got {len(v)}")
            row = [None] * dim
            for comp, elem in enumerate(v):
                if elem.algebra is not algebra:
                    raise AlgebraError("vector component in a different algebra")
                for key, c in elem._coeffs.items():
                    k = index.get((comp, *key))
                    if k is None:
                        raise ValueError(
                            f"vector supported outside the window at {key[0]!r}")
                    row[k] = c / math.sqrt(ring._dim(key[0])) if scaled else c
            rows.append([c if c is not None else 0 for c in row])
        else:
            if len(v) != dim:
                raise ValueError(f"coordinate vector has length {len(v)}, expected {dim}")
            rows.append(list(v))
    return rows


def relative_dimension(algebra, vectors, F, n: int = 1) -> Fraction:
    """dim_F of the span of the given vectors of W_F^n: |F|^{-1} dim_C(span)."""
    ring = algebra.ring
    F = _require_conj_closed(ring, F)
    rows = coordinates_in_window(algebra, vectors, F, n)
    if not rows:
        return Fraction(0)
    M = exactla.ScalarMatrix.from_rows(rows, algebra.mode)
    rank, _ = exactla.rank_nullity(M)
    return Fraction(rank, weighted_size(ring, F))


def kernel_dim_estimate(T: MatrixOverPol, F, side: str = "right") -> DimensionEstimate:
    """The error sandwich for dim ker of multiplication by T over window F."""
    _check_operator(T, side)
    ring = T.algebra.ring
    F = _require_conj_closed(ring, F)
    return _estimate(T, boundary_decomposition(ring, F, T.support(), side=side))


def _estimate(T: MatrixOverPol, dec: BoundaryData) -> DimensionEstimate:
    """kernel_dim_estimate on the record ``dec`` of a conjugation-closed
    window, on its side; the weights are read off ``dec`` and the sorted
    window off the operator."""
    op = _restricted_operator(T, dec)
    rank, nullity = exactla.rank_nullity(op.matrix)
    # dimension theorem on W_{int}^n, in weighted counts
    if nullity + rank != T.n * dec.interior_weight:
        raise RuntimeError("rank-sum identity violated; kernel backend is broken")
    lower = Fraction(nullity, dec.window_weight)
    ratio = Fraction(dec.boundary_weight, dec.window_weight)
    return DimensionEstimate(
        lower=lower, upper=lower + T.n * ratio, window=op.window, n=T.n,
        boundary_ratio=ratio, window_weight=dec.window_weight,
        boundary_weight=dec.boundary_weight, interior_weight=dec.interior_weight,
        nullity=nullity, rank=rank, side=dec.side, degenerate=dec.interior_weight == 0)


def exact_mvn_dim_finite(T: MatrixOverPol, side: str = "right") -> Fraction:
    """Exact kernel dimension of multiplication by T on a finite provider.

    On an exact group ring it is the weighted sum of the nullities of the
    irreducible blocks of T, the same on both sides, and the full
    multiplication operator is never built. On finite:S3 the SVD ranks the
    full operator."""
    ring = T.algebra.ring
    if not ring.is_finite:
        raise AlgebraError(f"ring {ring.tag} is infinite; use kernel_dim_estimate")
    if T.is_zero() and side in ("right", "left"):
        return Fraction(T.n)
    _check_operator(T, side)  # a bad side raises here, for a zero T too
    if T.algebra.mode == EXACT:
        return _blocks.kernel_dim(T)
    op = full_mult_matrix(T, side=side)
    _, nullity = exactla.rank_nullity(op.matrix)
    # the columns span the whole coefficient space W^n of the finite ring
    return Fraction(nullity, op.matrix.shape[1] // T.n)

"""Exact and floating rank/nullspace kernels shared by every module.

Exact mode works over the Gaussian rationals and is field-exact; float mode
uses SVD with a relative singular-value threshold. An exact matrix is routed
by its shape and its leading rows, never by its size:

* tall or square (rows >= cols): nullity 0 is certified without arithmetic.
  Take each column's leading row, the smallest row index holding a nonzero
  entry. If every column is nonzero and these leading rows are pairwise
  distinct, then, ordered by leading row, the columns and their leading rows
  form a square lower-triangular submatrix with a nonzero diagonal, so the
  columns are independent over any field. Group-ring operators on Z^d and
  Heisenberg windows list rows and columns in sorted label order, which
  translation preserves, so an injective one passes this check. A wide
  matrix always has a kernel, so it skips the check;
* otherwise the answer is read off a sparse Gauss-Jordan RREF (sympy's
  DomainMatrix, division-based rather than fraction-free, so coefficients
  stay small on sparse operators), over QQ when every entry has a zero
  imaginary part and over QQ_I otherwise. The RREF is unique, so the domain
  changes only the speed: the rank is its number of pivots, the kernel basis
  comes from its free columns.

Every emitted kernel vector is re-verified: M v = 0 exactly, or
||M v|| <= 10 tol ||M|| ||v|| in float mode, with tol = DEFAULT_FLOAT_TOL
(which also sets the float rank's singular-value threshold). The exact check
runs on the vector's support only, through a column index of M built once
per call, before the vector is spread into a dense list. All paths are
deterministic, so identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .scalars import EXACT, FLOAT, QQI_ZERO, QQi

DEFAULT_FLOAT_TOL = 1e-9


class ScalarMatrix:
    """Rectangular matrix in one scalar mode.

    Exact storage is a sparse {(row, col): QQi} dict; float storage is a
    dense complex numpy array.
    """

    def __init__(self, mode: str, shape: tuple[int, int], entries=None, array=None):
        self.mode = mode
        self.shape = shape
        if mode == EXACT:
            self.entries = entries if entries is not None else {}
            self.array = None
        elif mode == FLOAT:
            self.array = array if array is not None else np.zeros(shape, dtype=complex)
            self.entries = None
        else:
            raise ValueError(f"unknown mode {mode!r}")

    @classmethod
    def from_entries(cls, entries: dict, shape: tuple[int, int], mode: str):
        rows, cols = shape
        for (r, c) in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside shape {shape}")
        if mode == EXACT:
            return cls(EXACT, shape, entries={k: v for k, v in entries.items() if v})
        arr = np.zeros(shape, dtype=complex)
        for (r, c), v in entries.items():
            arr[r, c] = complex(v)
        return cls(FLOAT, shape, array=arr)

    @classmethod
    def from_rows(cls, rows, mode: str):
        rows = [list(r) for r in rows]
        shape = (len(rows), len(rows[0]) if rows else 0)
        if any(len(r) != shape[1] for r in rows):
            raise ValueError("ragged rows")
        if mode == FLOAT:
            return cls(FLOAT, shape, array=np.array(rows, dtype=complex))
        entries = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                v = v if isinstance(v, QQi) else QQi(v)
                if v:
                    entries[(i, j)] = v
        return cls(EXACT, shape, entries=entries)

    def entry(self, r: int, c: int):
        if self.mode == EXACT:
            return self.entries.get((r, c), QQI_ZERO)
        return self.array[r, c]

    def matvec(self, v):
        rows, cols = self.shape
        if self.mode == FLOAT:
            return self.array @ np.asarray(v, dtype=complex)
        out = [QQI_ZERO] * rows
        for (r, c), e in self.entries.items():
            if v[c]:
                out[r] = out[r] + e * v[c]
        return out

    def is_finite(self) -> bool:
        return self.mode == EXACT or bool(np.isfinite(self.array).all())

    def __repr__(self):
        return f"<ScalarMatrix {self.mode} {self.shape[0]}x{self.shape[1]}>"


# ---------------------------------------------------------------------------
# float path

def _float_svd(M: ScalarMatrix):
    rows, cols = M.shape
    if rows == 0 or cols == 0:
        return 0, np.zeros((0,)), np.eye(cols, dtype=complex)
    _, sv, vh = np.linalg.svd(M.array)
    if sv.size == 0 or sv[0] == 0.0:
        return 0, sv, vh
    rank = int(np.count_nonzero(sv > DEFAULT_FLOAT_TOL * sv[0]))
    return rank, sv, vh


# ---------------------------------------------------------------------------
# certificate of a trivial kernel (tall or square): distinct leading rows

def _distinct_leading_rows(M: ScalarMatrix) -> bool:
    """True when every column has a nonzero entry and the columns' leading
    rows (smallest row index with a nonzero entry) are pairwise distinct.

    Then nullity is 0 over any field: ordered by leading row, the columns and
    their leading rows form a square lower-triangular submatrix with a
    nonzero diagonal. No arithmetic, O(nnz)."""
    rows, cols = M.shape
    lead: dict[int, int] = {}
    for (r, c), v in M.entries.items():
        if v and r < lead.get(c, rows):
            lead[c] = r
    return len(lead) == cols and len(set(lead.values())) == cols


def _certified_full_rank(M: ScalarMatrix) -> bool:
    """True when distinct leading rows prove nullity 0; a wide matrix always
    has a kernel, so it is never certified."""
    rows, cols = M.shape
    return rows >= cols and _distinct_leading_rows(M)


# ---------------------------------------------------------------------------
# exact Gauss-Jordan path (everything the certificate does not settle)

def _to_domain_matrix(M: ScalarMatrix):
    """M as a sparse DomainMatrix over QQ when every entry is real, else over
    QQ_I. The RREF is unique, so both give the same answer; QQ skips the
    Gaussian arithmetic."""
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    real = all(not v.im for v in M.entries.values())
    data: dict[int, dict[int, object]] = {}
    for (r, c), v in M.entries.items():
        x = QQ(v.re.numerator, v.re.denominator)
        if not real:
            x = QQ_I.new(x, QQ(v.im.numerator, v.im.denominator))
        data.setdefault(r, {})[c] = x
    return DomainMatrix(data, M.shape, QQ if real else QQ_I)


def _from_rational(q) -> QQi:
    return QQi(Fraction(int(q.numerator), int(q.denominator)))


def _from_gaussian(g) -> QQi:
    x, y = g.x, g.y
    return QQi(Fraction(int(x.numerator), int(x.denominator)),
               Fraction(int(y.numerator), int(y.denominator)))


def _sympy_rref(M: ScalarMatrix):
    # Gauss-Jordan with division keeps the entries of these sparse operators
    # small. DomainMatrix.nullspace() goes through the fraction-free rref_den
    # instead, whose coefficients grow very large: 84.6 s against 0.08 s
    # on a 593x670 Heisenberg Ore operator. Calling .nullspace() on the GJ
    # result would run that elimination again, so the basis is read straight
    # off the RREF, which is unique, so the basis is canonical.
    return _to_domain_matrix(M).rref(method="GJ")


# ---------------------------------------------------------------------------
# public surface

def rank_nullity(M: ScalarMatrix) -> tuple[int, int]:
    """(rank, nullity) with rank + nullity = cols; exact in exact mode."""
    cols = M.shape[1]
    if M.mode == FLOAT:
        if not M.is_finite():
            raise ValueError("matrix has non-finite entries")
        rank, _, _ = _float_svd(M)
        return rank, cols - rank
    if _certified_full_rank(M):
        return cols, 0
    _, pivots = _sympy_rref(M)
    return len(pivots), cols - len(pivots)


def nullspace_basis(M: ScalarMatrix) -> list:
    """Kernel basis, deterministic; exact vectors have leading entry 1,
    float vectors are unit-norm. Every vector is re-verified against M."""
    cols = M.shape[1]
    if M.mode == FLOAT:
        if not M.is_finite():
            raise ValueError("matrix has non-finite entries")
        rank, sv, vh = _float_svd(M)
        basis = [np.conj(vh[k]) for k in range(rank, cols)]
        scale = float(sv[0]) if sv.size else 0.0
        for v in basis:
            if np.linalg.norm(M.array @ v) > \
                    max(DEFAULT_FLOAT_TOL * scale, 1e-300) * np.linalg.norm(v) * 10:
                raise AssertionError("float kernel vector failed verification")
        return basis
    if _certified_full_rank(M):
        return []
    rref, pivots = _sympy_rref(M)
    convert = _from_rational if rref.domain.is_QQ else _from_gaussian
    by_col: dict[int, list] = {}
    for (r, c), e in M.entries.items():
        by_col.setdefault(c, []).append((r, e))
    out = []
    # the nullspace is sparse: one {col: entry} row per free column, in order;
    # each vector is normalised and checked on its support before it is
    # spread into a dense list
    for row in rref.nullspace_from_rref(pivots).rep.values():
        lead = row[min(row)]
        sparse = {c: convert(x / lead) for c, x in row.items()}
        image: dict[int, QQi] = {}
        for c, x in sparse.items():
            for r, e in by_col.get(c, ()):
                image[r] = image.get(r, QQI_ZERO) + e * x
        if any(image.values()):
            raise AssertionError("exact kernel vector failed verification")
        v = [QQI_ZERO] * cols
        for c, x in sparse.items():
            v[c] = x
        out.append(v)
    return out

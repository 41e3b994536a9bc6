"""Exact and floating rank/nullspace kernels shared by every module.

Both modes store a matrix as one sparse dict without zeros. Exact mode works
over the Gaussian rationals and is field-exact; float mode uses SVD with a
relative singular-value threshold, and the SVD is the only place a matrix is
made dense and numpy is imported. An exact matrix is routed by its shape and
its leading rows, never by its size:

* tall or square (rows >= cols): nullity 0 is certified without arithmetic.
  Take each column's leading row, the smallest row index holding a nonzero
  entry. If every column is nonzero and these leading rows are pairwise
  distinct, then, ordered by leading row, the columns and their leading rows
  form a square lower-triangular submatrix with a nonzero diagonal, so the
  columns are independent over any field. Group-ring operators on Z^d and
  Heisenberg windows list rows and columns in sorted label order, which
  translation preserves, so an injective one passes this check. A wide
  matrix always has a kernel, so it skips the check;
* otherwise the answer is read off the library's own sparse Gauss-Jordan
  RREF (``_rref``, division-based rather than fraction-free, so coefficients
  stay small on sparse operators), over ``Fraction`` when every entry has a
  zero imaginary part and over ``QQi`` otherwise. The RREF is unique, so the
  field changes only the speed: the rank is its number of pivots, the kernel
  basis comes from its free columns, in column order.

``nullspace_basis(M, limit=k)`` builds only the first k basis vectors, in
both modes; callers that read one vector ask for one. Every emitted kernel
vector is re-verified: M v = 0 exactly, or ||M v|| <= 10 tol ||M|| ||v|| in
float mode, with tol = DEFAULT_FLOAT_TOL (which also sets the float rank's
singular-value threshold). The exact check runs on the vector's support
only, through a column index of M built once per call, before the vector is
spread into a dense list. All paths are deterministic, so identical inputs
give bit-identical outputs.

Every float-mode zero decision in the library follows one rule: a value is
zero when it is small relative to the size of the inputs that produced it,
never against an absolute scale. Here that size is ||M||; polalg trims a
product against its factors and the solvers re-check a certificate against
its elements.
"""

from __future__ import annotations

import cmath

from .scalars import EXACT, FLOAT, QQI_ZERO, QQi, scalar_zero

DEFAULT_FLOAT_TOL = 1e-9


def _as_qqi(x) -> QQi:
    """An int, Fraction or QQi entry as a QQi."""
    return x if type(x) is QQi else QQi(x)


_SCALAR = {EXACT: _as_qqi, FLOAT: complex}  # a mode's entry type


class ScalarMatrix:
    """Rectangular matrix in one scalar mode, stored as a sparse
    {(row, col): entry} dict of QQi (exact) or complex (float) entries.

    The storage holds no zeros: the constructor drops them. Only the float
    kernel builds a dense array, so numpy is imported for float work only.
    """

    def __init__(self, mode: str, shape: tuple[int, int], entries=None):
        if mode not in _SCALAR:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.shape = shape
        entries = entries or {}
        self.entries = entries if all(entries.values()) else \
            {k: v for k, v in entries.items() if v}

    @classmethod
    def from_entries(cls, entries: dict, shape: tuple[int, int], mode: str):
        rows, cols = shape
        for (r, c) in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside shape {shape}")
        scalar = _SCALAR[mode]
        return cls(mode, shape, entries={k: scalar(v) for k, v in entries.items()})

    @classmethod
    def from_rows(cls, rows, mode: str):
        rows = [list(r) for r in rows]
        shape = (len(rows), len(rows[0]) if rows else 0)
        if any(len(r) != shape[1] for r in rows):
            raise ValueError("ragged rows")
        scalar = _SCALAR[mode]
        return cls(mode, shape, entries={(i, j): scalar(v) for i, row in enumerate(rows)
                                         for j, v in enumerate(row)})

    def entry(self, r: int, c: int):
        return self.entries.get((r, c), scalar_zero(self.mode))

    def matvec(self, v):
        out = [scalar_zero(self.mode)] * self.shape[0]
        for (r, c), e in self.entries.items():
            if v[c]:
                out[r] = out[r] + e * v[c]
        return out

    def is_finite(self) -> bool:
        # QQi entries are finite by type; converting one to complex may overflow
        return self.mode == EXACT or all(map(cmath.isfinite, self.entries.values()))

    def __repr__(self):
        return f"<ScalarMatrix {self.mode} {self.shape[0]}x{self.shape[1]}>"


# ---------------------------------------------------------------------------
# float path: the only dense matrices, and the only numpy

def _dense(M: ScalarMatrix):
    """A finite float M without its zero rows, as a dense array: a zero row
    changes neither the singular values nor V."""
    import numpy as np

    if not M.is_finite():
        raise ValueError("matrix has non-finite entries")
    index = {r: k for k, r in enumerate(sorted({r for r, _ in M.entries}))}
    A = np.zeros((len(index), M.shape[1]), dtype=complex)
    for (r, c), v in M.entries.items():
        A[index[r], c] = v
    return A


def _float_rank(sv) -> int:
    """The number of singular values above DEFAULT_FLOAT_TOL times the
    largest; sv is in descending order."""
    return int((sv > DEFAULT_FLOAT_TOL * sv[0]).sum()) if sv.size else 0


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
    for (r, c) in M.entries:
        if r < lead.get(c, rows):
            lead[c] = r
    return len(lead) == cols and len(set(lead.values())) == cols


def _certified_full_rank(M: ScalarMatrix) -> bool:
    """True when distinct leading rows prove nullity 0; a wide matrix always
    has a kernel, so it is never certified."""
    rows, cols = M.shape
    return rows >= cols and _distinct_leading_rows(M)


# ---------------------------------------------------------------------------
# exact Gauss-Jordan path (everything the certificate does not settle)

def _rref(M: ScalarMatrix):
    """(rows, pivots): the RREF of M, one {col: entry} row per pivot in pivot
    order, over Fraction when every entry is real and over QQi otherwise.

    Sparse Gauss-Jordan with division, after sympy's ``sdm_irref``: rows are
    sorted by leading column and taken from the last; each is reduced by the
    pivot rows before it, and its own pivot is then cancelled from them
    through a column -> pivot rows index. Division keeps the entries of these
    sparse operators small (fraction-free elimination took 84.6 s against
    0.08 s on a 593x670 Heisenberg Ore operator). A row whose pivot is 1 is
    not rescaled and one whose pivot is -1 is negated: on unit-coefficient
    group-ring operators most pivots are units, and the scaled row would
    equal the row in value and type."""
    real = all(not v.im for v in M.entries.values())
    by_row: dict[int, dict] = {}
    for (r, c), v in M.entries.items():
        by_row.setdefault(r, {})[c] = v.re if real else v
    todo = sorted(by_row.values(), key=min)
    pivot_row: dict[int, dict] = {}  # pivot column -> its reduced row
    in_col: dict[int, set] = {}  # column -> pivots whose row may have an entry there
    while todo:
        row = todo.pop()
        for p in pivot_row.keys() & row.keys():
            _axpy(row, -row.pop(p), pivot_row[p], p)
        if not row:
            continue
        p = min(row)
        lead = row[p]
        if lead == -1:
            row = {c: -x for c, x in row.items()}
        elif lead != 1:
            inv = 1 / lead
            row = {c: x * inv for c, x in row.items()}
        for k in in_col.pop(p, ()):
            other = pivot_row[k]
            if p in other:  # else cancelled since it was indexed
                for c in _axpy(other, -other.pop(p), row, p):
                    in_col.setdefault(c, set()).add(k)
        pivot_row[p] = row
        for c in row:
            if c != p:
                in_col.setdefault(c, set()).add(p)
    pivots = sorted(pivot_row)
    return [pivot_row[p] for p in pivots], pivots


def _axpy(row: dict, a, pivot: dict, p: int) -> list:
    """row += a * pivot off the pivot's column p, dropping cancelled
    entries; returns the columns that entered row."""
    new = []
    for c, y in pivot.items():
        if c == p:
            continue
        if c in row:
            z = row[c] + a * y
            if z:
                row[c] = z
            else:
                del row[c]
        else:
            row[c] = a * y
            new.append(c)
    return new


# ---------------------------------------------------------------------------
# public surface

def rank_nullity(M: ScalarMatrix) -> tuple[int, int]:
    """(rank, nullity) with rank + nullity = cols; exact in exact mode."""
    cols = M.shape[1]
    if M.mode == FLOAT:
        import numpy as np

        A = _dense(M)  # the rank needs the singular values only
        rank = _float_rank(np.linalg.svd(A, compute_uv=False)) if A.size else 0
        return rank, cols - rank
    if _certified_full_rank(M):
        return cols, 0
    _, pivots = _rref(M)
    return len(pivots), cols - len(pivots)


def nullspace_basis(M: ScalarMatrix, *, limit: int | None = None) -> list:
    """Kernel basis, deterministic; exact vectors have leading entry 1,
    float vectors are unit-norm. With ``limit``, only the first ``limit``
    vectors of that basis are built and returned, in the same order. Every
    returned vector is re-verified against M."""
    if limit is not None and limit < 0:
        raise ValueError("limit must be >= 0")
    cols = M.shape[1]
    if M.mode == FLOAT:
        import numpy as np

        A = _dense(M)
        if A.size:
            _, sv, vh = np.linalg.svd(A)
        else:
            sv, vh = np.zeros(0), np.eye(cols, dtype=complex)
        rank = _float_rank(sv)
        basis = [np.conj(vh[k]) for k in range(rank, cols)][:limit]
        scale = float(sv[0]) if sv.size else 0.0
        for v in basis:
            if np.linalg.norm(A @ v) > \
                    max(DEFAULT_FLOAT_TOL * scale, 1e-300) * np.linalg.norm(v) * 10:
                raise AssertionError("float kernel vector failed verification")
        return basis
    if _certified_full_rank(M):
        return []
    rows, pivots = _rref(M)
    # one sparse vector per wanted free column j, in order: at each pivot p,
    # minus the entry of p's RREF row in column j (only pivots p < j have one)
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set][:limit]
    kernel: dict[int, dict] = {j: {} for j in free}
    for p, row in zip(pivots, rows):
        for j in kernel.keys() & row.keys():
            kernel[j][p] = -row[j]
    by_col: dict[int, list] = {}
    for (r, c), e in M.entries.items():
        by_col.setdefault(c, []).append((r, e))
    out = []
    # 1 at j, normalised to leading entry 1 in the RREF's field, lifted into
    # QQi and checked on its support before it is spread into a dense list
    for j, row in kernel.items():
        inv = 1 / row[min(row)] if row else 1
        sparse = {c: _as_qqi(x * inv) for c, x in row.items()}
        sparse[j] = _as_qqi(inv)
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

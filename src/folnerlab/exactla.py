"""Exact and floating rank/nullspace kernels shared by every module.

Exact mode works over the Gaussian rationals and is field-exact; float mode
uses SVD with a relative singular-value threshold. An exact matrix is routed
by its shape and by its mod-p rank, never by its size:

* tall or square (rows >= cols): a mod-p rank lower bound is tried first
  (numpy elimination over GF(p), p = 1 mod 4 so that i exists).
  rank_p <= exact rank <= cols, so rank_p == cols certifies nullity 0
  exactly. A wide matrix always has a kernel, so it skips this step; so does
  a matrix with a denominator divisible by p, which has no image mod p;
* otherwise the answer is read off a sparse Gauss-Jordan RREF over QQ_I
  (sympy's DomainMatrix, division-based rather than fraction-free, so
  coefficients stay small on sparse operators): the rank is its number of
  pivots, the kernel basis comes from its free columns.

Every emitted kernel vector is re-verified: M v = 0 exactly, or
||M v|| <= tol ||M|| ||v|| in float mode. All paths are deterministic, so
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .scalars import EXACT, FLOAT, QQI_ONE, QQI_ZERO, QQi

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

def _float_svd(M: ScalarMatrix, tol: float):
    rows, cols = M.shape
    if rows == 0 or cols == 0:
        return 0, np.zeros((0,)), np.eye(cols, dtype=complex)
    _, sv, vh = np.linalg.svd(M.array)
    if sv.size == 0 or sv[0] == 0.0:
        return 0, sv, vh
    rank = int(np.count_nonzero(sv > tol * sv[0]))
    return rank, sv, vh


# ---------------------------------------------------------------------------
# exact modular certificate (tall or square matrices with a trivial kernel)

_PRIMES: list[tuple[int, int]] = []  # (p, omega) with omega^2 = -1 mod p


def _primes_1mod4(count: int = 8):
    if len(_PRIMES) >= count:
        return _PRIMES[:count]
    import sympy

    p = 2 ** 31 if not _PRIMES else _PRIMES[-1][0]
    while len(_PRIMES) < count:
        p = sympy.prevprime(p)
        if p % 4 != 1:
            continue
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        _PRIMES.append((p, pow(z, (p - 1) // 4, p)))
    return _PRIMES[:count]


def _modp_matrix(M: ScalarMatrix, p: int, omega: int) -> np.ndarray | None:
    """M reduced mod p with i -> omega, entries in [0, p); None when p divides
    a denominator, since such an entry has no image mod p.

    Each distinct coefficient is reduced once: an operator shares a few
    coefficient objects among all its entries, so reductions are cached by
    object (every entry is alive for the whole call, so ids are not reused)."""
    reduced: dict[int, int] = {}
    values = []
    for v in M.entries.values():
        x = reduced.get(id(v))
        if x is None:
            re, im = v.re, v.im
            if not (re.denominator % p and im.denominator % p):
                return None
            x = reduced[id(v)] = (re.numerator * pow(re.denominator, -1, p)
                                  + omega * im.numerator * pow(im.denominator, -1, p)) % p
        values.append(x)
    A = np.zeros(M.shape, dtype=np.int64)
    if values:
        A[tuple(np.array(list(M.entries), dtype=np.intp).T)] = values
    return A


def _modp_rank(A: np.ndarray, p: int) -> int:
    """In-place row echelon over GF(p), entries in [0, p); touches only rows
    that need work."""
    rows, cols = A.shape
    pr = 0
    for pc in range(cols):
        if pr == rows:
            break
        col = A[pr:, pc]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        r = pr + int(nz[0])
        if r != pr:
            A[[pr, r]] = A[[r, pr]]
        inv = pow(int(A[pr, pc]), p - 2, p)
        nzc = np.nonzero(A[pr])[0]
        last = int(nzc[-1]) + 1
        A[pr, pc:last] = (A[pr, pc:last] * inv) % p
        below = np.nonzero(A[pr + 1:, pc])[0]
        if below.size:
            rs = below + pr + 1
            f = A[rs, pc:pc + 1]
            A[rs, pc:last] = (A[rs, pc:last] - f * A[pr, pc:last]) % p
        pr += 1
    return pr


def _certified_full_rank(M: ScalarMatrix) -> bool:
    """True when a mod-p rank proves nullity 0; tried only where it can."""
    rows, cols = M.shape
    if rows < cols:
        return False  # a wide matrix always has a kernel
    p, omega = _primes_1mod4(1)[0]
    A = _modp_matrix(M, p, omega)
    return A is not None and _modp_rank(A, p) == cols  # rank_p <= rank <= cols


# ---------------------------------------------------------------------------
# exact Gauss-Jordan path (everything the certificate does not settle)

def _to_domain_matrix(M: ScalarMatrix):
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    data: dict[int, dict[int, object]] = {}
    for (r, c), v in M.entries.items():
        x = QQ(v.re.numerator, v.re.denominator)
        y = QQ(v.im.numerator, v.im.denominator)
        data.setdefault(r, {})[c] = QQ_I.new(x, y)
    return DomainMatrix(data, M.shape, QQ_I)


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


def _sympy_nullspace(M: ScalarMatrix):
    rref, pivots = _sympy_rref(M)
    ns = rref.nullspace_from_rref(pivots).to_sparse()
    basis = []
    items = ns.rep.to_dok().items()
    rows: dict[int, dict[int, QQi]] = {}
    for (r, c), v in items:
        rows.setdefault(r, {})[c] = _from_gaussian(v)
    cols = M.shape[1]
    for r in sorted(rows):
        vec = [QQI_ZERO] * cols
        for c, v in rows[r].items():
            vec[c] = v
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# public surface

def rank_nullity(M: ScalarMatrix, tol: float | None = None) -> tuple[int, int]:
    """(rank, nullity) with rank + nullity = cols; exact in exact mode."""
    rows, cols = M.shape
    if M.mode == FLOAT:
        if not M.is_finite():
            raise ValueError("matrix has non-finite entries")
        rank, _, _ = _float_svd(M, DEFAULT_FLOAT_TOL if tol is None else tol)
        return rank, cols - rank
    if rows == 0 or cols == 0 or not M.entries:
        return 0, cols
    if _certified_full_rank(M):
        return cols, 0
    _, pivots = _sympy_rref(M)
    return len(pivots), cols - len(pivots)


def nullspace_basis(M: ScalarMatrix, tol: float | None = None) -> list:
    """Kernel basis, deterministic; exact vectors have leading entry 1,
    float vectors are unit-norm. Every vector is re-verified against M."""
    rows, cols = M.shape
    if M.mode == FLOAT:
        if not M.is_finite():
            raise ValueError("matrix has non-finite entries")
        tol = DEFAULT_FLOAT_TOL if tol is None else tol
        rank, sv, vh = _float_svd(M, tol)
        basis = [np.conj(vh[k]) for k in range(rank, cols)]
        scale = float(sv[0]) if sv.size else 0.0
        for v in basis:
            if np.linalg.norm(M.array @ v) > max(tol * scale, 1e-300) * np.linalg.norm(v) * 10:
                raise AssertionError("float kernel vector failed verification")
        return basis
    if cols == 0:
        return []
    if rows == 0 or not M.entries:
        basis = []
        for c in range(cols):
            v = [QQI_ZERO] * cols
            v[c] = QQI_ONE
            basis.append(v)
        return basis
    if _certified_full_rank(M):
        return []
    out = []
    for v in _sympy_nullspace(M):
        lead = next(x for x in v if x)
        v = [x / lead if x else x for x in v]
        if any(M.matvec(v)):
            raise AssertionError("exact kernel vector failed verification")
        out.append(v)
    return out

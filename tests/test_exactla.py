"""Rank/nullspace kernels: the exact routes and the float path.

Exact matrices take one of two routes: tall or square ones try a mod-p rank
certificate of a trivial kernel, and everything else is read off a
Gauss-Jordan RREF over QQ_I. The references here are independent of both:
sympy's fraction-free elimination and a float SVD of the complex cast.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folnerlab.exactla as exactla
from folnerlab.exactla import ScalarMatrix, nullspace_basis, rank_nullity
from folnerlab.scalars import EXACT, FLOAT, QQi


def exact_matrix(rows):
    return ScalarMatrix.from_rows(rows, EXACT)


def test_all_ones_2x2():
    M = exact_matrix([[1, 1], [1, 1]])
    assert rank_nullity(M) == (1, 1)
    basis = nullspace_basis(M)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == QQi(1) and v[1] == QQi(-1)  # leading entry normalized to 1


def test_identity():
    for n in (1, 3, 7):
        M = exact_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        assert rank_nullity(M) == (n, 0)
        assert nullspace_basis(M) == []


def _bidiagonal():
    # the 5x4 window matrix of 1 - g on {-2..2}
    rows = [[0] * 4 for _ in range(5)]
    for k in range(4):
        rows[k][k] = 1
        rows[k + 1][k] = -1
    return exact_matrix(rows)


def test_bidiagonal_full_column_rank():
    assert rank_nullity(_bidiagonal()) == (4, 0)


def test_zero_matrix_nullspace_is_standard_basis():
    M = ScalarMatrix.from_entries({}, (3, 4), EXACT)
    assert rank_nullity(M) == (0, 4)
    basis = nullspace_basis(M)
    assert len(basis) == 4
    for c, v in enumerate(basis):
        assert v[c] == QQi(1)
        assert sum(1 for x in v if x) == 1


def test_empty_shapes():
    assert rank_nullity(ScalarMatrix.from_entries({}, (0, 5), EXACT)) == (0, 5)
    assert rank_nullity(ScalarMatrix.from_entries({}, (5, 0), EXACT)) == (0, 0)
    assert nullspace_basis(ScalarMatrix.from_entries({}, (5, 0), EXACT)) == []


def test_rank_permutation_invariant(rng):
    for _ in range(10):
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
                for _ in range(5)]
        M = exact_matrix(rows)
        rank, _ = rank_nullity(M)
        perm_r = rng.sample(range(5), 5)
        perm_c = rng.sample(range(6), 6)
        P = exact_matrix([[rows[i][j] for j in perm_c] for i in perm_r])
        assert rank_nullity(P)[0] == rank


def test_kernel_vectors_verify(rng):
    for _ in range(8):
        rows = [[rng.randint(-2, 2) for _ in range(7)] for _ in range(4)]
        M = exact_matrix(rows)
        for v in nullspace_basis(M):
            assert not any(M.matvec(v))


def test_gaussian_rational_entries(rng):
    # complex exact arithmetic: (i; 1) style dependencies
    M = ScalarMatrix.from_rows(
        [[QQi(0, 1), QQi(1)], [QQi(-1), QQi(0, 1)]], EXACT)  # [[i,1],[-1,i]]
    assert rank_nullity(M) == (1, 1)
    (v,) = nullspace_basis(M)
    assert v[0] == QQi(1)
    assert v[1] == QQi(0, -1)  # (1, -i) spans the kernel


def _sparse_gaussian_rational(rng):
    # Gaussian-rational entries with non-unit denominators, the kind of input
    # on which fraction-free elimination grows its coefficients
    if rng.random() < 0.6:
        return QQi(0)
    return QQi(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
               Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def test_gauss_jordan_kernel_agrees_with_fraction_free(rng):
    rows = []
    for _ in range(30):
        rows.append([Fraction(rng.randint(-4, 4)) for _ in range(26)])
    # plant two dependencies
    rows[28] = [a + b for a, b in zip(rows[0], rows[1])]
    rows[29] = [3 * a for a in rows[2]]
    cols = list(map(list, zip(*rows)))  # transpose: dependencies among columns
    gauss = [[_sparse_gaussian_rational(rng) for _ in range(24)] for _ in range(20)]
    gauss[19] = [a + QQi(0, 1) * b for a, b in zip(gauss[0], gauss[1])]
    matrices = [exact_matrix(cols), exact_matrix(gauss)]
    for M in matrices:
        want_rank, want_basis = _fraction_free_rank(M), _fraction_free_kernel(M)
        got_basis = nullspace_basis(M)
        assert rank_nullity(M) == (want_rank, M.shape[1] - want_rank)
        assert len(got_basis) == len(want_basis)
        assert got_basis == want_basis  # the RREF is unique, so is the basis
        for v in got_basis:
            assert not any(M.matvec(v))
            lead = next(x for x in v if x)
            assert lead == QQi(1)
    gauss_basis = nullspace_basis(matrices[1])
    assert len(gauss_basis) >= 5  # 20x24 with one planted row dependency
    # the kernel itself has Gaussian-rational entries, not just the input
    assert any(x.im or x.re.denominator > 1 for x in gauss_basis[0])


def test_large_fullrank_certified():
    n = 150
    entries = {(i, i): QQi(1) for i in range(n)}
    entries.update({(i + 1, i): QQi(-1) for i in range(n - 1)})
    M = ScalarMatrix.from_entries(entries, (n + 1, n), EXACT)
    assert rank_nullity(M) == (n, 0)
    assert nullspace_basis(M) == []


def test_float_rank_and_nullspace():
    arr = np.array([[1.0, 1.0], [1.0, 1.0]])
    M = ScalarMatrix(FLOAT, arr.shape, array=arr.astype(complex))
    assert rank_nullity(M) == (1, 1)
    (v,) = nullspace_basis(M)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.linalg.norm(arr @ v) < 1e-12


def test_float_rank_stable_under_small_noise():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((8, 6)) @ np.diag([1, 1, 1, 1, 0, 0]) \
        @ rng.standard_normal((6, 6))
    M = ScalarMatrix(FLOAT, base.shape, array=base.astype(complex))
    tol = 1e-9
    rank, _ = rank_nullity(M, tol)
    scale = np.linalg.svd(base, compute_uv=False)[0]
    for seed in range(5):
        noise = np.random.default_rng(seed).standard_normal(base.shape)
        noise *= 0.1 * tol * scale / np.linalg.norm(noise, 2)
        P = ScalarMatrix(FLOAT, base.shape, array=(base + noise).astype(complex))
        assert rank_nullity(P, tol)[0] == rank


def test_float_nonfinite_rejected():
    arr = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
    M = ScalarMatrix(FLOAT, arr.shape, array=arr)
    with pytest.raises(ValueError):
        rank_nullity(M)


def test_deterministic_outputs():
    rows = [[Fraction(1, 3), Fraction(-2), 1], [2, 0, QQi(0, 1)]]
    M = exact_matrix(rows)
    a = nullspace_basis(M)
    b = nullspace_basis(M)
    assert a == b
    assert rank_nullity(M) == rank_nullity(M)


def _banded_gaussian(rng, rows, cols):
    # every column has a nonzero diagonal entry, a subdiagonal one and one
    # more at random: non-unit denominators, Gaussian entries, a few values
    # shared between entries
    shared = [QQi(Fraction(rng.randint(1, 7), rng.randint(2, 5)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(4)]
    entries = {}
    for c in range(cols):
        for r in (c, c + 1, rng.randrange(rows)):
            entries[(r, c)] = rng.choice(shared) if rng.random() < 0.5 else \
                QQi(Fraction(rng.choice((-5, -3, -1, 1, 2, 4)), rng.randint(1, 6)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return entries


def _domain_matrix(M):
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    data = {}
    for (r, c), v in M.entries.items():
        data.setdefault(r, {})[c] = QQ_I.new(QQ(v.re.numerator, v.re.denominator),
                                             QQ(v.im.numerator, v.im.denominator))
    return DomainMatrix(data, M.shape, QQ_I)


def _sympy_rank(M):
    return _domain_matrix(M).rank()


def _fraction_free_rank(M):
    # rref_den eliminates fraction-free over QQ_I, unlike rank() and the
    # Gauss-Jordan RREF under test
    _, _, pivots = _domain_matrix(M).rref_den()
    return len(pivots)


def _fraction_free_kernel(M):
    """sympy's fraction-free nullspace, each vector scaled to leading entry 1."""
    basis = []
    for row in _domain_matrix(M).nullspace().to_list():
        v = [QQi(Fraction(int(g.x.numerator), int(g.x.denominator)),
                 Fraction(int(g.y.numerator), int(g.y.denominator))) for g in row]
        lead = next(x for x in v if x)
        basis.append([x / lead if x else x for x in v])
    return basis


def _spy(monkeypatch, name):
    calls = []
    orig = getattr(exactla, name)

    def wrapper(*args):
        out = orig(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(exactla, name, wrapper)
    return calls


def test_modp_reduction_agrees_with_sympy_rank(monkeypatch, rng):
    rows, cols = 140, 130
    full = _banded_gaussian(rng, rows, cols)
    # the same matrix with two planted column dependencies, so the mod-p
    # rank falls short and the rank comes from the RREF pivots
    dependent = dict(full)
    for c in (7, 90):
        for r in range(rows):
            dependent.pop((r, c), None)
        for (r, k), v in full.items():
            if k == c - 1:
                dependent[(r, c)] = v * QQi(Fraction(2, 3), 1)
    modp = _spy(monkeypatch, "_modp_matrix")
    rref = _spy(monkeypatch, "_sympy_rref")
    for entries, nullity, rrefs in ((full, 0, 0), (dependent, 2, 1)):
        M = ScalarMatrix.from_entries(entries, (rows, cols), EXACT)
        want = _sympy_rank(M)
        assert want == cols - nullity
        assert rank_nullity(M) == (want, cols - want)
        assert len(rref) == rrefs  # full rank is certified mod p alone
    assert len(modp) == 2
    assert all(A is not None for A in modp)  # p divides none of these denominators


def test_modp_prime_dividing_a_denominator_falls_back(monkeypatch, rng):
    rows, cols = 140, 130
    p, _ = exactla._primes_1mod4(1)[0]
    entries = _banded_gaussian(rng, rows, cols)
    entries[(3, 3)] = QQi(Fraction(5, p), Fraction(1, 2))
    entries[(60, 61)] = QQi(Fraction(1, 3), Fraction(-7, 2 * p))
    M = ScalarMatrix.from_entries(entries, (rows, cols), EXACT)
    want = _sympy_rank(M)
    modp = _spy(monkeypatch, "_modp_matrix")
    rref = _spy(monkeypatch, "_sympy_rref")
    assert rank_nullity(M) == (want, cols - want)
    assert modp == [None]  # no image mod p, so no certificate
    assert len(rref) == 1
    assert len(nullspace_basis(M)) == cols - want


def _shift_matrix(rows, cols, shift, coeff):
    """Row k holds 1 in column k and coeff in column k + shift."""
    entries = {(k, k): QQi(1) for k in range(rows)}
    entries.update({(k, k + shift): coeff for k in range(rows)})
    return ScalarMatrix.from_entries(entries, (rows, cols), EXACT)


def test_route_depends_on_shape_and_modp_rank(monkeypatch):
    modp = _spy(monkeypatch, "_modp_matrix")
    rref = _spy(monkeypatch, "_sympy_rref")
    # wide matrices always have a kernel: straight to the RREF
    wide = _shift_matrix(5, 6, 1, QQi(-1))  # v[k] = v[k + 1]
    assert rank_nullity(wide) == (5, 1)
    assert nullspace_basis(wide) == [[QQi(1)] * 6]
    wide = _shift_matrix(10, 12, 2, QQi(0, -1))  # v[k] = i v[k + 2]
    assert rank_nullity(wide) == (10, 2)
    powers = [QQi(1), QQi(0, -1), QQi(-1), QQi(0, 1)]  # (-i)^m, leading entry 1
    want = [[powers[j // 2 % 4] if j % 2 == parity else QQi(0) for j in range(12)]
            for parity in (0, 1)]
    assert nullspace_basis(wide) == want
    assert modp == []
    assert len(rref) == 4
    # a tall full-column-rank matrix is certified mod p, with no RREF
    tall = _bidiagonal()
    assert rank_nullity(tall) == (4, 0)
    assert nullspace_basis(tall) == []
    assert len(modp) == 2 and len(rref) == 4
    # a square matrix with a kernel tries the certificate, then the RREF
    square = exact_matrix([[1, 1], [1, 1]])
    assert rank_nullity(square) == (1, 1)
    assert len(modp) == 3 and len(rref) == 5


_GAUSSIAN_INTEGERS = st.builds(QQi, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _planted_matrices(draw):
    """Gaussian-integer matrices up to 8x8, tall, square or wide, some rows
    zeroed and some rows or columns replaced by combinations of others."""
    shape = draw(st.sampled_from(("tall", "square", "wide")))
    small = draw(st.integers(1, 7 if shape != "square" else 8))
    large = small if shape == "square" else draw(st.integers(small + 1, 8))
    n_rows, n_cols = (small, large) if shape == "wide" else (large, small)
    rows = [[draw(_GAUSSIAN_INTEGERS) for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero row", "row combination", "column combination")))
        if kind == "zero row":
            rows[draw(st.integers(0, n_rows - 1))] = [QQi(0)] * n_cols
            continue
        a, b = draw(_GAUSSIAN_INTEGERS), draw(_GAUSSIAN_INTEGERS)
        if kind == "row combination":
            t, x, y = (draw(st.integers(0, n_rows - 1)) for _ in range(3))
            rows[t] = [a * u + b * w for u, w in zip(rows[x], rows[y])]
        else:
            t, x, y = (draw(st.integers(0, n_cols - 1)) for _ in range(3))
            for row in rows:
                row[t] = a * row[x] + b * row[y]
    return rows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_planted_matrices())
def test_exact_routes_agree_with_independent_references(rows):
    M = exact_matrix(rows)
    cols = M.shape[1]
    rank = _fraction_free_rank(M)
    cast = np.array([[complex(x) for x in row] for row in rows])
    assert int(np.linalg.matrix_rank(cast)) == rank
    assert rank_nullity(M) == (rank, cols - rank)
    assert nullspace_basis(M) == _fraction_free_kernel(M)

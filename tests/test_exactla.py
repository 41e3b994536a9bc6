"""Rank/nullspace kernels: reference, modular-certified and float paths."""

from fractions import Fraction

import numpy as np
import pytest

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


def test_bidiagonal_full_column_rank():
    # the 5x4 window matrix of 1 - g on {-2..2}
    rows = [[0] * 4 for _ in range(5)]
    for k in range(4):
        rows[k][k] = 1
        rows[k + 1][k] = -1
    M = exact_matrix(rows)
    assert rank_nullity(M) == (4, 0)


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


def test_large_path_agrees_with_dense(monkeypatch, rng):
    # force the modular/sympy route on matrices the dense path can also do
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
    wants = [(rank_nullity(M), nullspace_basis(M)) for M in matrices]
    monkeypatch.setattr(exactla, "DENSE_EXACT_LIMIT", 4)
    for M, (want, want_basis) in zip(matrices, wants):
        got = rank_nullity(M)
        got_basis = nullspace_basis(M)
        assert got == want
        assert len(got_basis) == len(want_basis)
        assert got_basis == want_basis  # the RREF is unique, so is the basis
        for v in got_basis:
            assert not any(M.matvec(v))
            lead = next(x for x in v if x)
            assert lead == QQi(1)
    (_, gauss_nullity), gauss_basis = wants[1]
    assert gauss_nullity >= 5  # 20x24 with one planted row dependency
    # the kernel itself has Gaussian-rational entries, not just the input
    assert any(x.im or x.re.denominator > 1 for x in gauss_basis[0])


def test_large_fullrank_certified(monkeypatch):
    n = 150
    entries = {(i, i): QQi(1) for i in range(n)}
    entries.update({(i + 1, i): QQi(-1) for i in range(n - 1)})
    M = ScalarMatrix.from_entries(entries, (n + 1, n), EXACT)
    monkeypatch.setattr(exactla, "DENSE_EXACT_LIMIT", 10)
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


def _sympy_rank(M):
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    data = {}
    for (r, c), v in M.entries.items():
        data.setdefault(r, {})[c] = QQ_I.new(QQ(v.re.numerator, v.re.denominator),
                                             QQ(v.im.numerator, v.im.denominator))
    return DomainMatrix(data, M.shape, QQ_I).rank()


def _spy(monkeypatch, name):
    calls = []
    orig = getattr(exactla, name)

    def wrapper(*args):
        calls.append(name)
        return orig(*args)

    monkeypatch.setattr(exactla, name, wrapper)
    return calls


def test_modp_reduction_agrees_with_sympy_rank(monkeypatch, rng):
    rows, cols = 140, 130
    assert cols > exactla.DENSE_EXACT_LIMIT
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
    fallback = _spy(monkeypatch, "_scaled_modp_matrix")
    rref = _spy(monkeypatch, "_sympy_rref")
    for entries, nullity, rrefs in ((full, 0, 0), (dependent, 2, 1)):
        M = ScalarMatrix.from_entries(entries, (rows, cols), EXACT)
        want = _sympy_rank(M)
        assert want == cols - nullity
        assert rank_nullity(M) == (want, cols - want)
        assert len(rref) == rrefs  # full rank is certified mod p alone
    assert not fallback  # p divides none of these denominators


def test_modp_prime_dividing_a_denominator_falls_back(monkeypatch, rng):
    rows, cols = 140, 130
    p, _ = exactla._primes_1mod4(1)[0]
    entries = _banded_gaussian(rng, rows, cols)
    entries[(3, 3)] = QQi(Fraction(5, p), Fraction(1, 2))
    entries[(60, 61)] = QQi(Fraction(1, 3), Fraction(-7, 2 * p))
    M = ScalarMatrix.from_entries(entries, (rows, cols), EXACT)
    want = _sympy_rank(M)
    fallback = _spy(monkeypatch, "_scaled_modp_matrix")
    assert rank_nullity(M) == (want, cols - want)
    assert fallback
    assert len(nullspace_basis(M)) == cols - want

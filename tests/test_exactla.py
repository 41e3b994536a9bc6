"""Rank/nullspace kernels: the exact routes and the float path.

Exact matrices take one of two routes: tall or square ones try to certify a
trivial kernel from pairwise distinct leading rows, and everything else is
read off the library's own sparse Gauss-Jordan RREF, over Fraction when every
entry is real and over QQi otherwise. The references here are independent of
both: sympy, a test-only dependency, gives the fraction-free rank and
nullspace over QQ_I and the Gauss-Jordan RREF that the library's must equal
entry for entry; a float SVD of the complex cast gives the float rank.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folnerlab.exactla as exactla
from folnerlab.exactla import (DEFAULT_FLOAT_TOL, ScalarMatrix, nullspace_basis,
                              rank_nullity)
from folnerlab.scalars import EXACT, FLOAT, QQi

from conftest import domain_matrix, fraction_free_rank


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
    # no rows: the sparse RREF has no pivots and every column is free
    assert nullspace_basis(ScalarMatrix.from_entries({}, (0, 3), EXACT)) == \
        [[QQi(int(r == c)) for r in range(3)] for c in range(3)]
    assert rank_nullity(ScalarMatrix.from_entries({}, (0, 0), EXACT)) == (0, 0)
    assert nullspace_basis(ScalarMatrix.from_entries({}, (0, 0), EXACT)) == []


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
        want_rank, want_basis = fraction_free_rank(M), _fraction_free_kernel(M)
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
    M = ScalarMatrix.from_rows(arr, FLOAT)
    assert rank_nullity(M) == (1, 1)
    (v,) = nullspace_basis(M)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.linalg.norm(arr @ v) < 1e-12


def test_float_rank_asks_for_no_singular_vectors(monkeypatch):
    # the rank reads the singular values only; the kernel needs V^H, and a
    # matrix without entries needs no SVD at all
    calls = []
    svd = np.linalg.svd

    def recording(A, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    M = ScalarMatrix.from_rows(np.array([[1.0, 1.0], [1.0, 1.0]]), FLOAT)
    assert rank_nullity(M) == (1, 1)
    assert len(nullspace_basis(M)) == 1
    empty = ScalarMatrix(FLOAT, (2, 3))
    assert rank_nullity(empty) == (0, 3)
    assert len(nullspace_basis(empty)) == 3
    assert calls == [False, True]


def test_limit_slices_the_float_basis_and_rejects_negatives():
    empty = ScalarMatrix(FLOAT, (2, 3))
    full = nullspace_basis(empty)
    for k in (0, 2, 5):
        got = nullspace_basis(empty, limit=k)
        assert len(got) == min(k, 3)
        assert all(np.array_equal(v, w) for v, w in zip(got, full))
    with pytest.raises(ValueError):
        nullspace_basis(exact_matrix([[1, 1]]), limit=-1)


def test_float_rank_stable_under_small_noise():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((8, 6)) @ np.diag([1, 1, 1, 1, 0, 0]) \
        @ rng.standard_normal((6, 6))
    M = ScalarMatrix.from_rows(base, FLOAT)
    tol = DEFAULT_FLOAT_TOL
    rank, _ = rank_nullity(M)
    scale = np.linalg.svd(base, compute_uv=False)[0]
    for seed in range(5):
        noise = np.random.default_rng(seed).standard_normal(base.shape)
        noise *= 0.1 * tol * scale / np.linalg.norm(noise, 2)
        P = ScalarMatrix.from_rows(base + noise, FLOAT)
        assert rank_nullity(P)[0] == rank


def test_float_kernel_ignores_zero_rows():
    # the padded square operator of ore_pair has a block of zero rows: the
    # rank and the kernel vectors are those of the matrix without them
    rng = np.random.default_rng(3)
    base = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 7))
    padded = np.zeros((9, 7))
    padded[[0, 2, 3, 6]] = base
    M, P = (ScalarMatrix.from_rows(a, FLOAT) for a in (base, padded))
    assert rank_nullity(P) == rank_nullity(M) == (3, 4)
    for v, w in zip(nullspace_basis(P), nullspace_basis(M), strict=True):
        assert np.array_equal(v, w)
        assert np.linalg.norm(padded @ v) < 1e-12


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("kernel", [rank_nullity, nullspace_basis])
def test_float_nonfinite_rejected(bad, kernel):
    M = ScalarMatrix.from_rows([[bad, 0.0], [0.0, 1.0]], FLOAT)
    with pytest.raises(ValueError):
        kernel(M)


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
    return domain_matrix(M).rank()


def _from_sympy(g) -> QQi:
    """A sympy QQ_I element as a QQi."""
    return QQi(Fraction(int(g.x.numerator), int(g.x.denominator)),
               Fraction(int(g.y.numerator), int(g.y.denominator)))


def _sympy_gauss_jordan(M):
    """sympy's sparse Gauss-Jordan RREF over QQ_I, in the shape of
    exactla._rref's result: one {col: entry} row per pivot, and the pivots."""
    rref, pivots = domain_matrix(M).rref(method="GJ")
    rows = [{c: _from_sympy(g) for c, g in row.items()} for _, row in sorted(rref.rep.items())]
    return rows, list(pivots)


def _fraction_free_kernel(M):
    """sympy's fraction-free nullspace, each vector scaled to leading entry 1."""
    basis = []
    for row in domain_matrix(M).nullspace().to_list():
        v = [_from_sympy(g) for g in row]
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


def test_banded_gaussian_rank_agrees_with_sympy_rank(rng):
    rows, cols = 140, 130
    full = _banded_gaussian(rng, rows, cols)
    # the same matrix with two planted column dependencies
    dependent = dict(full)
    for c in (7, 90):
        for r in range(rows):
            dependent.pop((r, c), None)
        for (r, k), v in full.items():
            if k == c - 1:
                dependent[(r, c)] = v * QQi(Fraction(2, 3), 1)
    for entries, nullity in ((full, 0), (dependent, 2)):
        M = ScalarMatrix.from_entries(entries, (rows, cols), EXACT)
        want = _sympy_rank(M)
        assert want == cols - nullity
        assert rank_nullity(M) == (want, cols - want)
        assert exactla._rref(M) == _sympy_gauss_jordan(M)


def _shift_matrix(rows, cols, shift, coeff):
    """Row k holds 1 in column k and coeff in column k + shift."""
    entries = {(k, k): QQi(1) for k in range(rows)}
    entries.update({(k, k + shift): coeff for k in range(rows)})
    return ScalarMatrix.from_entries(entries, (rows, cols), EXACT)


def test_route_depends_on_shape_and_leading_rows(monkeypatch):
    rref = _spy(monkeypatch, "_rref")
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
    assert len(rref) == 4
    # tall with distinct leading rows: certified with no arithmetic at all
    for tall in (_bidiagonal(), exact_matrix([[1, 0], [0, 1], [1, 1]])):
        assert rank_nullity(tall) == (tall.shape[1], 0)
        assert nullspace_basis(tall) == []
    assert len(rref) == 4
    # full column rank, but both columns lead in row 0: the RREF decides
    shared = exact_matrix([[1, 1], [1, 2], [0, 0]])
    assert rank_nullity(shared) == (2, 0)
    assert len(rref) == 5
    assert nullspace_basis(shared) == []
    # a square matrix with a kernel fails the check, then takes the RREF
    square = exact_matrix([[1, 1], [1, 1]])
    assert rank_nullity(square) == (1, 1)
    assert len(rref) == 7


_GAUSSIAN_INTEGERS = st.builds(QQi, st.integers(-3, 3), st.integers(-3, 3))
_REAL_INTEGERS = st.builds(QQi, st.integers(-3, 3))


@st.composite
def _planted_matrices(draw):
    """Gaussian-integer or real integer matrices up to 8x8, tall, square or
    wide, some rows zeroed and some rows or columns replaced by combinations
    of others."""
    shape = draw(st.sampled_from(("tall", "square", "wide")))
    small = draw(st.integers(1, 7 if shape != "square" else 8))
    large = small if shape == "square" else draw(st.integers(small + 1, 8))
    n_rows, n_cols = (small, large) if shape == "wide" else (large, small)
    scalars = draw(st.sampled_from((_GAUSSIAN_INTEGERS, _REAL_INTEGERS)))
    rows = [[draw(scalars) for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero row", "row combination", "column combination")))
        if kind == "zero row":
            rows[draw(st.integers(0, n_rows - 1))] = [QQi(0)] * n_cols
            continue
        a, b = draw(scalars), draw(scalars)
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
    rank = fraction_free_rank(M)
    cast = np.array([[complex(x) for x in row] for row in rows])
    assert int(np.linalg.matrix_rank(cast)) == rank
    assert rank_nullity(M) == (rank, cols - rank)
    basis = nullspace_basis(M)
    assert basis == _fraction_free_kernel(M)
    for k in (0, 1, cols):
        assert nullspace_basis(M, limit=k) == basis[:k]
    real = all(not x.im for row in rows for x in row)
    reduced = exactla._rref(M)
    assert reduced == _sympy_gauss_jordan(M)
    field = Fraction if real else QQi
    assert all(type(x) is field for row in reduced[0] for x in row.values())
    # i M has the kernel of M; a real M and its imaginary multiple take the
    # RREF over Fraction and over QQi respectively
    rotated = exact_matrix([[QQi(0, 1) * x for x in row] for row in rows])
    assert (rank_nullity(rotated), nullspace_basis(rotated)) == \
        (rank_nullity(M), basis)


def test_kernel_check_rejects_a_wrong_rref(monkeypatch):
    # the RREF of another matrix of the same shape: its kernel vector (1, 1)
    # is not in the kernel of M, whose kernel is spanned by (1, -1)
    M = exact_matrix([[1, 1], [1, 1]])
    other = exact_matrix([[1, -1], [1, -1]])
    orig = exactla._rref
    monkeypatch.setattr(exactla, "_rref", lambda _: orig(other))
    with pytest.raises(AssertionError):
        nullspace_basis(M)


# ---------------------------------------------------------------------------
# the leading-row certificate

@pytest.mark.parametrize("entries,shape,rank", [
    # column 2 is zero; columns 0 and 1 lead in distinct rows
    ({(0, 0): QQi(1), (1, 1): QQi(2), (2, 0): QQi(0, 1)}, (3, 3), 2),
    # a stored zero is not a leading entry: both columns lead in row 1
    ({(0, 0): QQi(0), (1, 0): QQi(1), (1, 1): QQi(1), (2, 1): QQi(3)}, (3, 2), 2),
    # both columns lead in row 0 and are proportional
    ({(0, 0): QQi(1), (0, 1): QQi(0, 1), (2, 0): QQi(2), (2, 1): QQi(0, 2)}, (3, 2), 1),
    # singular square, stored so that the first entry met in each column
    # sits in a different row
    ({(0, 0): QQi(1), (1, 1): QQi(1), (0, 1): QQi(1), (1, 0): QQi(1)}, (2, 2), 1),
])
def test_leading_row_certificate_rejects(entries, shape, rank):
    M = ScalarMatrix(EXACT, shape, entries=entries)
    assert not exactla._distinct_leading_rows(M)
    assert rank_nullity(M) == (rank, shape[1] - rank)


@pytest.mark.parametrize("entries,shape,rank", [
    # wide: straight to the RREF, where a stored zero would become a pivot
    ({(0, 0): QQi(0), (0, 1): QQi(1), (1, 1): QQi(1), (1, 2): QQi(1)}, (2, 3), 2),
    ({(0, 0): QQi(0)}, (1, 1), 0),
    # float storage is the same sparse dict and drops a stored 0j
    ({(0, 0): 0j, (0, 1): 1 + 0j, (1, 1): 1 + 0j, (1, 2): 1 + 0j}, (2, 3), 2),
])
def test_constructor_drops_stored_zeros(entries, shape, rank):
    mode = FLOAT if type(entries[(0, 0)]) is complex else EXACT
    M = ScalarMatrix(mode, shape, entries=entries)
    assert all(M.entries.values())
    assert rank_nullity(M) == (rank, shape[1] - rank)
    basis = nullspace_basis(M)
    assert len(basis) == shape[1] - rank
    for v in basis:
        image = M.matvec(v)
        assert not any(image) if mode == EXACT else np.linalg.norm(image) < 1e-12


_NONZERO_GAUSSIAN = _GAUSSIAN_INTEGERS.filter(bool)
_SPARSE_GAUSSIAN = st.one_of(st.just(QQi(0)), st.just(QQi(0)), _GAUSSIAN_INTEGERS)


@st.composite
def _leading_row_matrices(draw):
    """Tall or square sparse Gaussian-integer matrices up to 6x6, built with
    pairwise distinct leading rows (zeros above a nonzero entry, anything
    below), then sometimes spoiled: a column zeroed, or one column moved to
    lead in another's leading row."""
    n_cols = draw(st.integers(1, 6))
    n_rows = draw(st.integers(n_cols, 6))
    leads = draw(st.permutations(range(n_rows)))[:n_cols]
    rows = [[QQi(0)] * n_cols for _ in range(n_rows)]
    for c, lead in enumerate(leads):
        rows[lead][c] = draw(_NONZERO_GAUSSIAN)
        for r in range(lead + 1, n_rows):
            rows[r][c] = draw(_SPARSE_GAUSSIAN)
    spoils = ["none", "zero column"] + (["shared leading row"] if n_cols > 1 else [])
    spoil = draw(st.sampled_from(spoils))
    if spoil == "zero column":
        c = draw(st.integers(0, n_cols - 1))
        for row in rows:
            row[c] = QQi(0)
    elif spoil == "shared leading row":
        a, b = draw(st.permutations(range(n_cols)))[:2]
        for r in range(leads[a]):
            rows[r][b] = QQi(0)
        rows[leads[a]][b] = draw(_NONZERO_GAUSSIAN)
        if draw(st.booleans()):  # b a multiple of a: a kernel
            scale = draw(_NONZERO_GAUSSIAN)
            for row in rows:
                row[b] = scale * row[a]
    return rows, spoil == "none"


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_leading_row_matrices())
def test_leading_row_certificate_is_sound(drawn):
    rows, distinct = drawn
    M = exact_matrix(rows)
    cols = M.shape[1]
    rank = fraction_free_rank(M)
    certified = exactla._distinct_leading_rows(M)
    assert certified == distinct
    if certified:
        assert rank == cols
    assert rank_nullity(M) == (rank, cols - rank)

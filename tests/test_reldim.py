"""Relative dimension, the error sandwich, and the finite brute-force oracle."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from folnerlab import (AlgebraError, MatrixOverPol, algebra_for, ball,
                       conjugation_closure, exact_mvn_dim_finite, folner_search, full_mult_matrix,
                       group_quotient_tower, kernel_dim_estimate, rank_nullity,
                       relative_dimension, restricted_mult_matrix,
                       tower_kernel_dims)
from folnerlab.polalg import _basis_triples
from folnerlab.scalars import FLOAT

from conftest import fraction_free_rank, laurent_rank, random_element

AZ = algebra_for("group:Z")
AZ2 = algebra_for("group:Z^2")
AZMOD2 = algebra_for("group:Z/2")
AZ6 = algebra_for("group:Z/6")
AS3 = algebra_for("finite:S3")
ASU2 = algebra_for("su2")
AHEIS = algebra_for("group:heisenberg")


def box2(N):
    return [(i, j) for i in range(-N, N + 1) for j in range(-N, N + 1)]


# ---------------------------------------------------------------------------
# relative_dimension

def _empty_window_calls():
    T = MatrixOverPol.from_element(AZ2.one() - AZ2.group_element((1, 0)))
    return {
        "kernel_dim_estimate": lambda: kernel_dim_estimate(T, []),
        "tower_kernel_dims": lambda: tower_kernel_dims(T, group_quotient_tower(AZ2, [2]), []),
        "relative_dimension": lambda: relative_dimension(AZ2, [[]], []),
        "folner_search": lambda: folner_search(AZ2.ring, [(1, 0)], 1, 3, windows=[[]]),
    }


@pytest.mark.parametrize("call", sorted(_empty_window_calls()))
def test_empty_window_is_a_value_error(call):
    # weighted counts divide by |F|; the empty window is bad input, not 0/0
    with pytest.raises(ValueError, match="empty"):
        _empty_window_calls()[call]()


def test_relative_dimension_zero_and_full():
    F = list(range(-2, 3))
    assert relative_dimension(AZ, [], F) == 0
    full = [AZ.group_element({k: 1}) for k in F]
    assert relative_dimension(AZ, full, F) == 1  # n = 1, dim_C = |F|


def test_relative_dimension_full_space_is_n():
    F = AS3.ring.irreducibles()
    n = 2
    vectors = []
    for comp in range(n):
        for (label, i, j) in _basis_triples(AS3.ring, F):
            tup = [AS3.zero()] * n
            tup[comp] = AS3.basis(label, i, j)
            vectors.append(tuple(tup))
    assert relative_dimension(AS3, vectors, F, n=n) == n


def test_relative_dimension_s3_example():
    F = AS3.ring.irreducibles()
    val = relative_dimension(AS3, [AS3.basis("std", 1, 1)], F)
    assert val == Fraction(1, 6)


@pytest.mark.parametrize("algebra, F, terms, row, expected", [
    (ASU2, [0, 1], {0: 1, (1, 1, 1): 1}, [1, 2 ** -0.5, 0, 0, 0], Fraction(1, 5)),
    (AS3, ["triv", "sgn", "std"], {"triv": 1, ("std", 1, 2): 1},
     [1, 0, 0, 2 ** -0.5, 0, 0], Fraction(1, 6)),
], ids=["su2", "S3"])
def test_element_coordinates_are_orthonormal(algebra, F, terms, row, expected):
    # the coefficient c of u^a_ij is the coordinate c / sqrt(n_a) of the
    # orthonormal basis vector sqrt(n_a) u^a_ij: x and its own coordinate
    # row span one line
    x = algebra.element(terms)
    assert relative_dimension(algebra, [x, row], F) == expected


def test_relative_dimension_requires_window_support():
    with pytest.raises(ValueError):
        relative_dimension(AZ, [AZ.group_element({5: 1})], range(-2, 3))


def test_relative_dimension_requires_conj_closed():
    with pytest.raises(ValueError):
        relative_dimension(AZ, [], [0, 1])  # conj(1) = -1 missing


def test_relative_dimension_monotone_under_nesting(rng):
    F = list(range(-3, 4))
    vs = [AZ.group_element({k: rng.randint(-3, 3) for k in F}) for _ in range(5)]
    for cut in range(1, 6):
        d1 = relative_dimension(AZ, vs[:cut - 1], F)
        d2 = relative_dimension(AZ, vs[:cut], F)
        assert 0 <= d1 <= d2 <= 1


# ---------------------------------------------------------------------------
# kernel_dim_estimate

def test_estimate_z_one_minus_g():
    a = AZ.group_element({0: 1, 1: -1})
    T = MatrixOverPol.from_element(a)
    for N in (2, 5, 11):
        est = kernel_dim_estimate(T, range(-N, N + 1))
        assert est.lower == 0
        assert est.upper == Fraction(1, 2 * N + 1)
        assert est.boundary_ratio == Fraction(1, 2 * N + 1)
        assert est.nullity == 0 and est.rank == 2 * N
        assert not est.degenerate


def test_estimate_sorts_window_and_interior_once(monkeypatch):
    # the operator sorts the window once, filters the interior out of the
    # sorted window, and the estimate reuses the operator's window
    from folnerlab.fusion import FusionRing

    sorted_sizes = []
    sort = FusionRing.sorted_labels

    def recording(ring, labels):
        out = sort(ring, labels)
        sorted_sizes.append(len(out))
        return out

    monkeypatch.setattr(FusionRing, "sorted_labels", recording)
    lap = AZ2.group_element({(0, 0): 4, (1, 0): -1, (-1, 0): -1,
                             (0, 1): -1, (0, -1): -1})
    est = kernel_dim_estimate(MatrixOverPol.from_element(lap), box2(4))
    assert sorted_sizes == [9 * 9]  # the window; the interior is read off it
    assert est.window == tuple(sorted(box2(4)))


@pytest.mark.parametrize("side", ["right", "left"])
def test_estimate_leaves_the_outer_boundary_unread(monkeypatch, side):
    # the bracket reads the interior and the inner boundary only: each label
    # of F meets each v in S at most once, and the Frobenius pass behind the
    # coboundary runs only when the coboundary is read
    import folnerlab.reldim
    from folnerlab.fusion import BoundaryData

    ring, N = AZ2.ring, 10
    a = AZ2.group_element({(0, 0): 3, (1, 0): -1, (0, 1): 2, (-1, 1): 1})
    S = a.support()
    records, estimate = [], folnerlab.reldim._estimate

    def recording(T, dec):
        records.append(dec)
        return estimate(T, dec)

    def forbidden(self):
        raise AssertionError("coboundary computed")

    monkeypatch.setattr(folnerlab.reldim, "_estimate", recording)
    monkeypatch.setattr(BoundaryData, "coboundary", property(forbidden))
    calls = _counting_mul(monkeypatch, ring)  # every product of the group ring
    F = box2(N)
    kernel_dim_estimate(MatrixOverPol.from_element(a), F, side=side)
    monkeypatch.undo()
    assert 0 < len(calls) <= len(F) * len(S)

    # read afterwards, it is the literal bd_S(F^c) = {u not in F : some
    # u v (v u on the left) lies in F}; S lies in the 3x3 cell, so every
    # such u lies in the box of radius N + 1
    (dec,) = records
    mul = ring._mul
    F = frozenset(F)
    direct = {u for u in box2(N + 1) if u not in F
              and any((mul(u, v) if side == "right" else mul(v, u)) in F for v in S)}
    assert dec.coboundary == direct
    assert dec.symmetric_boundary == dec.boundary | direct


def _counting_mul(monkeypatch, ring) -> list:
    """Record every call of the group law of ``ring``; _support and the
    algebra's products go through it too."""
    calls, mul = [], ring._mul

    def counting(g, h):
        calls.append(None)
        return mul(g, h)

    monkeypatch.setattr(ring, "_mul", counting)
    return calls


# an Ore pair on the radius-6 Heisenberg ball, from a cold ball cache:
# the ball, its shell boundary, the operator over the interior and the
# residual check
ORE_RADIUS6_MULS = 2665


@pytest.mark.parametrize("side", ["right", "left"])
def test_window_estimate_makes_one_product_per_translate(monkeypatch, side):
    # the decomposition of a whole window forms each translate x h (h x on
    # the left), x in F, h in S, once; the operator copies T's coefficients
    # to their rows and multiplies nothing
    heis_window = conjugation_closure(AHEIS.ring, [(a, b, c) for a in range(-2, 3)
                                                   for b in range(-2, 3) for c in range(-2, 3)])
    for algebra, F, terms in [
            (AZ2, box2(6), {(0, 0): 3, (1, 0): -1, (0, 1): (0, 2), (-1, 1): 1}),
            (AHEIS, heis_window, {(0, 0, 0): 2, (1, 0, 0): -1, (0, 1, 0): (1, 1)})]:
        a = algebra.group_element(terms)
        for T in (MatrixOverPol.from_element(a),
                  MatrixOverPol(algebra, [[a, algebra.zero()], [algebra.one() - a, a]])):
            calls = _counting_mul(monkeypatch, algebra.ring)
            kernel_dim_estimate(T, F, side=side)
            monkeypatch.undo()
            assert len(calls) == len(F) * len(T.support())


def test_ore_pair_products_are_pinned(monkeypatch):
    from folnerlab import OrePair, ore_pair

    ring = AHEIS.ring
    monkeypatch.setattr(ring, "_ball_cache", {})
    calls = _counting_mul(monkeypatch, ring)
    pair = ore_pair(AHEIS.group_element((1, 0, 0)), AHEIS.group_element((0, 1, 0)))
    assert isinstance(pair, OrePair) and pair.radius == 6
    assert len(calls) == ORE_RADIUS6_MULS


def test_finite_dimension_decomposes_no_window(monkeypatch):
    # the whole finite ring is its own interior; nothing is decomposed
    import folnerlab.fusion
    import folnerlab.polalg

    def forbidden(*args, **kwargs):
        raise AssertionError("boundary_decomposition called")

    for module in (folnerlab.fusion, folnerlab.polalg):
        monkeypatch.setattr(module, "boundary_decomposition", forbidden)
    A = algebra_for("group:Z/4xZ/4")
    p = A.group_element({(0, 0): 2, (1, 0): -1, (0, 1): -1})
    assert exact_mvn_dim_finite(MatrixOverPol.from_element(p)) == Fraction(1, 16)
    # 1 + sgn vanishes on the three odd permutations
    one_plus_sgn = AS3.one() + AS3.basis("sgn")
    assert exact_mvn_dim_finite(MatrixOverPol.from_element(one_plus_sgn)) == Fraction(1, 2)


def test_finite_group_ring_dimension_never_builds_the_full_operator(monkeypatch):
    # exact group rings go through their irreducible blocks; every matrix
    # ranked is a realified block, far smaller than the |G| x |G| operator
    import folnerlab.exactla
    import folnerlab.polalg
    import folnerlab.reldim

    def forbidden(*args, **kwargs):
        raise AssertionError("full multiplication operator built")

    monkeypatch.setattr(folnerlab.polalg, "full_mult_matrix", forbidden)
    monkeypatch.setattr(folnerlab.reldim, "full_mult_matrix", forbidden)
    monkeypatch.setattr(folnerlab.polalg, "_restricted_operator", forbidden)
    monkeypatch.setattr(folnerlab.reldim, "_restricted_operator", forbidden)
    shapes = []
    rank = folnerlab.exactla.rank_nullity

    def recording(M):
        shapes.append(M.shape)
        return rank(M)

    monkeypatch.setattr(folnerlab.exactla, "rank_nullity", recording)
    H = algebra_for("group:heisenberg/6")
    x, y = H.basis((1, 0, 0)), H.basis((0, 1, 0))
    a = H.one() * 3 - x - x.star() - y
    cases = [(MatrixOverPol.from_element(a), Fraction(1, 216)),
             (MatrixOverPol(H, [[a, y], [a, y]]), Fraction(1)),
             (MatrixOverPol.from_element(
                 algebra_for("group:Z/8xZ/4").group_element(
                     {(0, 0): (1, 1), (1, 2): (-1, -1)})), Fraction(1, 8))]
    for T, dim in cases:
        assert exact_mvn_dim_finite(T) == dim
    assert shapes and max(cols for _, cols in shapes) <= 2 * 6 * 2  # n d phi(6)


def test_estimate_z2_projection_full_window():
    p = AZMOD2.group_element({0: Fraction(1, 2), 1: Fraction(1, 2)})
    est = kernel_dim_estimate(MatrixOverPol.from_element(p), [0, 1])
    assert est.lower == est.upper == Fraction(1, 2)
    assert est.boundary_weight == 0


def test_estimate_z2_laplacian_box():
    lap = AZ2.group_element({(0, 0): 4, (1, 0): -1, (-1, 0): -1,
                             (0, 1): -1, (0, -1): -1})
    est = kernel_dim_estimate(MatrixOverPol.from_element(lap), box2(4))
    assert est.lower == 0  # C[Z^2] is a domain: restricted kernel trivial


def test_estimate_degenerate_interior():
    # an empty interior is a 0-column operator: rank 0, nullity 0, [0, n]
    a = AZ.group_element({0: 1, 9: 1})
    su2 = ASU2.element({0: 1.0, 1: -0.25, (1, 2, 1): 0.5j})
    lap = AZ2.group_element({(0, 0): 4, (1, 0): -1, (-1, 0): -1})
    cases = [(MatrixOverPol.from_element(a), [-1, 0, 1]),
             (MatrixOverPol.from_element(su2), [0]),
             (MatrixOverPol(AZ2, [[lap, AZ2.zero()], [AZ2.one(), lap]]), [(0, 0)])]
    for T, F in cases:
        est = kernel_dim_estimate(T, F)
        assert est.degenerate
        assert (est.lower, est.upper) == (0, T.n)
        assert (est.rank, est.nullity, est.interior_weight) == (0, 0, 0)
        assert est.boundary_weight == est.window_weight


def test_estimates_ore_pairs_and_towers_read_no_interior(monkeypatch):
    # the operator's domain is the window without the record's boundary, and
    # the degenerate flag reads the interior weight: the interior set of a
    # record is never built
    from folnerlab import OrePair, ore_pair
    from folnerlab.fusion import BoundaryData

    def forbidden(self):
        raise AssertionError("interior read")

    monkeypatch.setattr(BoundaryData, "interior", property(forbidden))
    a = AZ.group_element({0: 1, 1: -1})
    T = MatrixOverPol.from_element(a)
    su2 = MatrixOverPol.from_element(ASU2.element({0: 1.0, 1: -0.25}))
    for T_, F, side in [(T, range(-5, 6), "right"), (T, [-1, 0, 1], "left"),
                        (su2, range(5), "right"), (su2, [0], "left")]:
        est = kernel_dim_estimate(T_, F, side=side)
        assert est.degenerate == (est.interior_weight == 0)
    one, x, y = AHEIS.one(), AHEIS.group_element((1, 0, 0)), AHEIS.group_element((0, 1, 0))
    assert isinstance(ore_pair(one - x, one - y, max_radius=10), OrePair)
    rep = tower_kernel_dims(T, group_quotient_tower(AZ, [3, 27]), ball(AZ.ring, [1], 10))
    assert [lv.quotient_dim for lv in rep.levels] == [Fraction(1, 3), Fraction(1, 27)]


def test_non_finite_coefficients_give_no_bracket():
    # such elements cannot be built (as_scalar refuses them); forged past the
    # constructor, the operator assembly refuses them instead of trimming
    # them away into the bracket [1, 1] or the dimension 1
    from folnerlab import AlgebraElement

    inf_unit = AlgebraElement._trusted(ASU2, {(0, 1, 1): complex(math.inf)})
    with pytest.raises(AlgebraError, match="not finite"):
        kernel_dim_estimate(MatrixOverPol.from_element(inf_unit), range(3))
    nan_triv = AlgebraElement._trusted(AS3, {("triv", 1, 1): complex(math.nan)})
    with pytest.raises(AlgebraError, match="not finite"):
        exact_mvn_dim_finite(MatrixOverPol.from_element(nan_triv))


def test_estimate_rejects_zero_and_open_window():
    with pytest.raises(AlgebraError):
        kernel_dim_estimate(MatrixOverPol.from_element(AZ.zero()), [0])
    a = AZ.group_element({0: 1, 1: -1})
    with pytest.raises(ValueError):
        kernel_dim_estimate(MatrixOverPol.from_element(a), [0, 1, 2])


# ---------------------------------------------------------------------------
# exact_mvn_dim_finite

def test_mvn_z2_projection():
    p = AZMOD2.group_element({0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert exact_mvn_dim_finite(MatrixOverPol.from_element(p)) == Fraction(1, 2)


@pytest.mark.parametrize("m", [2, 3, 5, 6, 8])
def test_mvn_cyclic_one_minus_g_dft_oracle(m):
    # DFT oracle: eigenvalues 1 - omega^k, exactly one of them zero
    eig = [1 - np.exp(2j * np.pi * k / m) for k in range(m)]
    zeros = sum(1 for e in eig if abs(e) < 1e-12)
    assert zeros == 1
    alg = algebra_for(f"group:Z/{m}")
    a = alg.group_element({0: 1, 1: -1})
    assert exact_mvn_dim_finite(MatrixOverPol.from_element(a)) == Fraction(zeros, m)


def test_mvn_gaussian_input_keeps_conjugate_characters_apart():
    # 1 + i g on Z/4 vanishes at the character g -> i only, not at its
    # complex conjugate: Gaussian coefficients split the Galois orbits
    A = algebra_for("group:Z/4")
    for T in (MatrixOverPol.from_element(A.group_element({0: 1, 1: (0, 1)})),
              MatrixOverPol.from_element(A.group_element({0: 1, 3: (0, 1)}))):
        for side in ("right", "left"):
            _, nullity = rank_nullity(full_mult_matrix(T, side=side).matrix)
            assert nullity == 1
        assert exact_mvn_dim_finite(T) == Fraction(1, 4)


@pytest.mark.parametrize("tag, terms, blocks", [
    ("group:heisenberg/4", {(0, 0, 0): 5, (1, 0, 0): -2, (0, 1, 0): -3},
     {(1, 4): 10, (2, 4): 4, (4, 4): 1}),
    ("group:Z/8xZ/8", {(0, 0): 5, (1, 0): -2, (0, 1): -3}, {(1, 8): 22}),
    ("group:Z/4", {0: 1, 1: (0, 1)}, {(1, 4): 4}),
    ("group:heisenberg/3", {(0, 0, 0): 5, (1, 0, 0): -2, (0, 1, 0): (0, -3)},
     {(1, 12): 5, (3, 12): 1}),
])
def test_finite_dim_ranks_one_block_per_galois_orbit(monkeypatch, tag, terms, blocks):
    # {(block size, L): count}: the orbits of the units mod L (u = 1 mod 4,
    # L a multiple of 4, for Gaussian coefficients) on the irreducibles,
    # one ranked block each
    from folnerlab import _blocks

    ranked = Counter()
    block_nullity = _blocks._block_nullity

    def recording(cells, size, L):
        ranked[size, L] += 1
        return block_nullity(cells, size, L)

    monkeypatch.setattr(_blocks, "_block_nullity", recording)
    exact_mvn_dim_finite(MatrixOverPol.from_element(algebra_for(tag).element(terms)))
    assert ranked == blocks


def _deep_level(tag):
    """5 - 2x - 3y on Heisenberg mod m, 5x - 2 - 3xy on (Z/m)^2."""
    A = algebra_for(tag)
    if tag.startswith("group:heisenberg"):
        terms = {(0, 0, 0): 5, (1, 0, 0): -2, (0, 1, 0): -3}
    else:
        terms = {(1, 0): 5, (0, 0): -2, (1, 1): -3}
    return MatrixOverPol.from_element(A.element(terms))


@pytest.mark.parametrize("tag", ["group:heisenberg/8", "group:Z/16xZ/16"])
def test_mvn_deep_level_agrees_with_full_operator(tag):
    T = _deep_level(tag)
    M = full_mult_matrix(T).matrix
    _, nullity = rank_nullity(M)
    assert nullity == 1  # the constants: both elements have augmentation 0
    assert exact_mvn_dim_finite(T) == Fraction(nullity, M.shape[1])


@pytest.mark.parametrize("tag", ["group:heisenberg/16", "group:Z/64xZ/64"])
def test_mvn_deeper_levels_are_pinned(tag):
    # each checked once against the Gauss-Jordan RREF of the 4096 x 4096
    # operator, which took 29 s (heisenberg/16) and 41 min ((Z/64)^2) on a
    # 2-core Xeon; the blocks take milliseconds
    assert exact_mvn_dim_finite(_deep_level(tag)) == Fraction(1, 4096)


def test_mvn_s3_unit_invertible():
    assert exact_mvn_dim_finite(MatrixOverPol.from_element(AS3.one())) == 0


@pytest.mark.parametrize("algebra", [AZMOD2, AS3], ids=lambda A: A.tag)
def test_mvn_of_the_zero_matrix_is_n(algebra):
    zero = algebra.zero()
    assert exact_mvn_dim_finite(MatrixOverPol.from_element(zero)) == 1
    assert exact_mvn_dim_finite(MatrixOverPol(algebra, [[zero, zero]] * 2)) == 2


def test_mvn_rejects_infinite_provider():
    with pytest.raises(AlgebraError):
        exact_mvn_dim_finite(MatrixOverPol.from_element(AZ.one()))


# ---------------------------------------------------------------------------
# sandwich properties on finite providers

def conj_closed_windows(ring):
    import itertools

    labels = list(ring.irreducibles())
    out = []
    for r in range(1, len(labels) + 1):
        for F in itertools.combinations(labels, r):
            if frozenset(ring.conj(u) for u in F) == frozenset(F):
                out.append(F)
    return out


def test_sandwich_contains_true_dimension(rng):
    for algebra in (AZ6, AS3):
        windows = conj_closed_windows(algebra.ring)
        for _ in range(8):
            a = random_element(algebra, rng, list(algebra.ring.irreducibles()))
            T = MatrixOverPol.from_element(a)
            true_dim = exact_mvn_dim_finite(T)
            for F in windows:
                est = kernel_dim_estimate(T, F)
                assert est.lower <= true_dim <= est.upper
                assert est.contains(true_dim)
                assert not est.contains(est.lower - 1) and not est.contains(est.upper + 1)


def test_full_window_estimate_equals_oracle(rng):
    for algebra, exact in ((AZ6, True), (AS3, False)):
        F = algebra.ring.irreducibles()
        for _ in range(8):
            a = random_element(algebra, rng, list(F))
            T = MatrixOverPol.from_element(a)
            est = kernel_dim_estimate(T, F)
            true_dim = exact_mvn_dim_finite(T)
            assert est.upper == est.lower
            if exact:
                assert est.lower == true_dim
            else:
                assert abs(est.lower - true_dim) < 1e-9


def test_rank_sum_identity(rng):
    for algebra, F in ((AZ, range(-4, 5)), (AZ6, AZ6.ring.irreducibles())):
        for _ in range(5):
            pool = list(F)
            a = random_element(algebra, rng, pool[:3])
            est = kernel_dim_estimate(MatrixOverPol.from_element(a), F)
            if not est.degenerate:
                assert est.nullity + est.rank == est.n * est.interior_weight


def test_estimates_are_exact_fractions_both_modes(rng):
    a = random_element(AS3, rng, list(AS3.ring.irreducibles()))
    est = kernel_dim_estimate(MatrixOverPol.from_element(a),
                              AS3.ring.irreducibles())
    assert isinstance(est.lower, Fraction) and isinstance(est.upper, Fraction)
    assert 0 <= est.lower <= est.upper <= est.n


def test_estimate_interval_identity(rng):
    # upper - lower = n * boundary_ratio, part of the estimate's contract
    a = AZ.group_element({0: 2, 1: -1, -1: -1})
    for N in (3, 6):
        est = kernel_dim_estimate(MatrixOverPol.from_element(a), range(-N, N + 1))
        assert est.upper - est.lower == est.n * est.boundary_ratio


# ---------------------------------------------------------------------------
# the exact rank of a group-ring estimate against independent references

_GENS = {"group:Z^2": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)],
         "group:heisenberg": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                              (1, 1, 0), (0, 0, 1)]}
_COEFFS = st.tuples(st.fractions(-9, 9, max_denominator=3), st.integers(-3, 3))


def _svd_rank(M):
    """numpy's SVD rank of a ScalarMatrix, its entries cast to complex."""
    cast = np.zeros(M.shape, dtype=complex)
    for (r, c), v in M.entries.items():
        cast[r, c] = complex(v)
    return int(np.linalg.matrix_rank(cast))


@st.composite
def _group_ring_cases(draw, algebra, rank_one):
    """A Z^2 box with N <= 5 or a Heisenberg ball with radius <= 3, a side,
    and T = (a), or T = [[a, b], [a, b]] (a kernel on the right), for random
    a, b supported on the unit and a few generators."""
    gens = _GENS[algebra.tag]
    if algebra is AHEIS:
        window = ball(algebra.ring, gens[:4], draw(st.integers(1, 3)))
    else:
        # the fraction-free reference is the slow part on a rank-one T
        N = draw(st.integers(1, 4 if rank_one else 5))
        window = [(i, j) for i in range(-N, N + 1) for j in range(-N, N + 1)]
    labels = st.sampled_from([algebra.ring.unit] + gens)

    def element():
        terms = draw(st.dictionaries(labels, _COEFFS, min_size=1, max_size=4)
                     .filter(lambda t: any(re or im for re, im in t.values())))
        return algebra.element(terms)

    a = element()
    T = MatrixOverPol(algebra, [[a, element()]] * 2) if rank_one \
        else MatrixOverPol.from_element(a)
    return T, window, draw(st.sampled_from(("left", "right")))


@pytest.mark.parametrize("rank_one", [False, True])
@pytest.mark.parametrize("algebra", [AZ2, AHEIS], ids=["Z^2", "heisenberg"])
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_group_ring_rank_agrees_with_fraction_free_and_svd(algebra, rank_one, data):
    T, window, side = data.draw(_group_ring_cases(algebra, rank_one))
    est = kernel_dim_estimate(T, window, side=side)
    if est.degenerate:
        return
    M = restricted_mult_matrix(T, window, side=side).matrix
    assert est.rank == fraction_free_rank(M) == _svd_rank(M)
    assert est.nullity == M.shape[1] - est.rank


# ---------------------------------------------------------------------------
# the exact dimension on Z^d against the brackets and the towers: Q(i)[Z^d]
# is an Ore domain with field of fractions K = Q(i)(x_1, ..., x_d), so the
# kernel dimension of T is n - rank_K(T), and the quotient dimensions on
# (Z/m)^d average nullity(T(zeta)) >= n - rank_K(T) over the m-th roots

def _laurent_cases():
    z, one = AZ.group_element(1), AZ.one()
    a = AZ.group_element({-1: (Fraction(1, 2), 1), 0: 2})
    x, y, e = (AZ2.group_element(g) for g in ((1, 0), (0, 1), (0, 0)))
    lap = AZ2.group_element({(0, 0): 4, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1})
    mixed = AZ2.group_element({(0, 0): 3, (1, 0): -1, (0, 1): 2, (-1, 1): 1})
    zero = AZ2.zero()
    return {
        "Z 1-x": (MatrixOverPol.from_element(one - z), 0),
        "Z laplacian": (MatrixOverPol.from_element(one.scale(2) - z - AZ.group_element(-1)), 0),
        "Z rank one": (MatrixOverPol(AZ, [[a, a], [a, a]]), 1),
        "Z^2 laplacian": (MatrixOverPol.from_element(lap), 0),
        "Z^2 mixed": (MatrixOverPol.from_element(mixed), 0),
        "Z^2 triangular": (MatrixOverPol(AZ2, [[lap, zero], [e, lap]]), 0),
        "Z^2 T2": (MatrixOverPol(AZ2, [[e - x, e - x], [e - y, e - y]]), 1),
        "Z^2 1-x and 0": (MatrixOverPol(AZ2, [[e - x, zero], [zero, zero]]), 1),
    }


@pytest.mark.parametrize("case", sorted(_laurent_cases()))
def test_brackets_and_towers_hold_the_exact_dimension_on_Z_d(case):
    T, dim = _laurent_cases()[case]
    assert T.n - laurent_rank(T) == dim
    algebra = T.algebra
    if algebra is AZ:
        windows = [range(-N, N + 1) for N in (3, 6)]
    else:
        windows = [box2(N) for N in (2, 4)]
    for F in windows:
        for side in ("right", "left"):
            est = kernel_dim_estimate(T, F, side=side)
            assert est.lower <= dim <= est.upper, (F, side)
    moduli = [2, 4, 8, 16] if algebra is AZ else [2, 4, 8]
    rep = tower_kernel_dims(T, group_quotient_tower(algebra, moduli), windows[0])
    qdims = [lv.quotient_dim for lv in rep.levels]
    assert all(q >= dim for q in qdims), qdims
    # the excess over the exact dimension falls along (Z/2^k)^d
    assert qdims == sorted(qdims, reverse=True), qdims


def _heisenberg_cases():
    """{case: (T, rank_D(T), its level dimension on heisenberg/m)}.

    With x = (1, 0, 0), y = (0, 1, 0) and z = (0, 0, 1), the group law gives
    x y x^-1 = y z with z central, so Q(i)[H] is the skew Laurent ring
    K[x^+-1; sigma] over K = Q(i)(y, z), sigma(y) = y z, sigma(z) = z. It is
    an Ore domain, D its division ring of fractions, and the Murray-von
    Neumann kernel dimension of T is n - rank_D(T), on both sides:

    * [[1-x, 1-x], [1-y, 1-y]]: two equal columns and an entry 1-x != 0, so
      rank_D 1;
    * [[1, y], [x, xy]]: row 2 is x times row 1, so rank_D 1;
    * [[1, y], [x, yx]]: row 2 minus x times row 1 is (0, yx - xy) =
      (0, yx (1 - z)), nonzero in a domain, beside the pivot 1 of row 1, so
      rank_D 2. Over Z^2, where yx = xy, the same matrix has rank 1."""
    one = AHEIS.one()
    x, y = AHEIS.group_element((1, 0, 0)), AHEIS.group_element((0, 1, 0))
    return {
        "equal columns": (MatrixOverPol(AHEIS, [[one - x, one - x], [one - y, one - y]]),
                          1, lambda m: 1 + Fraction(1, m ** 3)),
        "row times x": (MatrixOverPol(AHEIS, [[one, y], [x, x * y]]), 1, lambda m: Fraction(1)),
        "commutator": (MatrixOverPol(AHEIS, [[one, y], [x, y * x]]), 2, lambda m: Fraction(1, m)),
    }


@pytest.mark.parametrize("case", sorted(_heisenberg_cases()))
def test_brackets_and_towers_hold_the_exact_dimension_on_heisenberg(case):
    T, rank, level_dim = _heisenberg_cases()[case]
    dim = T.n - rank
    F = ball(AHEIS.ring, T.support(), 3)
    for side in ("right", "left"):
        est = kernel_dim_estimate(T, F, side=side)
        assert est.lower <= dim <= est.upper, side
    window = ball(AHEIS.ring, T.support(), 1)
    for moduli in ([3], [2, 4, 8, 16]):
        rep = tower_kernel_dims(T, group_quotient_tower(AHEIS, moduli), window)
        qdims = [lv.quotient_dim for lv in rep.levels]
        assert qdims == [level_dim(m) for m in moduli]
    # the excess over the exact dimension does not grow along 2, 4, 8, 16
    excess = [q - dim for q in qdims]
    assert excess == sorted(excess, reverse=True), excess


# ---------------------------------------------------------------------------
# exact_mvn_dim_finite on finite quotients against independent references

_FINITE = {"Z/n": ["group:Z/2", "group:Z/5", "group:Z/6", "group:Z/8"],
           "Z/m x Z/k": ["group:Z/2xZ/2", "group:Z/3xZ/2", "group:Z/4xZ/3",
                         "group:Z/8xZ/4"],
           "heisenberg/3": ["group:heisenberg/3"],
           # blocks of dimension 2, 4 and 6, and orbits of more than one block
           "heisenberg/m": ["group:heisenberg/2", "group:heisenberg/4",
                            "group:heisenberg/6"],
           "S3": ["finite:S3"]}


@st.composite
def _finite_cases(draw, tags):
    """A side and T = (a), (a (1 - g)) with g not the unit (a kernel on group
    rings: the augmentation vanishes), or [[a, b], [a, b]], over a finite
    ring, a and b with at most four random terms. Translation wraps around
    the label order here, so leading rows mostly collide and the rank comes
    from the RREF."""
    algebra = algebra_for(draw(st.sampled_from(tags)))
    ring = algebra.ring
    triples = st.sampled_from(_basis_triples(ring, ring.irreducibles()))

    def element():
        terms = draw(st.dictionaries(triples, _COEFFS, min_size=1, max_size=4)
                     .filter(lambda t: any(re or im for re, im in t.values())))
        if algebra.mode == FLOAT:
            terms = {k: complex(re, im) for k, (re, im) in terms.items()}
        return algebra.element(terms)

    a = element()
    kind = draw(st.sampled_from(("element", "times 1 - g", "rank one")))
    if kind == "rank one":
        T = MatrixOverPol(algebra, [[a, element()]] * 2)
    else:
        if kind == "times 1 - g":
            g = draw(st.sampled_from([u for u in ring.irreducibles() if u != ring.unit]))
            a = a * (algebra.one() - algebra.basis(g))
            assume(not a.is_zero())
        T = MatrixOverPol.from_element(a)
    return T, draw(st.sampled_from(("left", "right")))


@pytest.mark.parametrize("family", list(_FINITE))
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_finite_dim_agrees_with_fraction_free_and_svd(family, data):
    T, side = data.draw(_finite_cases(_FINITE[family]))
    ring = T.algebra.ring
    M = full_mult_matrix(T, side=side).matrix
    nullity = M.shape[1] - _svd_rank(M)
    size = sum(ring.dim(u) ** 2 for u in ring.irreducibles())
    assert exact_mvn_dim_finite(T) == Fraction(nullity, size)
    # S3 is a float ring: numpy's own rank cut-off only. The fraction-free
    # elimination of the full operator takes 0.4 s at 64 columns and over
    # 10 s at 216 (heisenberg/6), so from 64 columns on the SVD is the
    # reference
    if M.mode != FLOAT and M.shape[1] < 64:
        assert nullity == M.shape[1] - fraction_free_rank(M)

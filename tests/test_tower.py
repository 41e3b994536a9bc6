"""Quotient towers: injectivity, Haar approximation, dimension transport."""

from fractions import Fraction

import numpy as np
import pytest

from folnerlab import (AlgebraError, MatrixOverPol, algebra_for, ball,
                       group_quotient_tower, haar_approx_sequence,
                       local_injectivity_check, omega_set, ring_from_tag,
                       tower_kernel_dims)
from folnerlab.scalars import QQi

AZ = algebra_for("group:Z")
AZXZ2 = algebra_for("group:ZxZ/2")
AHEIS = algebra_for("group:heisenberg")


# ---------------------------------------------------------------------------
# omega_set

def test_omega_z_example():
    ring = AZ.ring
    assert omega_set(ring, range(-2, 3), [0, 1]) == frozenset(range(-2, 4))


def test_omega_unit_s():
    ring = AZ.ring
    assert omega_set(ring, [2, 3], [0]) == frozenset({0, 2, 3})


def test_omega_su2_example():
    su2 = ring_from_tag("su2")
    assert omega_set(su2, [0, 1], [1]) == frozenset({0, 1, 2})


# ---------------------------------------------------------------------------
# local injectivity

def test_injectivity_threshold_cyclic():
    N = 5
    F = range(-N, N + 1)
    for m in (2 * N, 2 * N + 1, 2 * N + 2, 50):
        tower = group_quotient_tower(AZ, [m])
        ok = local_injectivity_check(tower.maps[0], F)
        assert ok == (m >= 2 * N + 1)


def test_injectivity_z_to_z3_example():
    tower = group_quotient_tower(AZ, [3])
    assert not local_injectivity_check(tower.maps[0], [0, 3])
    assert local_injectivity_check(tower.maps[0], [0])


def test_injectivity_is_eventual():
    F = range(-4, 5)
    tower = group_quotient_tower(AZ, [3, 9, 27])
    flags = [local_injectivity_check(m, F) for m in tower]
    assert flags == [False, True, True]


# ---------------------------------------------------------------------------
# Haar approximation

def test_haar_g3_tower_2_4_8_16():
    a = AZ.group_element({3: 1})
    rep = haar_approx_sequence(a, group_quotient_tower(AZ, [2, 4, 8, 16]))
    assert list(rep.values) == [QQi(0)] * 4
    assert rep.source_value == QQi(0)
    assert rep.first_injective_index == 0
    assert rep.eventually_equal


def test_haar_g3_tower_3_9_non_monotone():
    a = AZ.group_element({3: 1})
    rep = haar_approx_sequence(a, group_quotient_tower(AZ, [3, 9]))
    assert list(rep.values) == [QQi(1), QQi(0)]  # pre-injectivity value differs
    assert rep.first_injective_index == 1
    assert rep.eventually_equal


def test_haar_unit_all_ones():
    rep = haar_approx_sequence(AZ.one(), group_quotient_tower(AZ, [2, 4, 8]))
    assert list(rep.values) == [QQi(1)] * 3
    assert rep.first_injective_index == 0


def test_haar_mixed_element():
    a = AZ.group_element({0: Fraction(1, 3), 6: 2})
    rep = haar_approx_sequence(a, group_quotient_tower(AZ, [2, 4, 8, 16]))
    h = QQi(Fraction(1, 3))
    assert rep.source_value == h
    # m = 2: 6 = 0 mod 2 collides with 0; value 1/3 + 2
    assert rep.values[0] == QQi(Fraction(7, 3))
    # m = 4 already separates {0, 6}, so equality holds from index 1 on
    assert rep.first_injective_index == 1
    assert all(v == h for v in rep.values[1:])
    assert rep.eventually_equal


# ---------------------------------------------------------------------------
# towers: construction and composition

def test_tower_requires_divisibility_chain():
    with pytest.raises(AlgebraError):
        group_quotient_tower(AZ, [4, 6])
    with pytest.raises(AlgebraError):
        group_quotient_tower(algebra_for("finite:S3"), [2, 4])
    # a finite source has no modulus to reduce, so no chain to check
    with pytest.raises(AlgebraError):
        group_quotient_tower(algebra_for("group:Z/4xZ/4"), [2, 3])


def _refused_towers():
    """Each entry check of QuotientMap, QuotientTower and
    group_quotient_tower: one refused construction apiece, with the words of
    the refusal."""
    from folnerlab import QuotientMap, QuotientTower

    A = algebra_for
    return {
        "non-group source": (lambda: QuotientMap(A("su2"), A("group:Z/2")),
                             "group providers"),
        "infinite target": (lambda: QuotientMap(AZ, AZ), "must be finite"),
        "heisenberg/4 -> /3": (lambda: QuotientMap(A("group:heisenberg/4"),
                                                   A("group:heisenberg/3")),
                               "heisenberg/4 -> heisenberg/3"),
        "factor counts": (lambda: QuotientMap(A("group:Z^2"), A("group:Z/2")),
                          "factor counts differ"),
        "mixed families": (lambda: QuotientMap(AHEIS, A("group:Z/2")), "families differ"),
        "empty tower": (lambda: QuotientTower([]), "at least one level"),
        "mixed source": (lambda: QuotientTower([QuotientMap(AZ, A("group:Z/2")),
                                                QuotientMap(AZXZ2, A("group:Z/2xZ/2"))]),
                         "one source"),
        "modulus 1": (lambda: group_quotient_tower(AZ, [1, 2]), ">= 2"),
        "modulus 0": (lambda: group_quotient_tower(AHEIS, [0]), ">= 2"),
    }


@pytest.mark.parametrize("case", sorted(_refused_towers()))
def test_tower_entry_checks_refuse(case):
    build, words = _refused_towers()[case]
    with pytest.raises(AlgebraError, match=words):
        build()


def test_connecting_label_map_rejects_levels_out_of_range():
    tower = group_quotient_tower(AZ, [3, 9])
    assert tower.connecting_label_map(0, 1)(7) == 1
    for i, j in ((1, 0), (-1, 0), (0, 2)):
        with pytest.raises(IndexError, match="out of range"):
            tower.connecting_label_map(i, j)


def test_tower_composition_identity_on_omega():
    tower = group_quotient_tower(AZ, [3, 9, 27])
    omega = omega_set(AZ.ring, range(-5, 6), [0, 1])
    for i in range(len(tower)):
        for j in range(i, len(tower)):
            pi_ij = tower.connecting_label_map(i, j)
            for u in omega:
                assert pi_ij(tower.maps[j].push_label(u)) \
                    == tower.maps[i].push_label(u)


def test_tower_pushforward_respects_products(rng):
    tower = group_quotient_tower(AHEIS, [3, 9])
    qm = tower.maps[0]
    for _ in range(6):
        g = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        h = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        a = AHEIS.group_element({g: (Fraction(2), Fraction(1))})
        b = AHEIS.group_element({h: (Fraction(1, 3), Fraction(0))})
        assert qm.push_element(a * b) == qm.push_element(a) * qm.push_element(b)


# ---------------------------------------------------------------------------
# tower_kernel_dims

def dft_nullity_one_minus_g(m: int) -> int:
    eig = 1 - np.exp(2j * np.pi * np.arange(m) / m)
    return int(np.sum(np.abs(eig) < 1e-12))


def test_tower_dims_one_minus_g():
    a = AZ.group_element({0: 1, 1: -1})
    T = MatrixOverPol.from_element(a)
    tower = group_quotient_tower(AZ, [3, 9, 27, 81])
    F = ball(AZ.ring, a.support(), 10)
    rep = tower_kernel_dims(T, tower, F)
    # DFT oracle: exactly one zero eigenvalue at every level
    for lv, m in zip(rep.levels, [3, 9, 27, 81]):
        assert dft_nullity_one_minus_g(m) == 1
        assert lv.quotient_dim == Fraction(1, m)
    # omega = {-10..11}: injective iff m >= 22
    assert [lv.omega_injective for lv in rep.levels] == [False, False, True, True]
    for lv in rep.levels:
        if lv.omega_injective:
            assert lv.support_pushforward_ok and lv.boundary_pushforward_ok
            assert lv.weighted_sizes_ok and lv.transport_ok
            assert lv.transport_gap <= rep.transport_bound
    assert rep.source_estimate.lower == 0
    assert rep.transport_bound == Fraction(2, 21)


def test_tower_dims_projection_constant_half():
    e = AZXZ2.group_element((0, 0))
    t = AZXZ2.group_element((0, 1))
    p = (e + t).scale(Fraction(1, 2))
    T = MatrixOverPol.from_element(p)
    tower = group_quotient_tower(AZXZ2, [3, 9, 27])
    F = ball(AZXZ2.ring, p.support(), 1)
    rep = tower_kernel_dims(T, tower, F)
    # block DFT oracle: (1 +- 1)/2 eigenvalues, half of them zero
    for lv, m in zip(rep.levels, [3, 9, 27]):
        eig = np.concatenate([np.full(m, 0.0), np.full(m, 1.0)])
        assert np.sum(np.abs(eig) < 1e-12) == m
        assert lv.quotient_dim == Fraction(1, 2)
        assert lv.omega_injective
    assert rep.source_estimate.lower == Fraction(1, 2)


def test_tower_unit_all_dims_zero():
    T = MatrixOverPol.from_element(AZ.one())
    tower = group_quotient_tower(AZ, [2, 4, 8])
    rep = tower_kernel_dims(T, tower, ball(AZ.ring, [0], 0) | {1, -1, 0})
    assert all(lv.quotient_dim == 0 for lv in rep.levels)


def test_tower_heisenberg_level():
    one = AHEIS.one()
    x = AHEIS.group_element((1, 0, 0))
    T = MatrixOverPol.from_element(one - x)
    tower = group_quotient_tower(AHEIS, [3])
    F = ball(AHEIS.ring, T.support(), 1)
    rep = tower_kernel_dims(T, tower, F)
    lv = rep.levels[0]
    # 1 - x on H(Z/3): right multiplication permutes 27 basis elements in
    # 9 cycles of length 3, each contributing one zero eigenvalue
    assert lv.quotient_dim == Fraction(9, 27)


@pytest.mark.parametrize("source, g, moduli", [(AZXZ2, (1, 0), [3, 9]),
                                                (AHEIS, (1, 0, 0), [2, 4])],
                         ids=["ZxZ/2", "heisenberg"])
def test_tower_levels_validate_no_label(source, g, moduli, normalize_calls):
    # the source window and support were checked where they entered; their
    # images in every level are reduced, not validated again
    T = MatrixOverPol.from_element(source.one() - source.group_element(g))
    tower = group_quotient_tower(source, moduli)
    targets = {qmap.target.ring for qmap in tower}
    normalize_calls.clear()
    rep = tower_kernel_dims(T, tower, ball(source.ring, T.support(), 1))
    assert [lv.omega_injective for lv in rep.levels] == [False, True]
    assert [u for ring, u in normalize_calls if ring in targets] == []
    # positive control: the spy sees an explicit check on a target ring
    target = tower.maps[-1].target.ring
    normalize_calls.clear()
    target.check_label(target.unit)
    assert normalize_calls == [(target, target.unit)]


def test_tower_rejects_zero_and_foreign_matrix():
    tower = group_quotient_tower(AZ, [3])
    with pytest.raises(AlgebraError):
        tower_kernel_dims(MatrixOverPol.from_element(AZ.zero()), tower, [0])
    other = MatrixOverPol.from_element(AZXZ2.one())
    with pytest.raises(AlgebraError):
        tower_kernel_dims(other, tower, [(0, 0)])


def test_pushforward_surjective_for_builtins():
    for source, moduli, radius in ((AZ, [5], 5),
                                   (AHEIS, [2], 4),  # the commutator needs 4 letters
                                   (AZXZ2, [3], 3)):
        tower = group_quotient_tower(source, moduli)
        qm = tower.maps[0]
        gens = {
            "group:Z": [1], "group:heisenberg": [(1, 0, 0), (0, 1, 0)],
            "group:ZxZ/2": [(1, 0), (0, 1)],
        }[source.tag]
        image = qm.push_set(ball(source.ring, gens, radius))
        assert image == frozenset(qm.target.ring.irreducibles())

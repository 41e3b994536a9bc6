"""Zero-divisor certificates, kernel-dimension sequences, Ore pairs."""

from fractions import Fraction

import pytest

from folnerlab import (AlgebraError, ExhaustionReport, MatrixOverPol,
                       NotFoundReport, OrePair, ZeroDivisorCertificate,
                       algebra_for, ball, boundary_decomposition,
                       exact_mvn_dim_finite, kernel_dim_estimate,
                       kernel_dim_sequence, ore_pair, weighted_size,
                       zero_divisor_search)

from conftest import random_element, small_support

AZ = algebra_for("group:Z")
AZ2 = algebra_for("group:Z^2")
AZXZ2 = algebra_for("group:ZxZ/2")
AZMOD2 = algebra_for("group:Z/2")
AZ6 = algebra_for("group:Z/6")
AHEIS = algebra_for("group:heisenberg")
ASU2 = algebra_for("su2")
AS3 = algebra_for("finite:S3")


# ---------------------------------------------------------------------------
# zero_divisor_search

def test_zero_divisor_zxz2_example():
    e = AZXZ2.group_element((0, 0))
    t = AZXZ2.group_element((0, 1))
    cert = zero_divisor_search(e - t, side="left", max_radius=2)
    assert isinstance(cert, ZeroDivisorCertificate)
    assert cert.radius <= 1
    assert not cert.witness.is_zero()
    assert ((e - t) * cert.witness).is_zero()
    # the kernel is spanned by e + t, so the witness is proportional to it
    w = cert.witness
    assert w.coeff((0, 0)) == w.coeff((0, 1))


def test_zero_divisor_zmod2_example():
    e = AZMOD2.group_element(0)
    t = AZMOD2.group_element(1)
    cert = zero_divisor_search(e + t, side="left", max_radius=1)
    assert (cert.witness * (e + t)).is_zero() or ((e + t) * cert.witness).is_zero()
    assert cert.witness.coeff(0) == -cert.witness.coeff(1)


def test_zero_divisor_not_found_on_z():
    a = AZ.group_element({0: 1, 1: -1})
    rep = zero_divisor_search(a, side="left", max_radius=6)
    assert isinstance(rep, NotFoundReport)
    assert len(rep.kernel_dims) == 7
    assert all(d == 0 for _, d in rep.kernel_dims)


def test_zero_divisor_right_side():
    e = AZXZ2.group_element((0, 0))
    t = AZXZ2.group_element((0, 1))
    cert = zero_divisor_search(e - t, side="right", max_radius=2)
    assert (cert.witness * (e - t)).is_zero()


def test_zero_divisor_regular_on_heisenberg_both_sides():
    x = AHEIS.group_element((1, 0, 0))
    one = AHEIS.one()
    for side in ("left", "right"):
        rep = zero_divisor_search(one - x, side=side, max_radius=3)
        assert isinstance(rep, NotFoundReport)


def test_zero_divisor_rejects_zero():
    with pytest.raises(AlgebraError):
        zero_divisor_search(AZ.zero())


# ---------------------------------------------------------------------------
# kernel_dim_sequence

def test_sequence_projection_converges_to_half():
    e = AZXZ2.group_element((0, 0))
    t = AZXZ2.group_element((0, 1))
    p = (e + t).scale(Fraction(1, 2))
    seq = kernel_dim_sequence(p, side="left", radii=range(1, 5))
    for _, est in seq:
        assert est.lower == est.upper == Fraction(1, 2)
        assert est.width() == 0


def test_sequence_laplacian_all_zero_with_shrinking_brackets():
    lap = AZ.group_element({-1: -1, 0: 2, 1: -1})
    seq = kernel_dim_sequence(lap, side="right", radii=[1, 2, 4, 8])
    widths = []
    for radius, est in seq:
        assert est.lower == 0
        widths.append(est.width())
    assert widths == sorted(widths, reverse=True)
    assert widths[-1] == Fraction(2, 17)


def test_sequence_finite_full_window_matches_oracle(rng):
    labels = list(AZ6.ring.irreducibles())
    for _ in range(5):
        a = random_element(AZ6, rng, labels)
        # radius 6 saturates Irred(Z/6) whenever the support generates
        seq = kernel_dim_sequence(a, side="right", radii=[6])
        (_, est) = seq[0]
        if set(est.window) == set(labels):
            assert est.lower == est.upper == \
                exact_mvn_dim_finite(MatrixOverPol.from_element(a))


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("tag,terms", [
    ("group:Z^2", {(0, 0): 2, (1, 0): -1, (1, 1): 3}),
    ("group:heisenberg", {(0, 0, 0): 1, (1, 0, 0): 2, (0, 1, 0): -1}),
    ("group:Z/6", {0: 1, 1: -1}),
    ("su2", {(1, 1, 2): 1.5, 0: -0.5}),
])
def test_sequence_matches_estimates_on_full_decompositions(tag, terms, side):
    # the sequence decomposes each ball from its shell; kernel_dim_estimate
    # decomposes the same ball in full
    a = algebra_for(tag).element(terms)
    T = MatrixOverPol.from_element(a)
    radii = range(4)
    want = [(r, kernel_dim_estimate(T, ball(a.algebra.ring, a.support(), r), side=side))
            for r in radii]
    assert kernel_dim_sequence(a, side=side, radii=radii) == want


def test_sequence_lower_bounds_nondecreasing():
    e = AZXZ2.group_element((0, 0))
    t = AZXZ2.group_element((0, 1))
    g = AZXZ2.group_element((1, 0))
    a = (e - t) * (e + g)  # zero divisor with actual kernel growth
    seq = kernel_dim_sequence(a, side="left", radii=range(1, 6))
    lows = [est.lower for _, est in seq]
    assert all(x <= y for x, y in zip(lows, lows[1:]))
    for _, est in seq:
        assert est.lower <= est.upper


# ---------------------------------------------------------------------------
# ore_pair

def test_ore_commutative_hand_witness(rng):
    for _ in range(4):
        a = small_support(AZ, rng, [1, -1])
        s = small_support(AZ, rng, [1])
        pair = ore_pair(a, s, max_radius=12)
        assert isinstance(pair, OrePair)
        assert not pair.t.is_zero()
        assert pair.residual().is_zero()
        # commutativity: the hand pair (t, b) = (s, a) also solves a t = s b
        assert (a * s - s * a).is_zero()


def test_ore_unit_left_factor(rng):
    s = small_support(AZ2, rng, [(1, 0), (0, 1)])
    pair = ore_pair(AZ2.one(), s, max_radius=12)
    assert isinstance(pair, OrePair)
    # a = 1 forces t = s b
    assert (pair.t - s * pair.b).is_zero()


def test_ore_heisenberg_generators():
    one = AHEIS.one()
    x = AHEIS.group_element((1, 0, 0))
    y = AHEIS.group_element((0, 1, 0))
    pair = ore_pair(one - x, one - y, max_radius=10)
    assert isinstance(pair, OrePair)
    assert not pair.t.is_zero()
    assert ((one - x) * pair.t - (one - y) * pair.b).is_zero()
    # window satisfied the strict counting inequality
    ring = AHEIS.ring
    S = (one - x).support() | (one - y).support()
    dec = boundary_decomposition(ring, pair.window, S, side="left")
    assert 2 * weighted_size(ring, dec.boundary) < weighted_size(ring, pair.window)
    assert 2 * weighted_size(ring, dec.interior) > weighted_size(ring, pair.window)


def test_ore_pair_checks_no_label(label_checks):
    # supports are LabelSets, and so is their union: nothing is re-checked
    one = AHEIS.one()
    x = AHEIS.group_element((1, 0, 0))
    y = AHEIS.group_element((0, 1, 0))
    a, s = one - x, one - y
    label_checks.clear()
    assert isinstance(ore_pair(a, s, max_radius=10), OrePair)
    assert label_checks == []


def test_ore_bookkeeping_compares_against_the_ball(monkeypatch):
    # a decomposition that lost the boundary of its ball must not pass the
    # counting check: |F| is weighed on the ball, not on the record
    import folnerlab.solvers as solvers
    from folnerlab.fusion import BoundaryData

    real = solvers.ball_boundary

    def forged(ring, S, radius, side):
        dec = real(ring, S, radius, side=side)
        if not dec.interior:
            return dec
        return BoundaryData(dec.S, side, dec.interior, (), lambda: dec.coboundary)

    monkeypatch.setattr(solvers, "ball_boundary", forged)
    one = AZ2.one()
    with pytest.raises(RuntimeError, match="bookkeeping"):
        ore_pair(one - AZ2.group_element((1, 0)), one - AZ2.group_element((0, 1)))


def test_ore_success_leaves_the_outer_boundary_unread(monkeypatch):
    # the radius loop decides on the one-sided boundary; the outer boundary
    # is read only for the rows of an exhaustion report
    from folnerlab.fusion import BoundaryData

    def forbidden(self):
        raise AssertionError("coboundary computed")

    monkeypatch.setattr(BoundaryData, "coboundary", property(forbidden))
    one = AHEIS.one()
    x = AHEIS.group_element((1, 0, 0))
    y = AHEIS.group_element((0, 1, 0))
    pair = ore_pair(one - x, one - y, max_radius=10)
    assert isinstance(pair, OrePair)
    assert pair.residual().is_zero()


def test_ore_on_non_domain_still_verifies():
    e = AZXZ2.group_element((0, 0))
    t = AZXZ2.group_element((0, 1))
    out = ore_pair(e + t, e - t, max_radius=6)
    if isinstance(out, OrePair):
        assert not out.t.is_zero()
        assert out.residual().is_zero()
    else:
        assert isinstance(out, ZeroDivisorCertificate)
        assert out.product_is_zero()
    # prefer_ore scans the whole kernel basis first
    out2 = ore_pair(e + t, e - t, max_radius=6, prefer_ore=True)
    if isinstance(out2, OrePair):
        assert out2.residual().is_zero()


def _spy_nullspace_basis(monkeypatch):
    """(limit, number of vectors returned) for each nullspace_basis call."""
    from folnerlab import exactla

    calls, real = [], exactla.nullspace_basis

    def spy(M, *, limit=None):
        basis = real(M, limit=limit)
        calls.append((limit, len(basis)))
        return basis

    monkeypatch.setattr(exactla, "nullspace_basis", spy)
    return calls


@pytest.mark.parametrize("prefer_ore", [False, True])
def test_ore_asks_for_one_kernel_vector(monkeypatch, prefer_ore):
    # the first vector has t != 0, so prefer_ore has nothing to scan
    calls = _spy_nullspace_basis(monkeypatch)
    one = AHEIS.one()
    x = AHEIS.group_element((1, 0, 0))
    y = AHEIS.group_element((0, 1, 0))
    pair = ore_pair(one - x + y, one + x, prefer_ore=prefer_ore)
    assert isinstance(pair, OrePair) and pair.residual().is_zero()
    assert calls == [(1, 1)]


# ore_pair(x, 1 + t, max_radius=4, prefer_ore=True) on ZxZ/2, pinned byte for
# byte: t = x^-1 (1 + t) and b = 1
_ZXZ2_PREFERRED_ORE = "".join([
    '{"a":{"algebra":"group:ZxZ/2","mode":"exact","terms":[{"col":1,"im":"0",',
    '"irrep":[1,0],"re":"1","row":1}]},"b":{"algebra":"group:ZxZ/2","mode":"exact",',
    '"terms":[{"col":1,"im":"0","irrep":[0,0],"re":"1","row":1}]},"radius":2,',
    '"residual_zero":true,"ring":"group:ZxZ/2","s":{"algebra":"group:ZxZ/2",',
    '"mode":"exact","terms":[{"col":1,"im":"0","irrep":[0,0],"re":"1","row":1},',
    '{"col":1,"im":"0","irrep":[0,1],"re":"1","row":1}]},"t":{"algebra":"group:ZxZ/2",',
    '"mode":"exact","terms":[{"col":1,"im":"0","irrep":[-1,0],"re":"1","row":1},',
    '{"col":1,"im":"0","irrep":[-1,1],"re":"1","row":1}]},',
    '"window":[[-2,0],[-1,0],[-1,1],[0,0],[0,1],[1,0],[1,1],[2,0]]}\n',
])


def test_prefer_ore_scans_the_basis_only_when_the_first_t_is_zero(monkeypatch):
    # s = 1 + t is a zero divisor on ZxZ/2, and the first kernel vector has
    # t = 0: by default that is the answer, while prefer_ore builds the
    # whole basis of 4 and finds a usable t further on
    from folnerlab.serialize import canonical_dumps

    calls = _spy_nullspace_basis(monkeypatch)
    a = AZXZ2.group_element((1, 0))
    s = AZXZ2.one() + AZXZ2.group_element((0, 1))
    cert = ore_pair(a, s, max_radius=4)
    assert isinstance(cert, ZeroDivisorCertificate) and cert.product_is_zero()
    assert calls == [(1, 1)]
    calls.clear()
    pair = ore_pair(a, s, max_radius=4, prefer_ore=True)
    assert calls == [(1, 1), (None, 4)]
    assert canonical_dumps(pair.to_json()) == _ZXZ2_PREFERRED_ORE


def test_ore_exhaustion_report():
    one = AHEIS.one()
    x = AHEIS.group_element((1, 0, 0))
    y = AHEIS.group_element((0, 1, 0))
    rep = ore_pair(one - x, one - y, max_radius=2)
    assert isinstance(rep, ExhaustionReport)
    assert rep.strategy == "ore-ball"
    assert all(2 * row.boundary_weight >= row.window_weight for row in rep.profile)


def test_ore_exhaustion_rows_carry_the_symmetric_boundary():
    # S = {x, y}: the one-sided (left) boundary decides the 1/2 rule, the
    # rows report both boundaries and the symmetric ratio, as ProfileRow
    # defines them
    x = AHEIS.group_element((1, 0, 0))
    y = AHEIS.group_element((0, 1, 0))
    rep = ore_pair(x, y, max_radius=2)
    assert isinstance(rep, ExhaustionReport)
    rows = [(r.radius, r.window_weight, r.boundary_weight,
             r.symmetric_boundary_weight, r.ratio) for r in rep.profile]
    assert rows == [(0, 1, 1, 3, Fraction(3)), (1, 5, 4, 10, Fraction(2)),
                    (2, 17, 12, 30, Fraction(30, 17))]


def test_ore_rejects_zero_inputs():
    with pytest.raises(AlgebraError):
        ore_pair(AZ.zero(), AZ.one())
    with pytest.raises(AlgebraError):
        ore_pair(AZ.one(), AZ.zero())


def test_ore_rejects_a_and_s_in_different_algebras():
    with pytest.raises(AlgebraError, match="a and s live in different algebras"):
        ore_pair(AZ.group_element({0: 1, 1: 1}), AZ2.group_element((0, 1)))


# ---------------------------------------------------------------------------
# float providers: su2 and finite:S3 go through the SVD kernel, the float
# two-component Ore operator and the tolerance checks of the certificates

def test_ore_su2_float():
    a, s = ASU2.basis(1, 1, 1), ASU2.basis(1, 2, 2)
    pair = ore_pair(a, s, max_radius=4)
    assert isinstance(pair, OrePair)
    assert not pair.t.is_zero()
    assert (a * pair.t - s * pair.b).norm_max() < 1e-9
    assert pair.to_json()["residual_zero"] is True


@pytest.mark.parametrize("side", ["left", "right"])
def test_zero_divisor_s3_float(side):
    # triv + sgn is the function 2 on even permutations and 0 on odd ones,
    # so it is annihilated by triv - sgn, which vanishes on the even ones
    a = AS3.basis("triv") + AS3.basis("sgn")
    cert = zero_divisor_search(a, side=side, max_radius=2)
    assert isinstance(cert, ZeroDivisorCertificate)
    assert cert.side == side and cert.radius == 1
    assert cert.product_is_zero() and cert.to_json()["verified"] is True
    w = cert.witness
    assert abs(w.coeff("triv") + w.coeff("sgn")) < 1e-12
    assert abs(w.coeff("triv")) > 0.1
    prod = a * w if side == "left" else w * a
    assert prod.norm_max() < 1e-9


def test_zero_divisor_s3_float_unit_not_found():
    # u^std_11 takes the values 1, 1/2, -1, -1/2, -1/2, 1/2 on S3: no zeros
    rep = zero_divisor_search(AS3.basis("std", 1, 1), side="left", max_radius=2)
    assert isinstance(rep, NotFoundReport)
    assert rep.kernel_dims == ((0, 0), (1, 0), (2, 0))


def test_ore_s3_float():
    a = AS3.basis("triv") + AS3.basis("sgn")
    s = AS3.one() + AS3.basis("std", 1, 1)
    pair = ore_pair(a, s, max_radius=3)
    assert isinstance(pair, OrePair)
    assert not pair.t.is_zero()
    assert (a * pair.t - s * pair.b).norm_max() < 1e-9
    assert pair.to_json()["residual_zero"] is True


# float "zero" is judged against the size of the inputs, so scaling an
# input by a nonzero constant changes no answer

U = ASU2.basis(1, 1, 1)

SCALED_ANSWERS = {
    # Pol(SU(2)) is a domain
    "su2-square": lambda: not (U.scale(1e-10) * U.scale(1e-10)).is_zero(),
    "su2-zero-divisor": lambda: isinstance(
        zero_divisor_search(U.scale(1e-14), max_radius=1), NotFoundReport),
    "su2-certificate": lambda: ZeroDivisorCertificate(
        a=U.scale(1e-14), witness=U, side="left", window=(), radius=0
    ).product_is_zero() is False,
    # the dimension of the kernel of a unit is 0
    "su2-bracket": lambda: kernel_dim_estimate(
        MatrixOverPol.from_element(ASU2.one().scale(1e-14)), range(6)).contains(0),
    "s3-unit-zero-divisor": lambda: isinstance(
        zero_divisor_search(AS3.one().scale(1e-14), max_radius=1), NotFoundReport),
    "s3-unit-mvn": lambda: exact_mvn_dim_finite(
        MatrixOverPol.from_element(AS3.one().scale(1e-14))) == 0,
    "su2-ore": lambda: ore_pair(U.scale(1e7), ASU2.basis(1, 2, 2),
                                max_radius=4).to_json()["residual_zero"] is True,
}


@pytest.mark.parametrize("case", sorted(SCALED_ANSWERS))
def test_float_answers_survive_scaling(case):
    assert SCALED_ANSWERS[case]()


@pytest.mark.parametrize("c", [1e-14, 1.0, 1e9])
def test_s3_zero_divisor_certified_at_every_scale(c):
    a = (AS3.basis("triv") + AS3.basis("sgn")).scale(c)
    cert = zero_divisor_search(a, max_radius=2)
    assert isinstance(cert, ZeroDivisorCertificate)
    assert cert.to_json()["verified"] is True


@pytest.mark.parametrize("c", [1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e7, 1e8, 1e9, 1e10, 1e12])
def test_ore_su2_verified_at_every_scale(c):
    pair = ore_pair(U.scale(c), ASU2.basis(1, 2, 2), max_radius=4)
    assert isinstance(pair, OrePair) and not pair.t.is_zero()
    assert pair.to_json()["residual_zero"] is True


@pytest.mark.parametrize("c", [1e-14, 1e-8, 1e8, 1e12])
def test_ore_su2_verified_with_s_at_every_scale(c):
    # one operator holds a and s; each is ranked at unit scale, so a small
    # s is not cut off as noise beside a
    pair = ore_pair(U, ASU2.basis(1, 2, 2).scale(c), max_radius=4)
    assert isinstance(pair, OrePair) and not pair.t.is_zero()
    assert pair.to_json()["residual_zero"] is True


# ---------------------------------------------------------------------------
# finite-level regularity: nonzero elements of domain providers have
# full-column-rank restricted matrices on every window

def test_regularity_z2_random_elements(rng):
    gens = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)]
    F = ball(AZ2.ring, gens, 3)
    for _ in range(5):
        a = random_element(AZ2, rng, [(0, 0)] + gens)
        for side in ("left", "right"):
            est = kernel_dim_estimate(MatrixOverPol.from_element(a), F, side=side)
            assert est.nullity == 0


def test_regularity_heisenberg_random_elements(rng):
    gens = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    F = ball(AHEIS.ring, gens, 2)
    for _ in range(5):
        a = random_element(AHEIS, rng, [(0, 0, 0)] + gens, max_terms=3)
        for side in ("left", "right"):
            est = kernel_dim_estimate(MatrixOverPol.from_element(a), F, side=side)
            assert est.nullity == 0

"""Folner search, isoperimetric profiles, independent re-validation."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from folnerlab import (ExhaustionReport, FolnerCertificate, ball, folner_search,
                       isoperimetric_profile, ring_from_tag,
                       verify_certificate)

SU2 = ring_from_tag("su2")
Z = ring_from_tag("group:Z")
Z2 = ring_from_tag("group:Z^2")
S3 = ring_from_tag("finite:S3")
HEIS = ring_from_tag("group:heisenberg")


def su2_first_radius(eps: Fraction) -> int:
    # independent closed-form scan: |F_N| = sum_{k<=N} (k+1)^2,
    # |bd^sym| = (N+1)^2 + (N+2)^2
    N = 0
    while True:
        window = (N + 1) * (N + 2) * (2 * N + 3) // 6
        sym = (N + 1) ** 2 + (N + 2) ** 2
        if sym * eps.denominator < eps.numerator * window:
            return N
        N += 1


def test_finite_provider_certificate_is_everything():
    cert = folner_search(S3, ["std"], Fraction(1, 10), 4)
    assert isinstance(cert, FolnerCertificate)
    assert cert.F == S3.irreducibles()
    assert cert.boundary_weight == 0
    assert cert.window_weight == 6


def test_su2_certificate_matches_closed_form():
    for eps in (Fraction(1, 2), Fraction(1, 5)):
        cert = folner_search(SU2, [1], eps, 100)
        want = su2_first_radius(eps)
        assert cert.radius == want
        assert cert.F == tuple(range(want + 1))
        assert cert.window_weight == (want + 1) * (want + 2) * (2 * want + 3) // 6
        assert cert.boundary_weight == (want + 1) ** 2 + (want + 2) ** 2
        assert verify_certificate(SU2, cert)


def test_z_certificate_first_at_twenty():
    cert = folner_search(Z, [1, -1], Fraction(1, 10), 64)
    assert cert.radius == 20
    assert cert.boundary_weight == 4
    assert cert.window_weight == 41
    assert Fraction(cert.boundary_weight, cert.window_weight) == Fraction(4, 41)


def test_exhaustion_report_is_neutral():
    rep = folner_search(Z, [1, -1], Fraction(1, 10), 3)
    assert isinstance(rep, ExhaustionReport)
    assert len(rep.profile) == 4
    assert all(row.ratio > Fraction(1, 10) for row in rep.profile)


def test_ball_loops_weigh_no_label_and_read_no_interior(monkeypatch):
    # every group label weighs 1, so a radius loop counts labels and asks no
    # dimension; the record's interior is derived on read, and nothing reads
    # it. The search exhausts: a certificate is re-weighed label by label in
    # verify_certificate, on purpose
    from folnerlab.fusion import BoundaryData, GroupFusionRing

    def forbidden(*args):
        raise AssertionError("dimension or interior read")

    monkeypatch.setattr(GroupFusionRing, "_dim", forbidden)
    monkeypatch.setattr(BoundaryData, "interior", property(forbidden))
    z2_gens, heis_gens = [(1, 0), (0, 1)], [(1, 0, 0), (0, 1, 0)]
    rows = isoperimetric_profile(Z2, z2_gens, 20)
    assert [row.window_weight for row in rows] == [2 * r * r + 2 * r + 1 for r in range(21)]
    rows = isoperimetric_profile(HEIS, heis_gens, 6)
    assert [row.window_weight for row in rows] == [len(ball(HEIS, heis_gens, r)) for r in range(7)]
    rep = folner_search(Z2, z2_gens, Fraction(1, 100), 10)
    assert isinstance(rep, ExhaustionReport) and len(rep.profile) == 11


def test_user_supplied_windows_strategy():
    windows = [range(-n, n + 1) for n in (1, 5, 25)]
    cert = folner_search(Z, [1, -1], Fraction(1, 10), 10, windows=windows)
    assert cert.strategy == "user"
    assert cert.window_weight == 51
    assert verify_certificate(Z, cert)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        folner_search(Z, [1], Fraction(0), 5)
    with pytest.raises(ValueError):
        folner_search(Z, [], Fraction(1, 2), 5)


# ---------------------------------------------------------------------------
# profiles

def test_profile_z_row_example():
    rows = isoperimetric_profile(Z, [1, -1], 2)
    r1 = rows[1]
    assert (r1.window_weight, r1.boundary_weight, r1.symmetric_boundary_weight) \
        == (3, 2, 4)
    assert r1.ratio == Fraction(4, 3)


def test_profile_su2_row_example():
    rows = isoperimetric_profile(SU2, [1], 5)
    r5 = rows[5]
    assert (r5.window_weight, r5.boundary_weight, r5.symmetric_boundary_weight) \
        == (91, 36, 85)


def test_profile_unit_generator_all_zero_boundary():
    for ring in (SU2, Z, S3):
        rows = isoperimetric_profile(ring, [ring.unit], 2)
        assert rows[0].window_weight == 1
        assert all(r.boundary_weight == 0 and r.symmetric_boundary_weight == 0
                   for r in rows)


def test_inner_boundary_not_bigger_than_symmetric():
    for ring, S in [(SU2, [1]), (Z, [1, -1]), (Z2, [(1, 0), (0, 1)])]:
        for row in isoperimetric_profile(ring, S, 8):
            assert row.boundary_weight <= row.symmetric_boundary_weight


def decay_exponent(rows, radii):
    xs = np.log([r.radius for r in rows if r.radius in radii])
    ys = np.log([float(r.ratio) for r in rows if r.radius in radii])
    slope = np.polyfit(xs, ys, 1)[0]
    return -slope


def test_profile_ratios_decay_like_one_over_radius():
    radii = set(range(10, 101))
    for ring, S in [(Z, [1, -1]), (SU2, [1])]:
        rows = isoperimetric_profile(ring, S, 100)
        tail = [r for r in rows if r.radius >= 10]
        assert all(b.ratio <= a.ratio for a, b in zip(tail, tail[1:]))
        exp = decay_exponent(rows, radii)
        assert 0.8 <= exp <= 1.2


# ---------------------------------------------------------------------------
# independent verifier

def test_verifier_rejects_corrupted_certificates():
    cert = folner_search(Z, [1, -1], Fraction(1, 10), 64)
    assert verify_certificate(Z, cert)
    bad_weight = FolnerCertificate(
        ring=cert.ring, S=cert.S, epsilon=cert.epsilon, F=cert.F,
        boundary_weight=cert.boundary_weight - 1,
        window_weight=cert.window_weight, strategy=cert.strategy,
        radius=cert.radius)
    assert not verify_certificate(Z, bad_weight)
    bad_window = FolnerCertificate(
        ring=cert.ring, S=cert.S, epsilon=cert.epsilon,
        F=tuple(range(-3, 4)), boundary_weight=cert.boundary_weight,
        window_weight=cert.window_weight, strategy=cert.strategy, radius=3)
    assert not verify_certificate(Z, bad_window)
    not_closed = FolnerCertificate(
        ring=cert.ring, S=cert.S, epsilon=cert.epsilon,
        F=tuple(range(0, 21)), boundary_weight=2, window_weight=21,
        strategy="user", radius=0)
    assert not verify_certificate(Z, not_closed)


def test_verifier_rejects_non_canonical_labels():
    Z6 = ring_from_tag("group:Z/6")
    cert = folner_search(Z6, [1], Fraction(1, 2), 5)
    assert verify_certificate(Z6, cert)
    assert not verify_certificate(Z6, replace(cert, S=(7,)))
    assert not verify_certificate(Z6, replace(cert, F=cert.F[:-1] + (cert.F[-1] + 6,)))


def test_verifier_checks_each_label_once(label_checks):
    cert = folner_search(Z2, [(1, 0), (0, 1)], Fraction(1, 2), 64)
    label_checks.clear()
    assert verify_certificate(Z2, cert)
    assert len(label_checks) == len(cert.F) + len(cert.S)


def test_every_emitted_certificate_revalidates():
    for ring, S, eps in [(SU2, [1], Fraction(1, 3)),
                         (Z2, [(1, 0), (0, 1)], Fraction(1, 2)),
                         (S3, ["std", "sgn"], Fraction(1, 7))]:
        cert = folner_search(ring, S, eps, 64)
        assert isinstance(cert, FolnerCertificate)
        assert verify_certificate(ring, cert)

"""Folner-set search and isoperimetric profiling over fusion rings.

A Folner certificate for (S, epsilon) is a finite conjugation-closed window F
whose symmetric boundary is strictly epsilon-small in weighted counts:

    |bd^sym_S(F)| < epsilon * |F|,

compared exactly by cross-multiplied integers. The search scans conjugation
closures of the balls of S by increasing radius (the canonical exhaustion);
an explicit window sequence may be supplied instead. Exhausting the radius
budget yields a neutral report with the full ratio profile; no claim about
non-coamenability is ever made.

Every certificate emitted here re-validates through ``verify_certificate``,
a deliberately independent re-implementation of the boundary arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .fusion import (BoundaryData, FusionRing, ball, ball_rows, boundary_decomposition,
                     conjugation_closure)
from .serialize import Report


@dataclass(frozen=True)
class ProfileRow(Report):
    radius: int
    window_weight: int
    boundary_weight: int
    symmetric_boundary_weight: int
    ratio: Fraction  # |bd^sym| / |F|

    def to_json(self) -> dict:
        return {**super().to_json(), "ratio_decimal": float(self.ratio)}


@dataclass(frozen=True)
class FolnerCertificate(Report):
    ring: str
    S: tuple
    epsilon: Fraction
    F: tuple
    boundary_weight: int  # weight of the symmetric boundary
    window_weight: int
    strategy: str
    radius: int


@dataclass(frozen=True)
class ExhaustionReport(Report):
    ring: str
    S: tuple
    epsilon: Fraction
    max_radius: int
    strategy: str
    profile: tuple = field(default_factory=tuple)


def folner_search(ring: FusionRing, S, epsilon, max_radius: int,
                  windows=None):
    """First window satisfying the strict Folner inequality, or a report.

    The ball strategy reads its rows from the ball cache (``ball_rows``), one
    shell at a time, and builds B_r only for a certificate. ``windows``
    switches to a user-supplied, non-empty window sequence (each window is
    closed under conjugation before testing); an exhaustion report gives the
    index of the last window tested as its ``max_radius``. Certificates are
    re-validated from scratch before being returned.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if max_radius < 0:
        raise ValueError("max_radius must be >= 0")
    S = ring.label_set(S)
    if not S:
        raise ValueError("S must be non-empty")
    strategy = "ball" if windows is None else "user"
    if windows is None:
        tested = ((_row(radius, *weights), None)
                  for radius, weights in enumerate(ball_rows(ring, S)))
    else:
        tested = _user_rows(ring, S, windows)
    profile = []
    for radius, (row, window) in zip(range(max_radius + 1), tested):
        profile.append(row)
        # strict inequality, cross-multiplied integers
        if row.symmetric_boundary_weight * epsilon.denominator \
                < epsilon.numerator * row.window_weight:
            if window is None:
                window = ball(ring, S, radius)
            cert = FolnerCertificate(
                ring=ring.tag, S=ring.sorted_labels(S), epsilon=epsilon,
                F=ring.sorted_labels(window),
                boundary_weight=row.symmetric_boundary_weight,
                window_weight=row.window_weight,
                strategy=strategy, radius=radius)
            if not verify_certificate(ring, cert):
                raise RuntimeError("certificate failed independent re-validation")
            return cert
    if not profile:
        raise ValueError("windows must not be empty")
    return ExhaustionReport(ring=ring.tag, S=ring.sorted_labels(S),
                            epsilon=epsilon, max_radius=len(profile) - 1,
                            strategy=strategy, profile=tuple(profile))


def _user_rows(ring: FusionRing, S, windows):
    """(row, window) of each user window, closed under conjugation."""
    for radius, W in enumerate(windows):
        dec = boundary_decomposition(ring, conjugation_closure(ring, W), S)
        if not dec.window:
            raise ValueError(f"window {radius} is empty")
        yield _profile_row(dec, radius), dec.window


def _row(radius: int, window: int, boundary: int, symmetric: int) -> ProfileRow:
    return ProfileRow(radius=radius, window_weight=window, boundary_weight=boundary,
                      symmetric_boundary_weight=symmetric, ratio=Fraction(symmetric, window))


def _profile_row(dec: BoundaryData, radius: int) -> ProfileRow:
    """The row of the window of the boundary decomposition ``dec``."""
    return _row(radius, dec.window_weight, dec.boundary_weight, dec.symmetric_boundary_weight)


def isoperimetric_profile(ring: FusionRing, S, max_radius: int) -> list[ProfileRow]:
    """Exact integer table (radius, |F|, |bd_S F|, |bd^sym_S F|, ratio) of the
    balls B_0..B_max_radius, read from the ball cache (``ball_rows``): a cold
    radius-R profile grows shells 0..R+1 once and builds no ball."""
    if max_radius < 0:
        raise ValueError("max_radius must be >= 0")
    S = ring.label_set(S)
    if not S:
        raise ValueError("S must be non-empty")
    return [_row(radius, *weights)
            for radius, weights in zip(range(max_radius + 1), ball_rows(ring, S))]


# ---------------------------------------------------------------------------
# independent re-validation (second code path, on purpose not reusing
# boundary_decomposition / weighted_size); the labels are checked once at the
# top, and the products, conjugates and dimensions after that trust them

def _weight_by_loop(ring, labels) -> int:
    total = 0
    for u in labels:
        d = ring._dim(u)
        total += d * d
    return total


def verify_certificate(ring: FusionRing, cert: FolnerCertificate) -> bool:
    """Recompute both sides of the inequality from the ring data alone."""
    if any(ring.check_label(u) != u for u in (*cert.F, *cert.S)):
        return False
    F = set(cert.F)
    S = set(cert.S)
    if not S or {ring._conj(u) for u in F} != F:
        return False
    inner_boundary = set()
    for u in F:
        for v in S:
            if any(w not in F for w in ring.product(u, v)):
                inner_boundary.add(u)
                break
    # candidates come from Frobenius reciprocity (that keeps them finite);
    # membership is then checked against the literal definition of bd_S(F^c)
    candidates = set()
    for w in F:
        for v in S:
            candidates.update(u for u in ring.product(w, ring._conj(v)) if u not in F)
    outer_boundary = {u for u in candidates
                      if any(any(x in F for x in ring.product(u, v)) for v in S)}
    sym = inner_boundary | outer_boundary
    lhs = _weight_by_loop(ring, sym)
    rhs_window = _weight_by_loop(ring, F)
    if lhs != cert.boundary_weight or rhs_window != cert.window_weight:
        return False
    return lhs * cert.epsilon.denominator < cert.epsilon.numerator * rhs_window

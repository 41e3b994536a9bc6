"""Fusion rings: providers, weighted sizes, boundaries, balls, axioms."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folnerlab import (BoundaryData, InvalidLabelError, ball, ball_boundary,
                       boundary_decomposition, check_axioms, conjugate_set,
                       conjugation_closure, isoperimetric_profile, ring_from_tag,
                       weighted_size)

SU2 = ring_from_tag("su2")
Z = ring_from_tag("group:Z")
Z2 = ring_from_tag("group:Z^2")
ZXZ2 = ring_from_tag("group:ZxZ/2")
Z6 = ring_from_tag("group:Z/6")
S3 = ring_from_tag("finite:S3")
HEIS = ring_from_tag("group:heisenberg")

ALL_RINGS = [SU2, Z, Z2, ZXZ2, Z6, S3, HEIS]


def su2_character(k, theta):
    return math.sin((k + 1) * theta) / math.sin(theta)


# ---------------------------------------------------------------------------
# product_support

def test_su2_product_examples():
    assert SU2.product_support(1, 1) == ((0, 1), (2, 1))
    assert SU2.product_support(0, 7) == ((7, 1),)
    assert SU2.product_support(3, 2) == ((1, 1), (3, 1), (5, 1))


def test_su2_products_match_character_oracle():
    # sin((k+1)t)/sin(t) characters multiply like the fusion rule does
    thetas = [0.3, 0.7, 1.1, 2.0]
    for u in range(13):
        for v in range(13):
            prod = dict(SU2.product_support(u, v))
            for t in thetas:
                lhs = su2_character(u, t) * su2_character(v, t)
                rhs = sum(n * su2_character(w, t) for w, n in prod.items())
                assert abs(lhs - rhs) < 1e-9


def s3_perms():
    return [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def s3_characters():
    # computed from scratch: permutation character minus trivial for std
    chars = {"triv": {}, "sgn": {}, "std": {}}
    for p in s3_perms():
        fixed = sum(1 for i in range(3) if p[i] == i)
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        chars["triv"][p] = 1
        chars["sgn"][p] = -1 if inv % 2 else 1
        chars["std"][p] = fixed - 1
    return chars


def test_s3_products_match_character_inner_products():
    chars = s3_characters()
    for u in S3.labels:
        for v in S3.labels:
            got = dict(S3.product_support(u, v))
            for w in S3.labels:
                mult = sum(chars[u][p] * chars[v][p] * chars[w][p]
                           for p in s3_perms()) // 6
                assert got.get(w, 0) == mult
    assert S3.product_support("std", "std") == \
        (("triv", 1), ("sgn", 1), ("std", 1))


def test_unit_law_everywhere():
    for ring in ALL_RINGS:
        u = ring.unit
        for v in [u] + list(ball(ring, [u], 0)):
            assert ring.product_support(u, v) == ((v, 1),)


def test_invalid_label_errors():
    with pytest.raises(InvalidLabelError):
        SU2.product_support(-1, 2)
    with pytest.raises(InvalidLabelError):
        S3.product_support("std", "spin")
    with pytest.raises(InvalidLabelError):
        Z2.product_support((1, 2, 3), (0, 0))
    # the check is type-exact: a bool is not an integer label
    with pytest.raises(InvalidLabelError):
        SU2.dim(True)
    with pytest.raises(InvalidLabelError):
        HEIS.product_support((0, True, 0), HEIS.unit)


# labels are checked where they enter the library: every public edge still
# rejects a bad label although the inner loops no longer check them
BAD_Z2_LABELS = [(1, 2, 3), (1,), (0.5, 0), (True, 0), 1.5, [0, 0, 0, 0]]


def _z2_label_edges():
    from folnerlab import (MatrixOverPol, algebra_for, kernel_dim_estimate,
                           restricted_mult_matrix)

    A = algebra_for("group:Z^2")
    T = MatrixOverPol.from_element(A.one() - A.group_element((1, 0)))
    F = [(0, 0), (1, 0), (-1, 0)]
    return {
        "boundary_decomposition-F": lambda bad: boundary_decomposition(Z2, F + [bad], [(1, 0)]),
        "boundary_decomposition-S": lambda bad: boundary_decomposition(Z2, F, [(1, 0), bad]),
        "restricted_mult_matrix-F": lambda bad: restricted_mult_matrix(T, F + [bad]),
        "restricted_mult_matrix-S": lambda bad: restricted_mult_matrix(
            T, F, S=[(0, 0), (1, 0), bad]),
        "kernel_dim_estimate": lambda bad: kernel_dim_estimate(T, F + [bad]),
        "weighted_size": lambda bad: weighted_size(Z2, F + [bad]),
        "ball": lambda bad: ball(Z2, [(1, 0), bad], 2),
        "product_support": lambda bad: Z2.product_support((1, 0), bad),
    }


@pytest.mark.parametrize("edge", sorted(_z2_label_edges()))
@pytest.mark.parametrize("bad", BAD_Z2_LABELS, ids=repr)
def test_invalid_label_rejected_at_every_public_edge(edge, bad):
    call = _z2_label_edges()[edge]
    with pytest.raises(InvalidLabelError):
        call(bad)


# a window is checked once, where it enters, and passes through the library
# as a LabelSet of its ring after that; an element's support is a LabelSet
# from the start (label_checks is in conftest.py)

def test_profile_checks_only_its_generators(label_checks):
    from folnerlab import isoperimetric_profile

    S = [(1, 0), (0, 1)]
    isoperimetric_profile(Z2, S, 12)
    assert len(label_checks) <= len(S)


# (terms of T, window) per ring, for the check counts of operator and estimate
CHECKED_OPERATORS = {
    "group:Z^2": ({(0, 0): 3, (1, 0): -1, (0, 1): 2},
                  [(i, j) for i in range(-3, 4) for j in range(-3, 4)]),
    "su2": ({(1, 1, 2): 1, (2, 3, 1): 1, 0: -1}, list(range(9))),
    "finite:S3": ({("std", 1, 2): 1, "sgn": 1}, ["triv", "sgn", "std"]),
}


@pytest.mark.parametrize("tag", sorted(CHECKED_OPERATORS))
def test_operator_and_estimate_check_only_the_window(tag, label_checks):
    from folnerlab import (MatrixOverPol, algebra_for, kernel_dim_estimate,
                           restricted_mult_matrix)

    terms, F = CHECKED_OPERATORS[tag]
    T = MatrixOverPol.from_element(algebra_for(tag).element(terms))
    for run in (lambda: restricted_mult_matrix(T, F), lambda: kernel_dim_estimate(T, F)):
        label_checks.clear()
        run()
        assert len(label_checks) == len(F)  # the support is not checked again


def test_finite_kernel_dim_checks_only_the_support(label_checks):
    from folnerlab import MatrixOverPol, algebra_for, exact_mvn_dim_finite

    A = algebra_for("group:heisenberg/3")
    T = MatrixOverPol.from_element(
        A.element({(0, 0, 0): 2, (1, 0, 0): -1, (0, 1, 0): -1}))
    label_checks.clear()
    assert exact_mvn_dim_finite(T) > 0  # the sum of all group elements
    assert len(label_checks) <= len(T.support())


def test_check_axioms_checks_each_label_once(label_checks):
    labels = list(ball(HEIS, [(1, 0, 0), (0, 1, 0)], 1))
    label_checks.clear()
    report = check_axioms(HEIS, labels)
    assert report["ok"] and report["pairs_checked"] == 25
    assert len(label_checks) == len(labels) == 5


def test_label_set_of_another_ring_is_checked_again():
    S = [(1, 0), (0, 1)]
    B = ball(Z2, S, 3)
    Z4 = ring_from_tag("group:Z/4xZ/4")
    reduced = {(i % 4, j % 4) for i, j in B}
    assert len(reduced) < len(B)
    assert weighted_size(Z4, B) == weighted_size(Z4, reduced) == len(reduced)
    got, want = boundary_decomposition(Z4, B, S), boundary_decomposition(Z4, reduced, S)
    for part in ("interior", "boundary", "coboundary", "symmetric_boundary"):
        assert getattr(got, part) == getattr(want, part)
    with pytest.raises(InvalidLabelError):
        weighted_size(HEIS, B)
    with pytest.raises(InvalidLabelError):
        boundary_decomposition(HEIS, B, [(1, 0, 0)])


# ---------------------------------------------------------------------------
# weighted_size

def test_weighted_size_examples():
    for ring in ALL_RINGS:
        assert weighted_size(ring, [ring.unit]) == 1
    assert weighted_size(SU2, [0, 1, 2]) == 1 + 4 + 9
    assert weighted_size(S3, S3.irreducibles()) == 6  # = |S3|
    assert weighted_size(Z6, Z6.irreducibles()) == 6


def test_weighted_size_termwise():
    F = [0, 3, 5, 8]
    assert weighted_size(SU2, F) == sum((k + 1) ** 2 for k in F)


# ---------------------------------------------------------------------------
# boundary_decomposition

def test_su2_boundary_example():
    dec = boundary_decomposition(SU2, range(6), [1])
    assert dec.interior == frozenset(range(5))
    assert dec.boundary == frozenset({5})
    assert dec.coboundary == frozenset({6})
    assert dec.symmetric_boundary == frozenset({5, 6})


def test_z_boundary_example():
    N = 7
    dec = boundary_decomposition(Z, range(-N, N + 1), [1, -1])
    assert dec.boundary == frozenset({-N, N})
    assert dec.coboundary == frozenset({-(N + 1), N + 1})


def test_finite_full_window_has_no_boundary():
    for ring, S in [(S3, ["std"]), (Z6, [1]), (S3, ["sgn", "std"])]:
        dec = boundary_decomposition(ring, ring.irreducibles(), S)
        assert dec.boundary == frozenset()
        assert dec.coboundary == frozenset()


def test_boundary_partition_property(rng):
    cases = [(SU2, range(13)), (Z, range(-6, 7)), (Z2, [(i, j) for i in range(-2, 3) for j in range(-2, 3)]),
             (S3, S3.irreducibles()), (Z6, Z6.irreducibles()),
             (HEIS, sorted(ball(HEIS, [(1, 0, 0), (0, 1, 0)], 2)))]
    for ring, pool in cases:
        pool = list(pool)
        for _ in range(12):
            F = frozenset(rng.sample(pool, rng.randint(1, min(6, len(pool)))))
            S = frozenset(rng.sample(pool, rng.randint(1, 3)))
            dec = boundary_decomposition(ring, F, S)
            assert dec.interior | dec.boundary == F
            assert not (dec.interior & dec.boundary)
            assert not (dec.coboundary & F)
            assert dec.symmetric_boundary == dec.boundary | dec.coboundary


@pytest.mark.parametrize("ring,F,S", [
    pytest.param(SU2, range(7), [1, 2], id="su2"),
    pytest.param(S3, ["triv", "std"], ["std"], id="S3"),
    pytest.param(Z2, ball(Z2, [(1, 0), (0, 1)], 3), [(1, 0), (1, 1)], id="Z^2"),
    pytest.param(HEIS, ball(HEIS, [(1, 0, 0), (0, 1, 0)], 3), [(1, 0, 0), (0, 1, 0)],
                 id="heisenberg"),
])
@pytest.mark.parametrize("side", ["right", "left"])
def test_boundary_record_carries_window_and_weights(ring, F, S, side):
    # the record's window is interior u boundary, and its weights are those
    # of its sets, computed where it is built
    dec = boundary_decomposition(ring, F, S, side=side)
    assert dec.window == frozenset(F)
    assert dec.window_weight == weighted_size(ring, F)
    assert dec.boundary_weight == weighted_size(ring, dec.boundary)
    assert dec.interior_weight == weighted_size(ring, dec.interior)
    assert dec.symmetric_boundary_weight == weighted_size(ring, dec.symmetric_boundary)
    assert dec.boundary and dec.interior


def test_coboundary_frobenius_against_direct_complement(rng):
    # on finite providers the complement is enumerable, so the literal
    # definition of bd_S(F^c) can be checked directly
    heis3 = ring_from_tag("group:heisenberg/3")
    for ring in (S3, Z6, heis3):
        labels = list(ring.irreducibles())
        for _ in range(10):
            F = frozenset(rng.sample(labels, rng.randint(1, len(labels) - 1)))
            S = frozenset(rng.sample(labels, rng.randint(1, 2)))
            dec = boundary_decomposition(ring, F, S)
            direct = {
                u for u in labels
                if u not in F and any(
                    set(ring.product(u, v)) & F for v in S)
            }
            assert dec.coboundary == frozenset(direct)


def test_empty_S_rejected():
    with pytest.raises(ValueError):
        boundary_decomposition(SU2, [0, 1], [])


def test_left_side_matches_right_on_commutative():
    dec_r = boundary_decomposition(SU2, range(6), [1], side="right")
    dec_l = boundary_decomposition(SU2, range(6), [1], side="left")
    assert dec_r.interior == dec_l.interior
    assert dec_r.coboundary == dec_l.coboundary


def test_left_side_differs_on_heisenberg():
    # uS stays in the ball, Su does not (or vice versa), so the two
    # interiors genuinely differ on a noncommutative provider
    F = ball(HEIS, [(1, 0, 0), (0, 1, 0)], 4)
    S = [(1, 0, 0), (0, 1, 0)]
    dec_r = boundary_decomposition(HEIS, F, S, side="right")
    dec_l = boundary_decomposition(HEIS, F, S, side="left")
    assert dec_r.interior != dec_l.interior
    # word reversal is an anti-automorphism fixing the generators, so the
    # two interiors still have equal size
    assert len(dec_r.interior) == len(dec_l.interior)
    # membership really is side-dependent
    for u in dec_r.interior:
        assert all(set(HEIS.product(u, v)) <= F for v in S)
    for u in dec_l.interior:
        assert all(set(HEIS.product(v, u)) <= F for v in S)


def test_record_rejects_boundary_outside_window():
    # |int F| = |F| - |bd F| needs the boundary inside F; the coboundary is
    # the reach minus F, so it cannot meet the window
    with pytest.raises(ValueError, match="boundary must lie in the window"):
        BoundaryData(Z.label_set([1]), "right", [0, 1], [1, 2], lambda: {3})
    dec = BoundaryData(Z.label_set([1]), "right", [0, 1, 2], [2], lambda: {2, 3})
    assert dec.interior == frozenset({0, 1}) and dec.interior_weight == 2
    assert dec.coboundary == frozenset({3})
    assert dec.symmetric_boundary_weight == 2


def _bad_side_calls():
    from folnerlab import (MatrixOverPol, algebra_for, kernel_dim_estimate,
                           kernel_dim_sequence, restricted_mult_matrix,
                           zero_divisor_search)

    A = algebra_for("group:Z^2")
    a = A.one() - A.group_element((1, 0))
    T = MatrixOverPol.from_element(a)
    F = ball(Z2, [(1, 0)], 2)
    return {
        "boundary_decomposition": lambda side: boundary_decomposition(Z2, F, [(1, 0)], side),
        "restricted_mult_matrix": lambda side: restricted_mult_matrix(T, F, side),
        "kernel_dim_estimate": lambda side: kernel_dim_estimate(T, F, side),
        "kernel_dim_sequence": lambda side: kernel_dim_sequence(a, side),
        "zero_divisor_search": lambda side: zero_divisor_search(a, side),
    }


@pytest.mark.parametrize("call", sorted(_bad_side_calls()))
def test_bad_side_is_rejected(call):
    with pytest.raises(ValueError, match="side"):
        _bad_side_calls()[call]("up")


# ---------------------------------------------------------------------------
# ball_boundary: the ball's record from its outer shell

RECORD_FIELDS = ("window", "interior", "boundary", "coboundary", "symmetric_boundary",
                 "window_weight", "interior_weight", "boundary_weight",
                 "symmetric_boundary_weight")


def _assert_same_record(got, want):
    for name in RECORD_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


def _assert_shell_matches_full(ring, S, max_radius):
    for radius in range(max_radius + 1):
        for side in ("right", "left"):
            _assert_same_record(ball_boundary(ring, S, radius, side=side),
                                boundary_decomposition(ring, ball(ring, S, radius), S, side=side))


@pytest.mark.parametrize("ring,S,max_radius", [
    pytest.param(Z2, [(1, 0), (0, 1)], 6, id="Z^2"),
    pytest.param(HEIS, [(1, 0, 0), (0, 1, 0)], 4, id="heisenberg"),
    pytest.param(HEIS, [(1, 0, 0), (0, 1, 0), (1, 1, 1)], 3, id="heisenberg-three"),
    pytest.param(SU2, [1], 6, id="su2-1"),
    pytest.param(SU2, [2, 3], 6, id="su2-23"),
    pytest.param(S3, ["std"], 3, id="S3"),
    pytest.param(Z6, [1], 5, id="Z/6-saturating"),
    pytest.param(Z2, [(0, 0), (1, 0), (1, 1)], 4, id="Z^2-with-unit"),
    pytest.param(HEIS, [(0, 0, 0), (0, 1, 0)], 3, id="heisenberg-with-unit"),
])
def test_ball_boundary_matches_full_decomposition(ring, S, max_radius):
    _assert_shell_matches_full(ring, S, max_radius)


def _labels(ring):
    if ring is HEIS:
        return st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-1, 1))
    if ring is ZXZ2:
        return st.tuples(st.integers(-2, 2), st.integers(0, 1))
    return st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_ball_boundary_matches_full_decomposition_on_random_S(data):
    ring = data.draw(st.sampled_from((Z2, ZXZ2, HEIS)))
    S = data.draw(st.lists(_labels(ring), min_size=1, max_size=3, unique=True))
    _assert_shell_matches_full(ring, S, 3 if ring is HEIS else 5)


def test_profile_tests_only_the_shell(monkeypatch):
    # one interior test and one Frobenius reach step per shell label and
    # generator; the ball itself is cached per (ring, S), so it is grown
    # first and its own products are not counted
    S, radius = [(1, 0), (0, 1)], 30
    shell_labels = len(ball(Z2, S, radius))  # the shells B_r \ B_{r-1} partition B_30
    real, calls = Z2._support, []

    def counting(u, v):
        calls.append(None)
        return real(u, v)

    monkeypatch.setattr(Z2, "_support", counting)
    rows = isoperimetric_profile(Z2, S, radius)
    assert rows[-1].window_weight == shell_labels
    assert 0 < len(calls) <= 2 * len(S) * shell_labels


@pytest.mark.parametrize("tag", ["group:Q", "S3", "group:heisenberg/x", "group:Z^0",
                                 "group:Z^x", "group:ZxQ"])
def test_bad_ring_tag_is_rejected(tag):
    with pytest.raises(ValueError, match="tag"):
        ring_from_tag(tag)


@pytest.mark.parametrize("alias, tag", [("group:ZxZ", "group:Z^2"),
                                        ("group:ZxZxZ", "group:Z^3")])
def test_alias_tag_resolves_to_the_shared_ring(alias, tag):
    ring = ring_from_tag(alias)
    assert ring is ring_from_tag(tag) and ring.tag == tag
    assert ring_from_tag(alias) is ring


# ---------------------------------------------------------------------------
# ball

def test_ball_examples():
    with pytest.raises(ValueError, match="radius"):
        ball(Z, [1], -1)
    assert ball(SU2, [5, 2], 0) == frozenset({0})
    assert ball(SU2, [1], 3) == frozenset({0, 1, 2, 3})
    assert ball(Z, [1], 2) == frozenset(range(-2, 3))


def test_ball_monotone():
    for ring, S in [(SU2, [1]), (Z2, [(1, 0), (0, 1)]),
                    (HEIS, [(1, 0, 0), (0, 1, 0)]), (Z6, [1])]:
        prev = None
        for r in range(6):
            cur = ball(ring, S, r)
            if prev is not None:
                assert prev <= cur
            prev = cur


def _nested_balls(ring, S, radius):
    """B_0 = {e}, B_{r+1} = B_r u supp(B_r x gens), gens = S u conj(S)."""
    gens = set(S) | {ring._conj(v) for v in S}
    balls = [frozenset({ring.unit})]
    for _ in range(radius):
        B = balls[-1]
        balls.append(B | {w for u in B for v in gens for w in ring.product(u, v)})
    return balls


def _cached_shells(ring, S):
    return ring._ball_cache[ring.sorted_labels(ring.label_set(S))]


@pytest.mark.parametrize("ring,S", [
    pytest.param(SU2, [1], id="su2"),
    pytest.param(SU2, [0, 3], id="su2-with-unit"),
    pytest.param(Z2, [(1, 0), (0, 1)], id="Z^2-not-conjugation-closed"),
    pytest.param(Z2, [(0, 0), (1, 1), (-1, -1)], id="Z^2-with-unit"),
    pytest.param(HEIS, [(1, 0, 0), (0, 1, 0)], id="heisenberg-not-conjugation-closed"),
    pytest.param(HEIS, [(0, 0, 0), (1, 1, 0)], id="heisenberg-with-unit"),
    pytest.param(Z6, [1], id="Z/6-saturating"),
    pytest.param(Z6, [0, 2], id="Z/6-with-unit"),
    pytest.param(S3, ["std"], id="S3"),
    pytest.param(S3, ["triv", "sgn"], id="S3-with-unit"),
])
def test_shells_partition_the_nested_balls(monkeypatch, ring, S):
    # grown at once and radius by radius, the cached shells are B_0 and
    # B_r \ B_{r-1} of the nested definition, empty once a finite ring is
    # exhausted, and each ball is their union
    radius = 8
    nested = _nested_balls(ring, S, radius)
    shells = [nested[0]] + [nested[r] - nested[r - 1] for r in range(1, radius + 1)]
    monkeypatch.setattr(ring, "_ball_cache", {})
    assert ball(ring, S, radius) == nested[radius]
    assert _cached_shells(ring, S) == shells
    # each label is cached once: the shells hold |B_R| labels in all
    assert sum(map(len, _cached_shells(ring, S))) == len(nested[radius])
    monkeypatch.setattr(ring, "_ball_cache", {})
    assert [ball(ring, S, r) for r in range(radius + 1)] == nested
    assert _cached_shells(ring, S) == shells


def test_ball_is_conjugation_closed():
    # folner_search, isoperimetric_profile and the CLI use balls as windows
    # without closing them under conjugation again
    for ring, S in [(SU2, [2]), (SU2, [1, 3]), (Z, [1]), (HEIS, [(1, 0, 0)]),
                    (HEIS, [(1, 0, 0), (0, 1, 1)]), (ZXZ2, [(1, 0), (0, 1)]),
                    (Z2, [(1, 0), (1, 1)]), (Z6, [1]), (S3, ["std"]), (S3, ["sgn"])]:
        for r in range(5):
            B = ball(ring, S, r)
            assert conjugate_set(ring, B) == B
            assert conjugation_closure(ring, B) == B


# ---------------------------------------------------------------------------
# conjugate_set

def test_conjugate_examples():
    assert conjugate_set(SU2, [0, 1, 2]) == frozenset({0, 1, 2})
    assert conjugate_set(Z, [1, 2]) == frozenset({-1, -2})
    assert conjugate_set(S3, ["std"]) == frozenset({"std"})  # real character
    chars = s3_characters()
    assert all(isinstance(c, int) for c in chars["std"].values())


def test_conjugation_closure_involutive(rng):
    for ring, pool in [(Z, range(-5, 6)), (HEIS, sorted(ball(HEIS, [(1, 0, 0), (0, 1, 0)], 2)))]:
        F = frozenset(rng.sample(list(pool), 4))
        C = conjugation_closure(ring, F)
        assert conjugate_set(ring, C) == C
        assert F <= C


# ---------------------------------------------------------------------------
# axioms (dimension multiplicativity, Frobenius reciprocity)

@pytest.mark.parametrize("ring,labels", [
    (SU2, range(13)),
    (S3, S3.irreducibles()),
    (Z6, Z6.irreducibles()),
    (HEIS, None),  # ball of radius 3
])
def test_fusion_axioms(ring, labels):
    if labels is None:
        labels = ball(ring, [(1, 0, 0), (0, 1, 0)], 3)
    report = check_axioms(ring, labels)
    assert report["ok"], report["failures"]
    assert report["pairs_checked"] == report["labels_checked"] ** 2

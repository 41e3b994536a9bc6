"""Algebra elements: multiplication, star, Haar state, restricted operators."""

import math
from fractions import Fraction

import pytest

from folnerlab import (AlgebraElement, AlgebraError, InvalidLabelError,
                       MatrixOverPol, algebra_for, ball,
                       boundary_decomposition, full_mult_matrix, rank_nullity,
                       restricted_mult_matrix, support, weighted_size)
from folnerlab.scalars import EXACT, QQi

from conftest import random_element, small_support

AZ = algebra_for("group:Z")
AZ2 = algebra_for("group:Z^2")
AZXZ2 = algebra_for("group:ZxZ/2")
AZ6 = algebra_for("group:Z/6")
AZMOD2 = algebra_for("group:Z/2")
AS3 = algebra_for("finite:S3")
ASU2 = algebra_for("su2")
AHEIS = algebra_for("group:heisenberg")

ALGEBRAS = [AZ, AZ2, AZXZ2, AZ6, AS3, ASU2, AHEIS]


def pool_for(algebra):
    ring = algebra.ring
    if ring.tag == "su2":
        return list(range(4))
    if ring.is_finite:
        return list(ring.irreducibles())
    gens = {"group:Z": [1], "group:Z^2": [(1, 0), (0, 1)],
            "group:ZxZ/2": [(1, 0), (0, 1)],
            "group:heisenberg": [(1, 0, 0), (0, 1, 0)]}[ring.tag]
    return sorted(ball(ring, gens, 2), key=ring.sort_key)


def assert_equal_mode(x, y, algebra, tol=1e-9):
    if algebra.mode == EXACT:
        assert x == y
    else:
        assert x.approx_eq(y, tol)


# ---------------------------------------------------------------------------
# support

def test_support_examples():
    assert AZ.zero().support() == frozenset()
    a = AZ.group_element({0: 1, 1: -1})
    assert a.support() == frozenset({0, 1})
    b = ASU2.basis(1, 1, 1) + ASU2.one().scale(2)
    assert b.support() == frozenset({0, 1})
    T = MatrixOverPol.from_element(a)
    assert support(T) == frozenset({0, 1})


# ---------------------------------------------------------------------------
# multiply

def test_unit_law(rng):
    for algebra in ALGEBRAS:
        a = random_element(algebra, rng, pool_for(algebra))
        assert_equal_mode(algebra.one() * a, a, algebra)
        assert_equal_mode(a * algebra.one(), a, algebra)


def test_order_two_generator_identity():
    e = AZXZ2.group_element((0, 0))
    t = AZXZ2.group_element((0, 1))
    assert ((e - t) * (e + t)).is_zero()
    assert ((t * t) - e).is_zero()


def test_s3_std_times_unit():
    u11 = AS3.basis("std", 1, 1)
    assert (u11 * AS3.one()).approx_eq(u11, 1e-12)


def test_su2_product_against_sympy_cg():
    from sympy import Rational
    from sympy.physics.quantum.cg import CG

    def cg(a, i, b, k, c, p):
        m1, m2, m = Rational(a - 2 * (i - 1), 2), Rational(b - 2 * (k - 1), 2), \
            Rational(c - 2 * (p - 1), 2)
        return float(CG(Rational(a, 2), m1, Rational(b, 2), m2,
                        Rational(c, 2), m).doit())

    a, b = 1, 2
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2, 3):
                for l in (1, 2, 3):
                    prod = ASU2.basis(a, i, j) * ASU2.basis(b, k, l)
                    for c in range(abs(a - b), a + b + 1, 2):
                        for p in range(1, c + 2):
                            for q in range(1, c + 2):
                                want = cg(a, i, b, k, c, p) * cg(a, j, b, l, c, q)
                                got = complex(prod.coeff(c, p, q))
                                if abs(want) > 1e-12 or abs(got) > 1e-12:
                                    assert abs(got - want) < 1e-9


def test_associativity_and_unitality(rng):
    for algebra in ALGEBRAS:
        pool = pool_for(algebra)
        for _ in range(6):
            a = random_element(algebra, rng, pool, max_terms=3)
            b = random_element(algebra, rng, pool, max_terms=3)
            c = random_element(algebra, rng, pool, max_terms=3)
            lhs = (a * b) * c
            rhs = a * (b * c)
            if algebra.mode == EXACT:
                assert lhs == rhs
            else:
                assert lhs.approx_eq(rhs, 1e-9 * max(1.0, lhs.norm_max()))


def test_fusion_support_inclusion(rng):
    for algebra in ALGEBRAS:
        pool = pool_for(algebra)
        ring = algebra.ring
        for _ in range(8):
            a = random_element(algebra, rng, pool, max_terms=3)
            b = random_element(algebra, rng, pool, max_terms=3)
            allowed = set()
            for u in a.support():
                for v in b.support():
                    allowed.update(ring.product(u, v))
            assert (a * b).support() <= allowed


def test_mixed_algebra_rejected():
    a = AZ.group_element({0: 1})
    b = AZ6.group_element({0: 1})
    with pytest.raises(AlgebraError):
        a * b


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf)],
                         ids=["inf", "-inf", "nan", "inf-imag"])
def test_non_finite_float_coefficient_is_rejected(bad):
    # an inf or nan coefficient would be trimmed away before the SVD could
    # see it, and a false bracket would come back: it is refused on entry
    from folnerlab.scalars import FLOAT, as_scalar

    with pytest.raises(ValueError, match="finite"):
        as_scalar(bad, FLOAT)
    with pytest.raises(ValueError, match="finite"):
        ASU2.element({0: bad})
    with pytest.raises(ValueError, match="finite"):
        AS3.element({"triv": 1.0}).scale(bad)


def test_float_product_overflow_is_rejected():
    # (1e200 u^1)^2 overflows; trimmed against an infinite cutoff, every term
    # would drop and the product would read 0
    from folnerlab.polalg import _trim_float

    big = ASU2.element({1: 1e200})
    with pytest.raises(AlgebraError, match="not finite"):
        big * big
    # the S3 product runs through numpy, which warns of the overflow on the way
    big = AS3.element({"std": 1e200})
    with pytest.warns(RuntimeWarning), pytest.raises(AlgebraError, match="not finite"):
        big * big
    # a nan compares false both ways, wherever it stands; a finite
    # coefficient can still have a modulus beyond the float range
    for coeffs in ({0: 1 + 0j, 1: complex(math.nan)}, {0: complex(math.nan), 1: 1 + 0j},
                   {0: complex(1.5e308, 1.5e308)}):
        with pytest.raises(AlgebraError, match="not finite"):
            _trim_float(coeffs)
    assert _trim_float({0: 1 + 0j, 1: 1e-20 + 0j}) == {0: 1 + 0j}


# ---------------------------------------------------------------------------
# inner product and Haar state

def s3_rep_matrices():
    """Independent reconstruction of the S3 irreps for averaging oracles."""
    import numpy as np

    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    B = np.array([[1 / math.sqrt(2), 1 / math.sqrt(6)],
                  [-1 / math.sqrt(2), 1 / math.sqrt(6)],
                  [0.0, -2 / math.sqrt(6)]])
    reps = {}
    for p in perms:
        P = np.zeros((3, 3))
        for i in range(3):
            P[p[i], i] = 1
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        reps[p] = {"triv": np.array([[1.0]]),
                   "sgn": np.array([[-1.0 if inv % 2 else 1.0]]),
                   "std": B.T @ P @ B}
    return perms, reps


def test_s3_inner_products_by_averaging():
    perms, reps = s3_rep_matrices()

    def avg(l1, i1, j1, l2, i2, j2):
        return sum(reps[p][l1][i1 - 1, j1 - 1] * reps[p][l2][i2 - 1, j2 - 1]
                   for p in perms) / 6.0

    u11 = AS3.basis("std", 1, 1)
    assert abs(complex(u11.inner(u11)) - avg("std", 1, 1, "std", 1, 1)) < 1e-12
    assert abs(complex(u11.inner(u11)) - 0.5) < 1e-12
    u12 = AS3.basis("std", 1, 2)
    sgn = AS3.basis("sgn")
    assert abs(complex(u11.inner(u12)) - avg("std", 1, 1, "std", 1, 2)) < 1e-12
    assert abs(complex(u11.inner(u12))) < 1e-12
    assert abs(complex(u11.inner(sgn))) < 1e-12
    one = AS3.one()
    assert abs(complex(one.inner(one)) - 1.0) < 1e-12


def test_inner_product_conjugate_symmetric_and_definite(rng):
    for algebra in (AZ, AS3, ASU2):
        pool = pool_for(algebra)
        for _ in range(5):
            a = random_element(algebra, rng, pool)
            b = random_element(algebra, rng, pool)
            lhs = complex(a.inner(b))
            rhs = complex(b.inner(a)).conjugate()
            assert abs(lhs - rhs) < 1e-9
            assert complex(a.inner(a)).real > 0


def test_haar_examples():
    assert AZ.one().haar() == QQi(1)
    for k in (1, -3, 5):
        assert AZ.group_element({k: 1}).haar() == QQi(0)
    perms, reps = s3_rep_matrices()
    avg = sum(reps[p]["std"][0, 0] for p in perms) / 6.0
    assert abs(avg) < 1e-12  # the averaging oracle agrees h(u_std_11) = 0
    assert abs(complex(AS3.basis("std", 1, 1).haar())) < 1e-12


# ---------------------------------------------------------------------------
# star

def test_star_involutive_and_compatible_with_inner(rng):
    for algebra in ALGEBRAS:
        pool = pool_for(algebra)
        for _ in range(5):
            a = random_element(algebra, rng, pool)
            b = random_element(algebra, rng, pool)
            assert_equal_mode(a.star().star(), a, algebra, tol=1e-9)
            # h(a* b) is the L2 inner product <a, b>
            lhs = complex((a.star() * b).haar())
            rhs = complex(a.inner(b))
            assert abs(lhs - rhs) < 1e-8 * max(1.0, a.norm_max() * b.norm_max())


def test_trace_formula_on_finite_providers(rng):
    # Tr(A^H P_F A) = h(a* a) |F| for the full multiplication matrix
    import itertools

    import numpy as np

    for algebra in (AZ6, AS3):
        ring = algebra.ring
        labels = list(ring.irreducibles())
        conj_closed = []
        for r in range(1, len(labels) + 1):
            for F in itertools.combinations(labels, r):
                if frozenset(ring.conj(u) for u in F) == frozenset(F):
                    conj_closed.append(frozenset(F))
        for _ in range(5):
            a = random_element(algebra, rng, labels)
            op = full_mult_matrix(MatrixOverPol.from_element(a), side="right")
            A = np.array([[complex(op.matrix.entry(r, c))
                           for c in range(op.matrix.shape[1])]
                          for r in range(op.matrix.shape[0])])
            h_norm = complex((a.star() * a).haar()).real
            for F in conj_closed:
                P = np.diag([1.0 if key[1] in F else 0.0
                             for key in op.codomain_basis])
                lhs = np.trace(A.conj().T @ P @ A).real
                assert abs(lhs - h_norm * weighted_size(ring, F)) < 1e-9 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# restricted multiplication matrices

def test_restricted_z_bidiagonal():
    a = AZ.group_element({0: 1, 1: -1})
    op = restricted_mult_matrix(MatrixOverPol.from_element(a), range(-2, 3))
    assert op.matrix.shape == (5, 4)
    assert op.interior == (-2, -1, 0, 1)
    # column for delta_k maps to delta_k - delta_{k+1}
    for col, (_, k, _, _) in enumerate(op.domain_basis):
        got = {r: op.matrix.entry(r, col) for r in range(5)
               if op.matrix.entry(r, col)}
        row_k = op.codomain_basis.index((0, k, 1, 1))
        row_k1 = op.codomain_basis.index((0, k + 1, 1, 1))
        assert got == {row_k: QQi(1), row_k1: QQi(-1)}
    assert rank_nullity(op.matrix) == (4, 0)


def test_restricted_z2_projection_idempotent():
    p = AZMOD2.group_element({0: Fraction(1, 2), 1: Fraction(1, 2)})
    op = full_mult_matrix(MatrixOverPol.from_element(p))
    assert op.matrix.shape == (2, 2)
    assert rank_nullity(op.matrix) == (1, 1)


def test_restricted_unit_is_inclusion():
    one = AZ.one()
    op = restricted_mult_matrix(MatrixOverPol.from_element(one), range(-3, 4))
    assert op.interior == op.window  # S = {e} keeps everything interior
    for col in range(op.matrix.shape[1]):
        row = op.codomain_basis.index(op.domain_basis[col])
        assert op.matrix.entry(row, col) == QQi(1)
    rank, nullity = rank_nullity(op.matrix)
    assert (rank, nullity) == (7, 0)


def test_restricted_escape_is_internal_error():
    # with S strictly containing supp(T) the interior shrinks but the map
    # still lands inside F; passing S smaller than supp(T) is rejected
    a = AZ.group_element({0: 1, 2: 1})
    with pytest.raises(AlgebraError):
        restricted_mult_matrix(MatrixOverPol.from_element(a), range(-2, 3), S=[0])


def test_restricted_zero_matrix_rejected():
    with pytest.raises(AlgebraError):
        restricted_mult_matrix(MatrixOverPol.from_element(AZ.zero()), [0])


def test_restricted_empty_interior_flagged():
    a = AZ.group_element({0: 1, 5: 1})
    op = restricted_mult_matrix(MatrixOverPol.from_element(a), [0, 1, -1])
    assert not op.interior
    assert op.matrix.shape == (3, 0)


def test_restricted_float_orthonormal_scaling():
    # row scaling by sqrt(n_a / n_b) keeps the matrix the operator matrix
    # in the orthonormal basis; for multiplication by the unit it stays
    # an inclusion with unit entries
    op = restricted_mult_matrix(MatrixOverPol.from_element(ASU2.one()), [0, 1, 2])
    for col in range(op.matrix.shape[1]):
        row = op.codomain_basis.index(op.domain_basis[col])
        assert abs(op.matrix.entry(row, col) - 1.0) < 1e-12


def test_index_range_validation():
    with pytest.raises(AlgebraError):
        AS3.basis("sgn", 1, 2)
    with pytest.raises(AlgebraError):
        ASU2.basis(1, 3, 1)


@pytest.mark.parametrize("terms, error", [
    ({((1, 2, 3), 1, 1): QQi(1)}, InvalidLabelError),
    ({((1, 0), 1, 2): QQi(1)}, AlgebraError),
    ({((1, 0), 1, 1): 0.5}, TypeError),
], ids=["label", "index", "float-scalar"])
def test_raw_constructor_checks_its_terms(terms, error):
    # a malformed label must not reach the trusted group law, which would
    # multiply (1, 2, 3) by (1, 0) into a term at (2, 2)
    with pytest.raises(error):
        AlgebraElement(AZ2, terms)


def test_matrix_requires_square_and_same_algebra():
    a = AZ.group_element({0: 1})
    with pytest.raises(AlgebraError):
        MatrixOverPol(AZ, [[a, a]])
    with pytest.raises(AlgebraError):
        MatrixOverPol(AZ, [[AZ6.group_element({0: 1})]])


def test_restricted_weighted_dimensions_s3():
    # rows are n * |F| and cols n * |int| in weighted counts, here with a
    # genuinely 2-dimensional label in the window
    a = AS3.basis("std", 1, 1) + AS3.one()
    op = restricted_mult_matrix(MatrixOverPol.from_element(a),
                                AS3.ring.irreducibles())
    assert op.matrix.shape == (6, 6)  # 1 + 1 + 2^2 on both sides
    assert len(op.codomain_basis) == weighted_size(AS3.ring, op.window)
    assert len(op.domain_basis) == weighted_size(AS3.ring, op.interior)


# ---------------------------------------------------------------------------
# group-ring assembly against products of basis elements

def reference_operator(T, F, side, S):
    """Domain basis, codomain basis and entries of the restricted operator,
    built from algebra.multiply on every basis element of the interior."""
    algebra = T.algebra
    ring = algebra.ring
    interior = boundary_decomposition(ring, F, S, side=side).interior
    dom = tuple((comp, g, 1, 1) for comp in range(T.n) for g in ring.sorted_labels(interior))
    cod = tuple((comp, g, 1, 1) for comp in range(T.n) for g in ring.sorted_labels(F))
    row_of = {key: r for r, key in enumerate(cod)}
    entries = {}
    for col, (comp, g, _, _) in enumerate(dom):
        x = algebra.basis(g)
        for k in range(T.n):
            t = T.entries[comp][k] if side == "right" else T.entries[k][comp]
            prod = algebra.multiply(x, t) if side == "right" else algebra.multiply(t, x)
            for (h, i, j), c in prod.terms():
                r = row_of[(k, h, i, j)]
                entries[(r, col)] = entries.get((r, col), QQi(0)) + c
    return dom, cod, {key: v for key, v in entries.items() if v}


GROUP_CASES = [
    ("group:Z^2", [(1, 0), (0, 1)], 3),
    ("group:Z/6xZ/2", [(1, 0), (0, 1)], 2),
    ("group:heisenberg", [(1, 0, 0), (0, 1, 0)], 2),
    ("group:heisenberg/3", [(1, 0, 0), (0, 1, 0)], 2),
]


@pytest.mark.parametrize("tag,gens,radius", GROUP_CASES)
def test_group_assembly_matches_basis_products(tag, gens, radius, rng):
    algebra = algebra_for(tag)
    ring = algebra.ring
    F = ball(ring, gens, radius)
    pool = [ring.unit] + list(gens)
    extra = ring.conj(gens[0])
    for n in (1, 2):
        entries = [[small_support(algebra, rng, gens) for _ in range(n)] for _ in range(n)]
        if n == 2:
            entries[0][1] = algebra.zero()  # a zero block is skipped, not assembled
        T = MatrixOverPol(algebra, entries)
        assert T.support() <= frozenset(pool)
        for S in (None, T.support() | {extra}):
            for side in ("right", "left"):
                op = restricted_mult_matrix(T, F, side=side, S=S)
                dom, cod, want = reference_operator(T, F, side, T.support() if S is None else S)
                assert op.domain_basis == dom
                assert op.codomain_basis == cod
                assert op.matrix.entries == want
                assert 0 < len(dom) < len(cod)


@pytest.mark.parametrize("algebra,F", [(AZ2, ball(AZ2.ring, [(1, 0), (0, 1)], 2)),
                                       (ASU2, range(4))])
def test_image_escaping_window_is_internal_error(algebra, F):
    # a boundary label forged into the interior sends part of its image
    # outside F; the fusion-inclusion check must catch it on the group and
    # on the generic path
    from folnerlab.fusion import BoundaryData
    from folnerlab.polalg import _restricted_operator

    ring = algebra.ring
    F = ring.label_set(F)
    top = ring.sorted_labels(F)[-1]
    T = MatrixOverPol.from_element(algebra.one() + algebra.basis(top))
    for side in ("right", "left"):
        forged = BoundaryData(T.support(), side, window=F, boundary=(), reach=set)
        with pytest.raises(RuntimeError, match="fusion inclusion violated"):
            _restricted_operator(T, forged)


@pytest.mark.parametrize("algebra,F", [(AZ2, ball(AZ2.ring, [(1, 0), (0, 1)], 2)),
                                       (ASU2, range(4))])
def test_restricted_operator_needs_S_to_cover_the_support(algebra, F):
    # the record's S bounds the interior; a record over an S that misses a
    # label of supp(T) is rejected, on every path to the operator
    from folnerlab.polalg import _restricted_operator

    ring = algebra.ring
    unit, top = ring.unit, ring.sorted_labels(ring.label_set(F))[-1]
    T = MatrixOverPol.from_element(algebra.one() + algebra.basis(top))
    dec = boundary_decomposition(ring, F, [unit])
    with pytest.raises(AlgebraError, match="support"):
        _restricted_operator(T, dec)


def test_boolean_matrix_index_is_rejected():
    # True is not the index 1, so it never reaches a stored key
    with pytest.raises(InvalidLabelError):
        ASU2.element({(1, True, 2): 1})
    with pytest.raises(InvalidLabelError):
        AZ2.element({((1, 0), 1, False): 1})

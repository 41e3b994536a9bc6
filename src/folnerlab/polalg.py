"""Concrete models of the coefficient Hopf algebra of a Kac-type quantum group.

An element is a finitely supported coefficient map (label, row, col) -> scalar
over the matrix-coefficient basis u^a_{ij}, 1 <= i, j <= n_a. Three provider
families implement multiplication:

* group algebras   -- convolution through the group law; exact Gaussian
                      rationals, so kernels and certificates are exact;
* finite:S3        -- pointwise products of functions on S3, evaluated through
                      stored unitary irrep matrices; complex doubles;
* su2              -- products of matrix coefficients expanded with real
                      orthonormal Clebsch-Gordan coefficients; complex doubles.

The L2 inner product uses the orthonormal basis {sqrt(n_a) u^a_{ij}} and the
Haar state reads off the coefficient of the trivial corepresentation.

Conventions for multiplication by a matrix T over the algebra: "right" maps a
row vector x to (sum_i x_i T_{ij})_j, "left" maps a column vector x to
(sum_j T_{ij} x_j)_i. Restricting to a window F uses the interior on the
matching side, so images stay inside W_F by the fusion-support inclusion.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain

from . import cg, exactla
from .fusion import (BoundaryData, FusionRing, GroupFusionRing, InvalidLabelError,
                     LabelSet, S3FusionRing, SU2FusionRing, boundary_decomposition,
                     ring_from_tag)
from .scalars import EXACT, FLOAT, as_scalar, scalar_zero

FLOAT_TRIM = 1e-13  # relative cutoff for roundoff debris in float products


class AlgebraError(ValueError):
    """Illegal element construction or cross-algebra arithmetic."""


def _s3_permutations():
    return [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _s3_rep_tables():
    """Evaluation tables rep[label][g] = unitary matrix of g (real entries)."""
    import numpy as np

    perms = _s3_permutations()
    b = np.array([[1 / math.sqrt(2), 1 / math.sqrt(6)],
                  [-1 / math.sqrt(2), 1 / math.sqrt(6)],
                  [0.0, -2 / math.sqrt(6)]])
    tables = {"triv": {}, "sgn": {}, "std": {}}
    for p in perms:
        pm = np.zeros((3, 3))
        for i in range(3):
            pm[p[i], i] = 1.0
        sign = 1.0
        # parity via inversion count
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        if inv % 2:
            sign = -1.0
        tables["triv"][p] = np.array([[1.0]])
        tables["sgn"][p] = np.array([[sign]])
        tables["std"][p] = b.T @ pm @ b
    return perms, tables


class PolAlgebra:
    """Ambient algebra handle: fusion ring, scalar mode, multiplication."""

    def __init__(self, ring: FusionRing):
        self.ring = ring
        self.tag = ring.tag
        if isinstance(ring, GroupFusionRing):
            self.mode = EXACT
        elif isinstance(ring, (SU2FusionRing, S3FusionRing)):
            self.mode = FLOAT
        else:
            raise AlgebraError(f"no multiplication provider for ring {ring.tag}")
        if isinstance(ring, S3FusionRing):
            self._s3_elems, self._s3_reps = _s3_rep_tables()

    # -- construction --------------------------------------------------------

    def _parse_key(self, key):
        """A key is (label, i, j) when key[0] is a valid label and i, j are
        ints (type-exact: ``True`` is no index); otherwise the whole key is a
        label at indices (1, 1)."""
        if isinstance(key, tuple) and len(key) == 3 \
                and type(key[1]) is int and type(key[2]) is int:
            try:
                return self.ring.check_label(key[0]), key[1], key[2]
            except InvalidLabelError:
                pass
        return self.ring.check_label(key), 1, 1

    def element(self, terms=None) -> "AlgebraElement":
        """Build an element from {(label, i, j): coeff} (or {label: coeff},
        meaning matrix indices (1, 1))."""
        return AlgebraElement(self, terms)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement._trusted(self, {})

    def one(self) -> "AlgebraElement":
        return self.basis(self.ring.unit)

    def basis(self, label, i: int = 1, j: int = 1, coeff=1) -> "AlgebraElement":
        return self.element({(label, i, j): coeff})

    def group_element(self, word) -> "AlgebraElement":
        """Sugar for group algebras: {g: coeff, ...} or a single g."""
        if not isinstance(self.ring, GroupFusionRing):
            raise AlgebraError("group_element only applies to group algebras")
        if not isinstance(word, dict):
            word = {word: 1}
        return self.element({g: c for g, c in word.items()})

    # -- provider multiplication ----------------------------------------------

    def multiply(self, a: "AlgebraElement", b: "AlgebraElement") -> "AlgebraElement":
        if a.algebra is not self or b.algebra is not self:
            raise AlgebraError("operands live in different algebras")
        ring = self.ring
        if isinstance(ring, GroupFusionRing):
            mul = ring._mul
            return AlgebraElement._summed(self, (((mul(g, h), 1, 1), ca * cb)
                                                 for (g, _, _), ca in a._coeffs.items()
                                                 for (h, _, _), cb in b._coeffs.items()))
        if isinstance(ring, S3FusionRing):
            fa = self._s3_evaluate(a)
            fb = self._s3_evaluate(b)
            return self._s3_expand(fa * fb)
        return self._su2_multiply(a, b)

    def _su2_multiply(self, a, b):
        out = {}
        for (la, i, j), ca in a._coeffs.items():
            for (lb, k, l), cb in b._coeffs.items():
                pre = ca * cb
                for lc in range(abs(la - lb), la + lb + 1, 2):
                    table = cg.cg_table(la, lb, lc)
                    two_m_row = (la - 2 * (i - 1)) + (lb - 2 * (k - 1))
                    two_m_col = (la - 2 * (j - 1)) + (lb - 2 * (l - 1))
                    if abs(two_m_row) > lc or abs(two_m_col) > lc:
                        continue
                    p = (lc - two_m_row) // 2
                    q = (lc - two_m_col) // 2
                    w = table[i - 1][k - 1][p] * table[j - 1][l - 1][q]
                    if w:
                        key = (lc, p + 1, q + 1)
                        out[key] = out.get(key, 0j) + pre * w
        return AlgebraElement._trusted(self, _trim_float(out))

    def _s3_evaluate(self, a):
        import numpy as np

        vals = np.zeros(6, dtype=complex)
        for gi, g in enumerate(self._s3_elems):
            acc = 0j
            for (label, i, j), c in a._coeffs.items():
                acc += c * self._s3_reps[label][g][i - 1, j - 1]
            vals[gi] = acc
        return vals

    def _s3_expand(self, vals):
        out = {}
        for label in self.ring.labels:
            n = self.ring._dim(label)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    acc = 0j
                    for gi, g in enumerate(self._s3_elems):
                        acc += self._s3_reps[label][g][i - 1, j - 1] * vals[gi]
                    c = acc * n / 6.0
                    if c:
                        out[(label, i, j)] = c
        return AlgebraElement._trusted(self, _trim_float(out))

    # -- involution ------------------------------------------------------------

    def star(self, a: "AlgebraElement") -> "AlgebraElement":
        ring = self.ring
        out = {}
        if isinstance(ring, GroupFusionRing):
            for (g, _, _), c in a._coeffs.items():
                out[(ring._inv(g), 1, 1)] = c.conjugate()
        elif isinstance(ring, S3FusionRing):
            # all stored irreps are real, so the basis functions are
            # self-adjoint and only the coefficients conjugate
            for key, c in a._coeffs.items():
                out[key] = c.conjugate()
        else:
            # Wigner-D symmetry: conj(D^j_{m m'}) = (-1)^{m-m'} D^j_{-m,-m'}
            for (la, i, j), c in a._coeffs.items():
                sign = -1.0 if (j - i) % 2 else 1.0
                out[(la, la + 2 - i, la + 2 - j)] = sign * c.conjugate()
        return AlgebraElement._trusted(self, out)

    def __repr__(self):
        return f"<PolAlgebra {self.tag} ({self.mode})>"


def _trim_float(coeffs: dict) -> dict:
    if not coeffs:
        return coeffs
    try:
        sizes = [abs(v) for v in coeffs.values()]
    except OverflowError:  # a finite coefficient whose modulus overflows
        sizes = [math.inf]
    if not all(map(math.isfinite, sizes)):
        raise AlgebraError("float product overflowed: a coefficient or its modulus is not finite")
    cutoff = FLOAT_TRIM * max(1.0, max(sizes))
    return {k: v for (k, v), size in zip(coeffs.items(), sizes) if size > cutoff}


_ALGEBRAS: dict[str, PolAlgebra] = {}


def algebra_for(ring_or_tag) -> PolAlgebra:
    """Shared PolAlgebra instance for a ring (or a ring tag)."""
    ring = ring_from_tag(ring_or_tag) if isinstance(ring_or_tag, str) else ring_or_tag
    if ring.tag not in _ALGEBRAS:
        _ALGEBRAS[ring.tag] = PolAlgebra(ring)
    return _ALGEBRAS[ring.tag]


class AlgebraElement:
    """Finitely supported coefficient vector over the matrix-coefficient basis.

    Values are immutable: arithmetic returns fresh elements. The constructor
    checks its terms {(label, i, j): coeff} (or {label: coeff}, meaning
    indices (1, 1)): canonical labels, indices in range, scalars of the
    algebra's mode. ``_summed`` adds up (key, value) pairs that are already
    all three and drops the zero sums; ``_trusted`` wraps a coefficient map
    that is, and holds no zero, for the library's own arithmetic.
    """

    __slots__ = ("algebra", "_coeffs")

    def __init__(self, algebra: PolAlgebra, terms=None):
        def checked(key, value):
            label, i, j = algebra._parse_key(key)
            n = algebra.ring._dim(label)
            if not (1 <= i <= n and 1 <= j <= n):
                raise AlgebraError(
                    f"indices ({i},{j}) out of range for {label!r} (size {n})")
            return (label, i, j), as_scalar(value, algebra.mode)

        self.algebra = algebra
        self._coeffs = self._summed(
            algebra, (checked(*term) for term in (terms or {}).items()))._coeffs

    @classmethod
    def _summed(cls, algebra: PolAlgebra, pairs) -> "AlgebraElement":
        """The sum of the terms (key, value); a key may repeat, and a zero sum
        is no term."""
        coeffs = {}
        for k, v in pairs:
            prev = coeffs.get(k)
            coeffs[k] = v if prev is None else prev + v
        return cls._trusted(algebra, {k: v for k, v in coeffs.items() if v})

    @classmethod
    def _trusted(cls, algebra: PolAlgebra, coeffs: dict) -> "AlgebraElement":
        self = object.__new__(cls)
        self.algebra = algebra
        self._coeffs = coeffs
        return self

    # -- views ------------------------------------------------------------

    def terms(self) -> list:
        """Sorted list of ((label, i, j), coeff)."""
        ring = self.algebra.ring
        return sorted(self._coeffs.items(),
                      key=lambda kv: (ring.sort_key(kv[0][0]), kv[0][1], kv[0][2]))

    def coeff(self, label, i: int = 1, j: int = 1):
        label = self.algebra.ring.check_label(label)
        return self._coeffs.get((label, i, j), scalar_zero(self.algebra.mode))

    def support(self) -> LabelSet:
        return LabelSet(self.algebra.ring, (label for (label, _, _) in self._coeffs))

    def is_zero(self) -> bool:
        return not self._coeffs

    def norm_max(self) -> float:
        if not self._coeffs:
            return 0.0
        return max(abs(complex(v)) for v in self._coeffs.values())

    # -- arithmetic ---------------------------------------------------------

    def _check_same(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise AlgebraError("operands live in different algebras")

    def __add__(self, other):
        self._check_same(other)
        return AlgebraElement._summed(self.algebra, chain(self._coeffs.items(),
                                                          other._coeffs.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement._trusted(self.algebra, {k: -v for k, v in self._coeffs.items()})

    def scale(self, c):
        c = as_scalar(c, self.algebra.mode)
        if not c:
            return self.algebra.zero()
        return AlgebraElement._trusted(self.algebra, {k: v * c for k, v in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def star(self):
        return self.algebra.star(self)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self._coeffs == other._coeffs

    def approx_eq(self, other, tol: float = 1e-9) -> bool:
        self._check_same(other)
        keys = set(self._coeffs) | set(other._coeffs)
        z = scalar_zero(self.algebra.mode)
        return all(
            abs(complex(self._coeffs.get(k, z)) - complex(other._coeffs.get(k, z))) <= tol
            for k in keys)

    # -- functionals ---------------------------------------------------------

    def haar(self):
        """Haar state: the coefficient of the trivial corepresentation."""
        return self._coeffs.get((self.algebra.ring.unit, 1, 1),
                                scalar_zero(self.algebra.mode))

    def inner(self, other):
        """L2 inner product <a, b> = sum conj(a_t) b_t / n_label."""
        self._check_same(other)
        acc = scalar_zero(self.algebra.mode)
        keys = self._coeffs.keys() if len(self._coeffs) <= len(other._coeffs) \
            else other._coeffs.keys()
        for k in keys:
            va = self._coeffs.get(k)
            vb = other._coeffs.get(k)
            if va is None or vb is None:
                continue
            acc = acc + va.conjugate() * vb / self.algebra.ring._dim(k[0])
        return acc

    def __repr__(self):
        parts = [f"{v!r}*u[{k[0]!r},{k[1]},{k[2]}]" for k, v in self.terms()[:6]]
        if len(self._coeffs) > 6:
            parts.append("...")
        return f"<{self.algebra.tag}: " + (" + ".join(parts) or "0") + ">"


def support(x) -> LabelSet:
    """Support of an element or of a matrix over the algebra, as a
    LabelSet of its ring: the labels were checked when the terms were."""
    if isinstance(x, AlgebraElement):
        return x.support()
    if isinstance(x, MatrixOverPol):
        return LabelSet(x.algebra.ring, (label for row in x.entries for e in row
                                         for (label, _, _) in e._coeffs))
    raise TypeError(f"no support for {type(x).__name__}")


class MatrixOverPol:
    """Square matrix of algebra elements, all sharing one ambient algebra."""

    def __init__(self, algebra: PolAlgebra, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise AlgebraError("matrix must be square")
        for row in entries:
            for e in row:
                if not isinstance(e, AlgebraElement) or e.algebra is not algebra:
                    raise AlgebraError("all entries must live in the given algebra")
        self.algebra = algebra
        self.n = n
        self.entries = entries

    def support(self) -> LabelSet:
        return support(self)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    @classmethod
    def from_element(cls, a: AlgebraElement) -> "MatrixOverPol":
        return cls(a.algebra, [[a]])

    def __repr__(self):
        return f"<MatrixOverPol {self.n}x{self.n} over {self.algebra.tag}>"


class RestrictedOperator:
    """Matrix of multiplication by T between coefficient windows.

    The domain is W_{int}^n over the side-matched interior of F, the codomain
    W_F^n; both carry the orthonormal basis {sqrt(n_a) u^a_{ij}}, ordered
    component-major then by (label, row, col). ``window`` and ``interior``
    are the sorted label tuples of F and of its interior; the two bases are
    built from them when first read.
    """

    def __init__(self, algebra, n, side, window, interior, matrix):
        self.algebra = algebra
        self.n = n
        self.side = side
        self.window = window
        self.interior = interior
        self.matrix = matrix

    @cached_property
    def domain_basis(self) -> tuple:
        return _component_basis(self.algebra.ring, self.interior, self.n)

    @cached_property
    def codomain_basis(self) -> tuple:
        return _component_basis(self.algebra.ring, self.window, self.n)

    def elements_from_coords(self, coords) -> tuple:
        """Convert domain coordinates (orthonormal basis) back to an n-tuple
        of algebra elements; solvers use this to turn kernel vectors into
        certificates."""
        comps = [dict() for _ in range(self.n)]
        for t, (comp, label, i, j) in enumerate(self.domain_basis):
            c = coords[t]
            if not c:
                continue
            if self.algebra.mode == FLOAT:
                c = complex(c) * math.sqrt(self.algebra.ring._dim(label))
            comps[comp][(label, i, j)] = c
        return tuple(AlgebraElement._trusted(self.algebra, d) for d in comps)

    def __repr__(self):
        r, c = self.matrix.shape
        return (f"<RestrictedOperator {self.side} {r}x{c} on {self.algebra.tag}, "
                f"|F|={len(self.window)} labels>")


def _basis_triples(ring, labels):
    out = []
    for label in labels:
        n = ring._dim(label)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                out.append((label, i, j))
    return out


def _component_basis(ring, labels, n: int) -> tuple:
    """(comp, label, i, j) over the sorted labels, component-major."""
    triples = _basis_triples(ring, labels)
    return tuple((comp, *t) for comp in range(n) for t in triples)


def _check_operator(T: MatrixOverPol, side: str) -> None:
    """The precondition of every operator of T: a known side, then T != 0."""
    if side not in ("right", "left"):
        raise AlgebraError(f"side must be 'left' or 'right', got {side!r}")
    if T.is_zero():
        raise AlgebraError("restricted multiplication needs a nonzero matrix")


def restricted_mult_matrix(T: MatrixOverPol, F, side: str = "right",
                           S=None) -> RestrictedOperator:
    """Matrix of multiplication by T from W_{int_S(F)}^n to W_F^n.

    S defaults to the support of T; a larger S containing it may be passed
    to shrink the domain further. Any image component outside F is a genuine
    bug, not bad input: the fusion-support inclusion makes it impossible, so
    it raises RuntimeError.
    """
    _check_operator(T, side)
    S = T.support() if S is None else S
    return _restricted_operator(T, boundary_decomposition(T.algebra.ring, F, S, side=side))


def _restricted_operator(T: MatrixOverPol, dec: BoundaryData) -> RestrictedOperator:
    """restricted_mult_matrix on the record ``dec``, over its S and on its
    side; S must contain supp(T). The window is sorted here, once, and the
    domain is the sorted window without the record's boundary."""
    if not T.support() <= dec.S:
        raise AlgebraError("S must contain the support of T")
    window = T.algebra.ring.sorted_labels(dec.window)
    boundary = dec.boundary
    return _operator_on(T, window, tuple(u for u in window if u not in boundary), dec.side)


def _operator_on(T: MatrixOverPol, window: tuple, interior: tuple, side: str) -> RestrictedOperator:
    """Multiplication by T from W_{interior}^n to W_{window}^n, on sorted labels."""
    algebra = T.algebra
    ring = algebra.ring
    n = T.n
    if isinstance(ring, GroupFusionRing):
        # one basis element per label; the entries are exact, and in range
        # and nonzero by construction: nothing to re-check
        matrix = exactla.ScalarMatrix(
            EXACT, (n * len(window), n * len(interior)),
            entries=_translate_entries(T, side, interior, window))
    else:
        domain_basis = _component_basis(ring, interior, n)
        codomain_basis = _component_basis(ring, window, n)
        matrix = exactla.ScalarMatrix.from_entries(
            _multiply_entries(T, side, domain_basis, codomain_basis),
            (len(codomain_basis), len(domain_basis)), algebra.mode)
    return RestrictedOperator(algebra, n, side, window, interior, matrix)


def _escaped(label):
    return RuntimeError(f"fusion inclusion violated: component {label!r} escaped F")


def _translate_entries(T, side, interior, window) -> dict:
    """Group rings: the image of the basis element x of component comp has,
    in output component k, the translate x supp(t) (supp(t) x on the left)
    of t = T[comp][k] (T[k][comp] on the left) as support, carrying t's
    coefficients. Translation is injective, so entries are copied from t
    and never summed: no scalar product is formed."""
    mul = T.algebra.ring._mul
    row_of = {label: r for r, label in enumerate(window)}
    size = len(window)
    entries = {}
    col = 0
    for comp in range(T.n):
        # (row offset of output component k, terms of the entry), k ascending
        blocks = []
        for k in range(T.n):
            t = T.entries[comp][k] if side == "right" else T.entries[k][comp]
            if not t.is_zero():
                blocks.append((k * size, [(h, c) for (h, _, _), c in t._coeffs.items()]))
        for x in interior:
            for offset, terms in blocks:
                for h, c in terms:
                    w = mul(x, h) if side == "right" else mul(h, x)
                    r = row_of.get(w)
                    if r is None:
                        raise _escaped(w)
                    entries[(offset + r, col)] = c
            col += 1
    return entries


def _multiply_entries(T, side, domain_basis, codomain_basis) -> dict:
    """Generic providers: multiply each basis element by T through the
    provider's multiplication and read off the image coordinates."""
    algebra = T.algebra
    ring = algebra.ring
    cod_index = {key: r for r, key in enumerate(codomain_basis)}
    one = as_scalar(1, algebra.mode)
    entries = {}
    for col, (comp, label, i, j) in enumerate(domain_basis):
        x = AlgebraElement._trusted(algebra, {(label, i, j): one})
        for out_comp in range(T.n):
            t = T.entries[comp][out_comp] if side == "right" else T.entries[out_comp][comp]
            if t.is_zero():
                continue
            prod = algebra.multiply(x, t) if side == "right" else algebra.multiply(t, x)
            for (key, c) in prod._coeffs.items():
                row = cod_index.get((out_comp, *key))
                if row is None:
                    raise _escaped(key[0])
                if algebra.mode == FLOAT:
                    c = c * math.sqrt(ring._dim(label) / ring._dim(key[0]))
                prev = entries.get((row, col))
                entries[(row, col)] = c if prev is None else prev + c
    return entries


def full_mult_matrix(T: MatrixOverPol, side: str = "right") -> RestrictedOperator:
    """Multiplication by T on the whole coefficient space of a finite provider."""
    ring = T.algebra.ring
    if not ring.is_finite:
        raise AlgebraError(f"ring {ring.tag} is infinite; use a window")
    _check_operator(T, side)
    # the whole ring is its own interior: nothing leaves it
    labels = tuple(ring.irreducibles())
    return _operator_on(T, labels, labels, side)

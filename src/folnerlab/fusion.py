"""Fusion rings of Kac-type compact quantum groups and weighted isoperimetry.

A fusion ring here is the based ring Z[Irred(G)]: a distinguished basis of
irreducible labels with a unit, an integer dimension for each label, an
involutive conjugation, and a product returning finite multiplicity maps
{w: N_uv^w}. The weighted size of a finite label set F is
|F| = sum_{u in F} n_u^2, and the interior/boundary of F relative to a
finite S are

    int_S(F) = {u in F | for all v in S: supp(u x v) subset of F},
    bd_S(F)  = F \\ int_S(F),

with the symmetric boundary adding the outer boundary bd_S(F^c). The outer
boundary is computed without touching the infinite complement via Frobenius
reciprocity: bd_S(F^c) = (U_{w in F, v in S} supp(w x conj(v))) \\ F, and
only on first read: kernel estimates need the boundary and the weights
alone, user-window Folner searches and exhausted Ore searches read the outer
boundary as well.

Profiles and ball Folner searches read no record: each row of a ball B_r
(``ball_rows``) is a by-product of growing the next shell in the ball cache,
which keeps the boundary and coboundary weights of B_r beside its shells.

One record, ``BoundaryData``, holds a window F and its boundary together
with the S and the side (of multiplication: products u x v or v x u) they
were built for; the interior is derived from them, and only on first read.
The restricted operator and the kernel bracket of a window are built from
the record alone. Records come in two kinds:

* ball records (``ball_boundary``): a ball window B_r is decomposed from its
  outer shell B_r \\ B_{r-1} alone, as the ball cache holds it, and never
  sorted; the zero-divisor and Ore loops, ``kernel_dim_sequence`` and
  ``kernel-dim --window`` read them. On a group ring the operator's
  translate table is computed on first read, over the interior only;
* whole-window records (``boundary_decomposition``): every label of F is
  tested. On a group ring the window is sorted and each translate x v
  (v x on the left), x in F, v in S, is formed once, into the translate
  table; the boundary is read off the translates that leave F, and the
  operator copies T's coefficients to the table's rows without multiplying
  again.

Three provider families are built in:

* ``su2``        -- labels k = 0, 1, 2, ... (twice the spin), n_k = k + 1,
                    Clebsch-Gordan fusion k x l = |k-l|, |k-l|+2, ..., k+l;
* ``group:<G>``  -- the group fusion ring of a discrete group: labels are
                    group elements, all dimensions 1, product is the group
                    law, conjugation is inversion;
* ``finite:S3``  -- the representation ring of S3: labels triv, sgn, std
                    with dimensions 1, 1, 2.

A group ring is its group, in one of two families:

* ``CyclicProductRing`` -- products of cyclic factors (modulus 0 meaning an
  infinite Z factor), e.g. Z, Z^2, Z/6, Z x Z/2, (Z/m) x Z/2;
* ``HeisenbergRing``    -- the discrete Heisenberg group H3(Z) in normal
  form (a, b, c), optionally reduced mod m, with
  (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').

Group labels are kept in canonical normal form: a plain int for a single
cyclic factor, a tuple of ints otherwise, reduced mod the moduli.

Labels are checked once, where a set of them enters the library: the checked
set is a ``LabelSet`` that remembers its ring, every set built from it is one
too, and ``FusionRing.label_set`` passes it through unchanged. A single label
is checked by ``FusionRing.check_label``, the only caller of ``normalize``
(type-exact: ``True`` is not the integer label 1). After that nothing
validates a label again: ``product`` and the trusted surface (``_dim``,
``_conj``, ``_support``) assume canonical labels on every ring, and the group
rings derive them from their trusted group law ``_mul``/``_inv``; their
``_reduce`` takes any label of the group's shape to its normal form.

Rings are immutable after construction but for the ball cache, which is
pure, only ever grows, and keeps each label of a ball once, in its shell,
with the boundary and coboundary weights of each ball.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count
from operator import add, neg
from typing import Iterable, Iterator


class InvalidLabelError(ValueError):
    """A label does not belong to the ambient fusion ring."""


class LabelSet(frozenset):
    """A frozenset of canonical labels of ``ring``; building one asserts that
    they are canonical. Set algebra (|, -, &) returns a plain frozenset,
    which is checked again where it enters the library."""

    __slots__ = ("ring",)

    def __new__(cls, ring, labels):
        self = super().__new__(cls, labels)
        self.ring = ring
        return self


class FusionRing:
    """Base class; subclasses provide unit, normalize and product, and the
    trusted _dim and _conj (and _support where it beats product), from
    which the checked dim and conj are derived."""

    tag: str
    is_finite = False

    def __init__(self):
        self._ball_cache: dict[tuple, _Shells] = {}  # S sorted: its shells

    # subclass surface ------------------------------------------------------

    def normalize(self, u):
        raise NotImplementedError

    def product(self, u, v) -> dict:
        """Multiplicity map {w: N_uv^w} of u x v; all values >= 1. On every
        ring u and v must be canonical labels, and nothing is checked: the
        checked form is ``product_support``."""
        raise NotImplementedError

    def sort_key(self, u):
        return u

    def irreducibles(self) -> list:
        raise ValueError(f"ring {self.tag} has infinitely many irreducibles")

    # trusted surface: arguments are canonical labels, nothing is checked

    def _dim(self, u) -> int:
        raise NotImplementedError

    def _conj(self, u):
        raise NotImplementedError

    def _support(self, u, v):
        """The labels of supp(u x v), as an iterable."""
        return self.product(u, v)

    # shared operations ------------------------------------------------------

    def dim(self, u) -> int:
        return self._dim(self.check_label(u))

    def conj(self, u):
        return self._conj(self.check_label(u))

    def check_label(self, u):
        """Canonicalize a label, raising InvalidLabelError if it is not one."""
        try:
            return self.normalize(u)
        except ValueError as exc:
            raise InvalidLabelError(f"{u!r} is not a label of {self.tag}: {exc}") from None

    def label_set(self, labels: Iterable) -> LabelSet:
        """The labels, checked; a LabelSet of this ring passes unchanged."""
        if isinstance(labels, LabelSet) and labels.ring is self:
            return labels
        return LabelSet(self, map(self.check_label, labels))

    def sorted_labels(self, labels: Iterable) -> tuple:
        return tuple(sorted(labels, key=self.sort_key))

    def product_support(self, u, v) -> tuple:
        """supp(u x v) with multiplicities, in deterministic label order."""
        u = self.check_label(u)
        v = self.check_label(v)
        prod = self.product(u, v)
        return tuple((w, prod[w]) for w in self.sorted_labels(prod))

    def __repr__(self):
        return f"<FusionRing {self.tag}>"


class SU2FusionRing(FusionRing):
    """Fusion of SU(2): labels are twice the spin, n_k = k + 1."""

    tag = "su2"
    unit = 0

    def normalize(self, u):
        if type(u) is not int or u < 0:
            raise ValueError(f"{u!r} is not a nonnegative integer")
        return u

    def product(self, u, v):
        return {w: 1 for w in range(abs(u - v), u + v + 1, 2)}

    def _dim(self, u):
        return u + 1

    def _conj(self, u):
        return u

    def _support(self, u, v):
        return range(abs(u - v), u + v + 1, 2)


class GroupFusionRing(FusionRing):
    """Group fusion ring: one 1-dimensional label per group element. A
    subclass is its group: it sets ``name``, ``unit``, ``is_finite`` and
    ``moduli`` (0 meaning Z), builds its finite quotients (``_quotient``) and
    provides ``normalize`` (type-exact) and the trusted ``_reduce``, ``_mul``,
    ``_inv`` and ``elements``, from which the ring operations derive."""

    def __init__(self):
        super().__init__()
        self.tag = f"group:{self.name}"

    def product(self, u, v):
        return {self._mul(u, v): 1}

    def _dim(self, u):
        return 1

    def _conj(self, u):
        return self._inv(u)

    def _support(self, u, v):
        return (self._mul(u, v),)

    def irreducibles(self):
        return self.sorted_labels(self.elements())


class CyclicProductRing(GroupFusionRing):
    """Direct product of cyclic groups; ``moduli[k] == 0`` means a Z factor."""

    def __init__(self, moduli: tuple[int, ...]):
        if not moduli or any(m < 0 or m == 1 for m in moduli):
            raise ValueError(f"bad moduli {moduli!r}: each must be 0 or >= 2")
        self.moduli = tuple(moduli)
        self.scalar_labels = len(moduli) == 1
        self._free = not any(moduli)
        self.is_finite = all(moduli)
        parts = ["Z" if m == 0 else f"Z/{m}" for m in moduli]
        self.name = f"Z^{len(parts)}" if len(parts) > 1 and self._free else "x".join(parts)
        self.unit = self._out((0,) * len(moduli))
        super().__init__()

    def _out(self, t):
        return t[0] if self.scalar_labels else t

    def normalize(self, g):
        if self.scalar_labels:
            if type(g) is not int:
                raise ValueError(f"label {g!r} is not an integer")
            return self._reduce(g)
        if not (isinstance(g, (tuple, list)) and len(g) == len(self.moduli)
                and all(type(x) is int for x in g)):
            raise ValueError(f"label {g!r} does not match {self.name}")
        return self._reduce(tuple(g))

    # trusted surface, nothing is validated: _reduce takes any label of this
    # shape, the group law labels in normal form

    def _reduce(self, g):
        """The normal form of g, reduced mod the moduli."""
        if self._free:
            return g
        if self.scalar_labels:
            return g % self.moduli[0]
        return tuple(x % m if m else x for x, m in zip(g, self.moduli))

    def _mul(self, g, h):
        if self.scalar_labels:
            m = self.moduli[0]
            return (g + h) % m if m else g + h
        if self._free:
            return tuple(map(add, g, h))
        return tuple((x + y) % m if m else x + y for x, y, m in zip(g, h, self.moduli))

    def _inv(self, g):
        if self.scalar_labels:
            m = self.moduli[0]
            return (-g) % m if m else -g
        if self._free:
            return tuple(map(neg, g))
        return tuple((-x) % m if m else -x for x, m in zip(g, self.moduli))

    def elements(self):
        if not self.is_finite:
            raise ValueError(f"{self.name} is infinite")
        out = [()]
        for m in self.moduli:
            out = [t + (x,) for t in out for x in range(m)]
        return [self._out(t) for t in out]

    def _quotient(self, m: int) -> CyclicProductRing:
        """The registered ring with every Z factor reduced mod m."""
        return ring_from_tag("group:" + "x".join(f"Z/{ms or m}" for ms in self.moduli))


class HeisenbergRing(GroupFusionRing):
    """H3 over Z (modulus 0) or over Z/m; normal form (a, b, c)."""

    unit = (0, 0, 0)

    def __init__(self, modulus: int = 0):
        if modulus < 0 or modulus == 1:
            raise ValueError("modulus must be 0 or >= 2")
        self.modulus = modulus
        self.is_finite = bool(modulus)
        self.name = f"heisenberg/{modulus}" if modulus else "heisenberg"
        super().__init__()

    @property
    def moduli(self) -> tuple[int]:
        return (self.modulus,)

    def normalize(self, g):
        if not (isinstance(g, (tuple, list)) and len(g) == 3
                and all(type(x) is int for x in g)):
            raise ValueError(f"label {g!r} is not a Heisenberg triple")
        return self._reduce(tuple(g))

    # trusted surface, as for CyclicProductRing

    def _reduce(self, t):
        m = self.modulus
        return tuple(x % m for x in t) if m else t

    def _mul(self, g, h):
        a, b, c = g
        d, e, f = h
        return self._reduce((a + d, b + e, c + f + a * e))

    def _inv(self, g):
        a, b, c = g
        return self._reduce((-a, -b, a * b - c))

    def elements(self):
        if not self.modulus:
            raise ValueError("heisenberg over Z is infinite")
        m = self.modulus
        return [(a, b, c) for a in range(m) for b in range(m) for c in range(m)]

    def _quotient(self, m: int) -> HeisenbergRing:
        """The registered ring of H3 reduced mod m; a finite one is its own."""
        return ring_from_tag(f"group:heisenberg/{self.modulus or m}")


class S3FusionRing(FusionRing):
    """Representation ring of S3: triv, sgn, std with the usual fusion."""

    tag = "finite:S3"
    unit = "triv"
    is_finite = True
    labels = ("triv", "sgn", "std")
    _dims = {"triv": 1, "sgn": 1, "std": 2}
    _table = {
        ("triv", "triv"): {"triv": 1},
        ("triv", "sgn"): {"sgn": 1},
        ("triv", "std"): {"std": 1},
        ("sgn", "sgn"): {"triv": 1},
        ("sgn", "std"): {"std": 1},
        ("std", "std"): {"triv": 1, "sgn": 1, "std": 1},
    }

    def normalize(self, u):
        if u not in self.labels:
            raise ValueError(f"{u!r} is not one of {self.labels}")
        return u

    def product(self, u, v):
        key = (u, v) if (u, v) in self._table else (v, u)
        return dict(self._table[key])

    def _dim(self, u):
        return self._dims[u]

    def _conj(self, u):
        return u

    def sort_key(self, u):
        return self.labels.index(u)

    def irreducibles(self):
        return self.labels


# ---------------------------------------------------------------------------
# ring registry

_REGISTRY: dict[str, FusionRing] = {}


def ring_from_tag(tag: str) -> FusionRing:
    """Resolve a ring selection string; instances are shared singletons."""
    if tag not in _REGISTRY:
        if tag == "su2":
            ring = SU2FusionRing()
        elif tag == "finite:S3":
            ring = S3FusionRing()
        elif tag.startswith("group:"):
            ring = _group_ring(tag[len("group:"):])
        else:
            raise ValueError(f"unknown ring tag {tag!r}")
        _REGISTRY.setdefault(ring.tag, ring)
        if tag != ring.tag:
            _REGISTRY[tag] = _REGISTRY[ring.tag]
    return _REGISTRY[tag]


def _group_ring(name: str) -> GroupFusionRing:
    """The group ring for the <name> part of a ``group:`` ring tag."""
    if name.startswith("heisenberg"):
        rest = name[len("heisenberg"):]
        if not rest:
            return HeisenbergRing(0)
        if rest.startswith("/") and rest[1:].isdigit():
            return HeisenbergRing(int(rest[1:]))
        raise ValueError(f"bad heisenberg tag {name!r}")
    if name.startswith("Z^"):
        d = name[2:]
        if not d.isdigit() or int(d) < 1:
            raise ValueError(f"bad power in group tag {name!r}")
        return CyclicProductRing((0,) * int(d))
    moduli = []
    for part in name.split("x"):
        if part == "Z":
            moduli.append(0)
        elif part.startswith("Z/") and part[2:].isdigit():
            moduli.append(int(part[2:]))
        else:
            raise ValueError(f"bad factor {part!r} in group tag {name!r}")
    return CyclicProductRing(tuple(moduli))


# ---------------------------------------------------------------------------
# weighted isoperimetry

class BoundaryData:
    """A window F with its boundary, decomposed against ``S`` for
    multiplication on ``side``, as LabelSets of S's ring; S and side are
    checked where the record is built (``_decompose``). F is kept as given,
    and the boundary must lie in it. |F| and |bd F| are weighed once; the
    interior is F minus the boundary, and its weight their difference.

    The interior, the coboundary (the Frobenius reach ``reach()`` minus F,
    so it never meets the window), the symmetric boundary and its weight are
    computed on first read: the library reads no interior, kernel estimates
    read no coboundary, user-window Folner searches and exhausted Ore
    searches do.

    ``order`` is F sorted, and on a group ring ``rows`` is the translate
    table of the restricted operator: for each v in S, the row in ``order``
    of x v (v x on the left) for each x of ``order``, None where no row is
    known. The decomposition of a whole window fills both, and ``rows`` is
    None exactly at the translates that leave F. Any other record sorts F
    and computes the table on first read, for the labels outside the
    boundary only, so a None there marks either a boundary label or a
    translate that leaves F."""

    def __init__(self, S: LabelSet, side: str, window, boundary, reach):
        ring = S.ring
        self.S, self.side = S, side
        self.window, self.boundary = ring.label_set(window), LabelSet(ring, boundary)
        if not self.boundary <= self.window:
            raise ValueError("the boundary must lie in the window")
        self.window_weight = weighted_size(ring, self.window)
        self.boundary_weight = weighted_size(ring, self.boundary)
        self.interior_weight = self.window_weight - self.boundary_weight
        self._reach = reach

    @cached_property
    def interior(self) -> LabelSet:
        return LabelSet(self.S.ring, self.window - self.boundary)

    @cached_property
    def coboundary(self) -> LabelSet:
        return LabelSet(self.S.ring, self._reach() - self.window)

    @cached_property
    def symmetric_boundary(self) -> LabelSet:
        return LabelSet(self.S.ring, self.boundary | self.coboundary)

    @cached_property
    def symmetric_boundary_weight(self) -> int:
        return self.boundary_weight + weighted_size(self.S.ring, self.coboundary)

    @cached_property
    def order(self) -> tuple:
        return self.S.ring.sorted_labels(self.window)

    @cached_property
    def rows(self) -> dict:
        boundary = self.boundary
        return _translates(self.S.ring, self.order, self.S, self.side,
                           [None if x in boundary else x for x in self.order])


def _translates(ring: GroupFusionRing, order: tuple, S: Iterable, side: str,
                labels: list) -> dict:
    """{v: [the row in ``order`` of x v (v x on the left), None where it
    is not in ``order``, for x in labels]} over v in S; a None label has a
    None row and forms no product."""
    row_of = {u: r for r, u in enumerate(order)}.get
    mul = ring._mul
    if side == "right":
        return {v: [None if x is None else row_of(mul(x, v)) for x in labels] for v in S}
    return {v: [None if x is None else row_of(mul(v, x)) for x in labels] for v in S}


def weighted_size(ring: FusionRing, F: Iterable) -> int:
    """|F| = sum of n_u^2 over F; exact integer."""
    F = ring.label_set(F)
    if isinstance(ring, GroupFusionRing):
        return len(F)  # every group label has dimension 1
    return sum(ring._dim(u) ** 2 for u in F)


def conjugate_set(ring: FusionRing, F: Iterable) -> LabelSet:
    return LabelSet(ring, map(ring._conj, ring.label_set(F)))


def conjugation_closure(ring: FusionRing, F: Iterable) -> LabelSet:
    F = ring.label_set(F)
    return LabelSet(ring, F | conjugate_set(ring, F))


def boundary_decomposition(ring: FusionRing, F: Iterable, S: Iterable,
                           side: str = "right") -> BoundaryData:
    """Interior, boundary, outer boundary and symmetric boundary of F.

    side="right" is the definition above (products u x v, v in S); it is
    what restriction of right multiplication needs. side="left" mirrors it
    (products v x u), which is what restriction of left multiplication
    needs; the two agree whenever the ring is commutative.

    The outer boundary bd_S(F^c) is computed on first read, through the
    Frobenius shortcut, so the infinite complement is never enumerated.
    """
    F = ring.label_set(F)
    return _decompose(ring, F, None, S, side)


def ball_boundary(ring: FusionRing, S: Iterable, radius: int,
                  side: str = "right") -> BoundaryData:
    """``boundary_decomposition(ring, ball(ring, S, radius), S, side)``, from
    the outer shell B_r \\ B_{r-1} alone, as the ball cache holds it.

    S lies in B_1, so supp(u x v) and supp(v x u) lie in B_r for every u in
    B_{r-1} and v in S, and likewise for conj(v): B_{r-1} is interior on
    either side, and its Frobenius reach stays inside B_r.
    """
    S = ring.label_set(S)
    return _decompose(ring, ball(ring, S, radius), _shells(ring, S, radius).shells[radius],
                      S, side)


def _decompose(ring: FusionRing, F: LabelSet, shell, S: Iterable,
               side: str) -> BoundaryData:
    """The decomposition of the checked window F: of all of it when
    ``shell`` is None, else of ``shell`` alone, every label of F outside
    which is interior and reaches no label outside F."""
    S = ring.label_set(S)
    if not S:
        raise ValueError("boundary decomposition needs a non-empty S")
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if side == "right":
        supp = ring._support
    else:
        def supp(u, v):
            return ring._support(v, u)
    edge = F if shell is None else shell

    def reach():
        # Frobenius: u in bd_S(F^c) iff u not in F and some supp(u x v) meets
        # F, iff u lies in supp(w x conj(v)) for some w in F, v in S (right
        # side); mirrored to supp(conj(v) x w) on the left.
        conj_S = [ring._conj(v) for v in S]
        return {u for w in edge for vb in conj_S for u in supp(w, vb)}

    if shell is None and isinstance(ring, GroupFusionRing):
        # one product per translate, kept for the operator; the boundary is
        # the labels with a translate outside F
        order = ring.sorted_labels(F)
        rows = _translates(ring, order, S, side, order)
        boundary = [x for x, *hits in zip(order, *rows.values()) if None in hits]
        dec = BoundaryData(S, side, F, boundary, reach)
        dec.order, dec.rows = order, rows
        return dec
    boundary = {u for u in edge if any(w not in F for v in S for w in supp(u, v))}
    return BoundaryData(S, side, F, boundary, reach)


def ball(ring: FusionRing, S: Iterable, radius: int) -> LabelSet:
    """Supports of all products of at most ``radius`` factors from S, its
    conjugate set and the unit; radius 0 gives {e}. Monotone in the radius
    and automatically conjugation-closed: the union of the shells of S."""
    shells = _shells(ring, ring.label_set(S), radius).shells
    return LabelSet(ring, frozenset().union(*shells[:radius + 1]))


class _Shells:
    """The ball cache entry of one checked S: ``shells`` holds B_0 = {e} and
    the shells B_r \\ B_{r-1}, each label once, and ``rims[r]`` the boundary
    and coboundary weights of B_r (right side), for every shell r but the
    last.

    The generators S u conj(S) \\ {e} are closed under conjugation, so by
    Frobenius reciprocity shell r reaches only shells r-1, r and r+1, and
    shell r+1 is grown from the last two alone. The same products give the
    rim of B_r: its boundary is the labels u of shell r with some
    supp(u x v), v in S, in shell r+1, and its coboundary is the labels of
    shell r+1 in some supp(u x conj(v)); B_{r-1} is interior and reaches
    only B_r."""

    def __init__(self, ring: FusionRing, S: LabelSet):
        self.ring = ring
        conj_S = {ring._conj(v) for v in S}
        # (v, v in S, v in conj(S)) for each generator v
        self.gens = [(v, v in S, v in conj_S)
                     for v in ring.sorted_labels(conjugation_closure(ring, S) - {ring.unit})]
        self.shells = [LabelSet(ring, (ring.unit,))]
        self.rims = []

    def grow(self, radius: int) -> _Shells:
        """Grow the shells up to ``radius``; returns self."""
        ring, shells = self.ring, self.shells
        supp = ring._support
        inner = shells[-2] if len(shells) > 1 else frozenset()
        while len(shells) <= radius:
            outer = shells[-1]
            new, boundary, coboundary = set(), set(), set()
            for v, right, back in self.gens:
                hits = [(u, w) for u in outer for w in supp(u, v)
                        if w not in outer and w not in inner]
                new.update(w for _, w in hits)
                if right:
                    boundary.update(u for u, _ in hits)
                if back:
                    coboundary.update(w for _, w in hits)
            shells.append(LabelSet(ring, new))
            self.rims.append((weighted_size(ring, LabelSet(ring, boundary)),
                              weighted_size(ring, LabelSet(ring, coboundary))))
            inner = outer
        return self


def _shells(ring: FusionRing, S: LabelSet, radius: int) -> _Shells:
    """The ball cache entry of the checked S, grown to at least ``radius``."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    key = ring.sorted_labels(S)
    entry = ring._ball_cache.get(key)
    if entry is None:
        entry = ring._ball_cache[key] = _Shells(ring, S)
    return entry.grow(radius)


def ball_rows(ring: FusionRing, S: Iterable) -> Iterator[tuple[int, int, int]]:
    """(|B_r|, |bd_S B_r|, |bd^sym_S B_r|) for r = 0, 1, 2, ..., on the right
    side, read from the ball cache: |B_r| is the running sum of the shell
    weights, and the rim of B_r comes from growing shell r+1, one shell per
    row. No ball is built and no product is formed beyond the growth pass."""
    entry = _shells(ring, ring.label_set(S), 0)
    window = 0
    for radius in count():
        entry.grow(radius + 1)
        window += weighted_size(ring, entry.shells[radius])
        boundary, coboundary = entry.rims[radius]
        yield window, boundary, boundary + coboundary


def check_axioms(ring: FusionRing, labels: Iterable) -> dict:
    """Verify the fusion-ring axioms on every pair from ``labels``.

    Checks, exactly: unit laws, conjugation involutivity and dimension
    invariance, dimension multiplicativity sum_w N_uv^w n_w = n_u n_v, and
    Frobenius reciprocity N_uv^w = N_{w conj(v)}^u = N_{conj(u) w}^v.
    Each label is checked once, on entry. Returns a report dict with any
    failures listed.
    """
    labels = ring.sorted_labels(ring.label_set(labels))
    conj, dim = ring._conj, ring._dim
    failures = []
    for u in labels:
        if conj(conj(u)) != u:
            failures.append(("conj_involution", u))
        if dim(conj(u)) != dim(u):
            failures.append(("conj_dimension", u))
        if dict(ring.product(ring.unit, u)) != {u: 1}:
            failures.append(("unit_law", u))
        if dict(ring.product(u, ring.unit)) != {u: 1}:
            failures.append(("unit_law_right", u))
    pairs = 0
    for u in labels:
        for v in labels:
            pairs += 1
            prod = ring.product(u, v)
            if any(n < 1 for n in prod.values()):
                failures.append(("nonpositive_multiplicity", (u, v)))
            if sum(n * dim(w) for w, n in prod.items()) != dim(u) * dim(v):
                failures.append(("dimension_multiplicativity", (u, v)))
            ub, vb = conj(u), conj(v)
            for w, n in prod.items():
                if ring.product(w, vb).get(u, 0) != n:
                    failures.append(("frobenius_right", (u, v, w)))
                if ring.product(ub, w).get(v, 0) != n:
                    failures.append(("frobenius_left", (u, v, w)))
    return {
        "ring": ring.tag,
        "labels_checked": len(labels),
        "pairs_checked": pairs,
        "ok": not failures,
        "failures": failures,
    }

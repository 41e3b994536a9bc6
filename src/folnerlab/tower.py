"""Quotient towers onto finite group providers and dimension approximation.

A quotient map pushes a group provider onto a finite one of the same family
by reducing normal forms with the target ring's ``_reduce``; the source ring
builds each level (``_quotient``): Z^d onto (Z/m)^d, Z x Z/2 onto
(Z/m) x Z/2, Heisenberg onto Heisenberg mod m. A tower is an increasing
chain of such maps whose moduli divide each other, so the connecting
reductions exist and commute.

The map is injective on a finite label set F when F pushes forward without
collisions. On the omega set

    Omega = F u S u  U_{x in F, s in S} supp(x * s)

injectivity transports the whole local picture: supports, boundaries and
weighted sizes push forward unchanged, the restricted operators become
unitarily equivalent, and the finite-quotient kernel dimension lands within
2 n |bd_S F| / |F| of the window estimate upstairs. ``tower_kernel_dims``
computes all of this per level and re-checks each identity exactly. A
level's kernel dimension is exact and never builds the level's |G| x |G|
operator: it is summed over the irreducible blocks of the finite group,
one small exact rank per Galois orbit (``reldim.exact_mvn_dim_finite``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fusion import GroupFusionRing, LabelSet, boundary_decomposition, weighted_size
from .polalg import (AlgebraElement, AlgebraError, MatrixOverPol, algebra_for)
from .reldim import (DimensionEstimate, _estimate, _require_conj_closed,
                     exact_mvn_dim_finite)
from .serialize import Report


class QuotientMap:
    """Surjection of a group provider onto a finite group provider."""

    def __init__(self, source, target):
        self.source = source          # PolAlgebra
        self.target = target          # PolAlgebra, finite provider
        sring, tring = source.ring, target.ring
        if not isinstance(sring, GroupFusionRing) or not isinstance(tring, GroupFusionRing):
            raise AlgebraError("quotient maps are implemented for group providers")
        if not tring.is_finite:
            raise AlgebraError("quotient target must be finite")
        _check_reduction_compatible(sring, tring)
        if self.push_label(sring.unit) != tring.unit:
            raise AlgebraError("quotient map does not preserve the unit")

    def push_label(self, u):
        """The image of the canonical source label u; not checked."""
        return self.target.ring._reduce(u)

    def push_set(self, F) -> LabelSet:
        return LabelSet(self.target.ring, map(self.push_label, self.source.ring.label_set(F)))

    def push_element(self, a: AlgebraElement) -> AlgebraElement:
        if a.algebra is not self.source:
            raise AlgebraError("element does not live in the tower source")
        return AlgebraElement._summed(self.target, (((self.push_label(g), 1, 1), c)
                                                    for (g, _, _), c in a._coeffs.items()))

    def push_matrix(self, T: MatrixOverPol) -> MatrixOverPol:
        return MatrixOverPol(self.target,
                             [[self.push_element(e) for e in row] for row in T.entries])

    def injective_on(self, F) -> bool:
        F = self.source.ring.label_set(F)
        return len(self.push_set(F)) == len(F)

    def __repr__(self):
        return f"<QuotientMap {self.source.tag} ->> {self.target.tag}>"


def _check_reduction_compatible(sring, tring):
    """Each target modulus is nonzero and divides its source modulus (0: Z)."""
    if type(sring) is not type(tring):
        raise AlgebraError("source and target group families differ")
    if len(sring.moduli) != len(tring.moduli):
        raise AlgebraError("factor counts differ")
    if any(mt == 0 or ms % mt for ms, mt in zip(sring.moduli, tring.moduli)):
        raise AlgebraError(f"no reduction {sring.name} -> {tring.name}")


class QuotientTower:
    """Increasing chain of quotient maps with commuting connecting reductions."""

    def __init__(self, maps: list[QuotientMap]):
        if not maps:
            raise AlgebraError("tower needs at least one level")
        src = maps[0].source
        if any(m.source is not src for m in maps):
            raise AlgebraError("all levels must share one source algebra")
        for low, high in zip(maps, maps[1:]):
            # the connecting map exists iff the lower level is a reduction
            # of the higher one
            _check_reduction_compatible(high.target.ring, low.target.ring)
        self.source = src
        self.maps = list(maps)

    def connecting_label_map(self, i: int, j: int):
        """Reduction from level j down to level i (i <= j), on labels."""
        if not 0 <= i <= j < len(self.maps):
            raise IndexError("levels out of range")
        return self.maps[i].target.ring._reduce

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)


def group_quotient_tower(source, moduli) -> QuotientTower:
    """Built-in towers: Z^d -> (Z/m)^d, Z x Z/2 -> (Z/m) x Z/2, Heisenberg mod m."""
    algebra = algebra_for(source) if isinstance(source, str) else source
    ring = algebra.ring
    if not isinstance(ring, GroupFusionRing) or ring.is_finite:
        raise AlgebraError("towers are implemented for infinite group providers")
    moduli = [int(m) for m in moduli]
    if any(m < 2 for m in moduli):
        raise AlgebraError("moduli must be >= 2")
    return QuotientTower([QuotientMap(algebra, algebra_for(ring._quotient(m)))
                          for m in moduli])


def omega_set(ring, F, S) -> LabelSet:
    """Omega = F u S u union of supp(x * s) over x in F, s in S."""
    F = ring.label_set(F)
    S = ring.label_set(S)
    out = set(F) | set(S)
    for x in F:
        for s in S:
            out.update(ring._support(x, s))
    return LabelSet(ring, out)


def local_injectivity_check(qmap: QuotientMap, F) -> bool:
    """True iff the map pushes F injectively into the target's labels."""
    return qmap.injective_on(F)


@dataclass(frozen=True)
class HaarReport(Report):
    values: tuple                 # per-level Haar values of the pushforward
    source_value: object          # h(a)
    first_injective_index: int | None  # w.r.t. supp(a) u {e}
    eventually_equal: bool


def haar_approx_sequence(a: AlgebraElement, tower: QuotientTower) -> HaarReport:
    """Haar values of the pushforwards, with the eventual-equality marker.

    The marker is the first level injective on supp(a) u {e}: from there on
    no term of a can collide with another or land on the trivial label, so
    every later value equals h(a) (and this is asserted).
    """
    if a.algebra is not tower.source:
        raise AlgebraError("element does not live in the tower source")
    h = a.haar()
    marker_set = LabelSet(a.algebra.ring, a.support() | {a.algebra.ring.unit})
    values = []
    first_idx = None
    for idx, qmap in enumerate(tower):
        values.append(qmap.push_element(a).haar())
        if first_idx is None and qmap.injective_on(marker_set):
            first_idx = idx
    eventually = first_idx is not None and all(
        v == h for v in values[first_idx:])
    if first_idx is not None and not eventually:
        raise RuntimeError("Haar eventual-equality violated; pushforward broken")
    return HaarReport(values=tuple(values), source_value=h,
                      first_injective_index=first_idx, eventually_equal=eventually)


@dataclass(frozen=True)
class LevelReport(Report):
    target: str
    omega_injective: bool
    quotient_dim: Fraction
    support_pushforward_ok: bool | None
    boundary_pushforward_ok: bool | None
    weighted_sizes_ok: bool | None
    transport_ok: bool | None
    transport_gap: Fraction | None


@dataclass(frozen=True)
class TowerReport(Report):
    ring: str
    window: tuple
    omega: tuple
    source_estimate: DimensionEstimate
    transport_bound: Fraction     # 2 n |bd_S F| / |F|
    levels: tuple

    def to_json(self) -> dict:
        return {**super().to_json(),
                "quotient_dims": [str(lv.quotient_dim) for lv in self.levels]}


def tower_kernel_dims(T: MatrixOverPol, tower: QuotientTower, F,
                      side: str = "right") -> TowerReport:
    """Per-level exact quotient kernel dimensions with all transport checks;
    ``side`` sets the bracket and the level boundaries."""
    if T.is_zero():
        raise AlgebraError("tower approximation needs a nonzero matrix")
    if T.algebra is not tower.source:
        raise AlgebraError("matrix does not live in the tower source")
    ring = T.algebra.ring
    F = _require_conj_closed(ring, F)
    S = T.support()
    omega = omega_set(ring, F, S)
    dec = boundary_decomposition(ring, F, S, side=side)
    estimate = _estimate(T, dec)
    bound = 2 * T.n * estimate.boundary_ratio

    def level(qmap: QuotientMap) -> LevelReport:
        omega_i = qmap.push_set(omega)
        injective = len(omega_i) == len(omega)
        Ti = qmap.push_matrix(T)
        qdim = exact_mvn_dim_finite(Ti)
        ok = gap = None
        if injective:
            tring = qmap.target.ring
            Fi, Si, bd_i = (qmap.push_set(E) for E in (F, S, dec.boundary))
            supp_ok = Ti.support() == Si
            bd_ok = bd_i == boundary_decomposition(tring, Fi, Si, side=side).boundary
            sizes_ok = all(
                weighted_size(tring, Ei) == weighted_size(ring, E)
                for E, Ei in ((F, Fi), (S, Si), (dec.boundary, bd_i), (omega, omega_i)))
            gap = abs(estimate.lower - qdim)
            transport_ok = gap <= bound
            if not (supp_ok and bd_ok and sizes_ok and transport_ok):
                raise RuntimeError(
                    f"transport identities failed at level {qmap.target.tag}: "
                    f"supp={supp_ok} bd={bd_ok} sizes={sizes_ok} transport={transport_ok}")
            ok = True
        return LevelReport(target=qmap.target.tag, omega_injective=injective,
                           quotient_dim=qdim, support_pushforward_ok=ok,
                           boundary_pushforward_ok=ok, weighted_sizes_ok=ok,
                           transport_ok=ok, transport_gap=gap)

    return TowerReport(ring=ring.tag, window=estimate.window,
                       omega=ring.sorted_labels(omega),
                       source_estimate=estimate, transport_bound=bound,
                       levels=tuple(level(qmap) for qmap in tower.maps))

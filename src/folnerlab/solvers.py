"""Constructive solvers built on the restricted multiplication matrices.

* zero_divisor_search: a nonzero kernel vector of multiplication by ``a``
  restricted to a window is itself an algebra element annihilated by ``a``
  on that side, so it is returned as an explicit certificate. An exhausted
  search returns the (all zero so far) kernel-dimension sequence instead.

* kernel_dim_sequence: the certified brackets of the kernel dimension along
  growing ball windows.

* ore_pair: solves a t = s b by finding a window F with
  |bd_S F| < 1/2 |F| (S the joint support), where the map
  (x, y) -> a x - s y out of W_int + W_int into W_F has more columns than
  rows in weighted counts and therefore a nonzero kernel. Only the first
  kernel vector is built. If it has t = 0, then s b = 0 with b != 0 is
  itself a zero-divisor certificate and is returned instead (pass
  prefer_ore=True to build and scan the whole kernel basis for a usable t
  first). Every returned object is re-verified by a full multiplication,
  exactly in exact mode.

Left multiplications use the left-sided interior throughout; on commutative
providers it coincides with the right one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exactla
from .folner import ExhaustionReport, _profile_row
from .fusion import LabelSet, ball, ball_boundary, weighted_size
from .polalg import AlgebraElement, AlgebraError, MatrixOverPol, _restricted_operator
from .reldim import DimensionEstimate, _estimate
from .scalars import EXACT
from .serialize import Report

FLOAT_ZERO_TOL = 1e-9


def _vanishes(x: AlgebraElement) -> bool:
    """x = 0: exactly in exact mode, up to FLOAT_ZERO_TOL in float mode."""
    if x.algebra.mode == EXACT:
        return x.is_zero()
    return x.norm_max() < FLOAT_ZERO_TOL


@dataclass(frozen=True)
class ZeroDivisorCertificate(Report):
    a: AlgebraElement
    witness: AlgebraElement
    side: str          # "left": a * witness = 0; "right": witness * a = 0
    window: tuple
    radius: int

    def product_is_zero(self) -> bool:
        a, b = self.a, self.witness
        return _vanishes(a * b if self.side == "left" else b * a)

    def to_json(self) -> dict:
        return {**super().to_json(), "ring": self.a.algebra.tag,
                "verified": self.product_is_zero()}


@dataclass(frozen=True)
class NotFoundReport(Report):
    ring: str          # ring tag of the searched element
    side: str
    max_radius: int
    kernel_dims: tuple  # (radius, Fraction) pairs, all zero so far


@dataclass(frozen=True)
class OrePair(Report):
    a: AlgebraElement
    s: AlgebraElement
    t: AlgebraElement
    b: AlgebraElement
    window: tuple
    radius: int

    def residual(self) -> AlgebraElement:
        return self.a * self.t - self.s * self.b

    def to_json(self) -> dict:
        return {**super().to_json(), "ring": self.a.algebra.tag,
                "residual_zero": _vanishes(self.residual())}


def _zero_divisor_certificate(a: AlgebraElement, witness: AlgebraElement, side: str,
                              window: tuple, radius: int) -> ZeroDivisorCertificate:
    """The certificate that ``witness`` != 0 annihilates ``a`` on ``side``
    over the sorted ``window``, re-verified by a full multiplication."""
    cert = ZeroDivisorCertificate(a=a, witness=witness, side=side,
                                  window=window, radius=radius)
    if witness.is_zero() or not cert.product_is_zero():
        raise RuntimeError("zero-divisor witness failed verification")
    return cert


def zero_divisor_search(a: AlgebraElement, side: str = "left",
                        max_radius: int = 8):
    """Search growing ball windows for b != 0 with a b = 0 (or b a = 0)."""
    if max_radius < 0:
        raise ValueError("max_radius must be >= 0")
    if a.is_zero():
        raise AlgebraError("zero element is a trivial zero-divisor; need a != 0")
    algebra = a.algebra
    S = a.support()
    T = MatrixOverPol.from_element(a)
    dims = []
    for radius in range(max_radius + 1):
        op = _restricted_operator(T, ball_boundary(algebra.ring, S, radius, side=side))
        kernel = exactla.nullspace_basis(op.matrix, limit=1)
        if kernel:
            (b,) = op.elements_from_coords(kernel[0])
            return _zero_divisor_certificate(a, b, side, op.window, radius)
        dims.append((radius, Fraction(0)))
    return NotFoundReport(ring=algebra.tag, side=side, max_radius=max_radius,
                          kernel_dims=tuple(dims))


def kernel_dim_sequence(a: AlgebraElement, side: str = "left",
                        radii=(0, 1, 2, 3, 4)) -> list[tuple[int, DimensionEstimate]]:
    """Certified kernel-dimension brackets over the ball windows at ``radii``."""
    if a.is_zero():
        raise AlgebraError("need a != 0")
    T = MatrixOverPol.from_element(a)
    ring, S = a.algebra.ring, a.support()
    return [(radius, _estimate(T, ball_boundary(ring, S, radius, side=side)))
            for radius in radii]


def ore_pair(a: AlgebraElement, s: AlgebraElement, max_radius: int = 16,
             prefer_ore: bool = False):
    """Find (t, b) with a t = s b and t != 0, or a zero-divisor certificate.

    The window grows radius by radius until |bd_S F| < 1/2 |F| (left-sided
    boundary, since both multiplications act on the left); the resulting
    column surplus guarantees a nonzero kernel before any solving happens.
    """
    if max_radius < 0:
        raise ValueError("max_radius must be >= 0")
    if a.is_zero() or s.is_zero():
        raise AlgebraError("ore_pair needs nonzero a and s")
    if a.algebra is not s.algebra:
        raise AlgebraError("a and s live in different algebras")
    ring = a.algebra.ring
    S = LabelSet(ring, a.support() | s.support())
    decs = []
    for radius in range(max_radius + 1):
        dec = ball_boundary(ring, S, radius, side="left")
        if 2 * dec.boundary_weight < dec.window_weight:
            break
        decs.append(dec)
    else:
        # the outer boundaries are read only here, for the rows of the report
        return ExhaustionReport(
            ring=ring.tag, S=ring.sorted_labels(S), epsilon=Fraction(1, 2),
            max_radius=max_radius, strategy="ore-ball",
            profile=tuple(_profile_row(d, r) for r, d in enumerate(decs)))
    # the counting guarantee behind the kernel, against the ball itself
    if not 2 * dec.interior_weight > weighted_size(ring, ball(ring, S, radius)):
        raise RuntimeError("window bookkeeping is broken: 2|int| <= |F|")

    # (x, y) -> a x - s y is the first row on the left; MatrixOverPol is square, hence the zero row
    zero = a.algebra.zero()
    op = _restricted_operator(MatrixOverPol(a.algebra, [[a, -s], [zero, zero]]), dec)
    kernel = exactla.nullspace_basis(op.matrix, limit=None if prefer_ore else 1)
    if not kernel:
        raise RuntimeError("column surplus did not produce a kernel; backend broken")
    for vec in kernel:
        t, b = op.elements_from_coords(vec)
        if not t.is_zero():
            break
    else:
        # t = 0 forces s b = 0 with b != 0, an explicit certificate that s
        # is a zero divisor (impossible when the algebra is a domain)
        return _zero_divisor_certificate(s, b, "left", op.window, radius)
    pair = OrePair(a=a, s=s, t=t, b=b, window=op.window, radius=radius)
    if not _vanishes(pair.residual()):
        raise RuntimeError("ore pair failed residual verification")
    return pair


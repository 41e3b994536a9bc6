"""Scalar arithmetic for the two coefficient modes.

Exact mode works over the Gaussian rationals Q(i), represented as a pair of
``fractions.Fraction`` values; float mode uses the builtin ``complex``.
The mode is a property of the ambient algebra, never of an individual
coefficient, and mixing modes raises.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"

_RatLike = (int, Fraction)


class QQi:
    """A Gaussian rational re + im*i with both parts reduced fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if not self.im and not other.im:  # real fast path
            return QQi(self.re * other.re)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        nrm = other.re * other.re + other.im * other.im
        if not nrm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi(
            (self.re * other.re + self.im * other.im) / nrm,
            (self.im * other.re - self.re * other.im) / nrm,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def conjugate(self):
        return QQi(self.re, -self.im)

    # -- predicates / conversions -------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (QQi,) + _RatLike):
            other = _coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if not self.im:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"


def _coerce(x) -> QQi:
    if isinstance(x, QQi):
        return x
    if isinstance(x, _RatLike):
        return QQi(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into a Gaussian rational")


QQI_ZERO = QQi(0)


def as_scalar(value, mode: str):
    """Coerce a user-supplied coefficient into the given mode's scalar type.

    Exact mode accepts ints, Fractions, QQi and (re, im) pairs; float mode
    accepts any finite number. Floats are rejected in exact mode: exactness of
    the group-algebra providers is the point of that mode. A malformed number
    (a zero denominator, an int beyond the float range) raises ValueError.
    """
    try:
        if mode == EXACT:
            if isinstance(value, QQi):
                return value
            if isinstance(value, _RatLike):
                return QQi(value)
            if isinstance(value, tuple) and len(value) == 2:
                return QQi(Fraction(value[0]), Fraction(value[1]))
            if isinstance(value, str):
                return QQi(Fraction(value))
            raise TypeError(
                f"exact mode needs rational data, got {type(value).__name__}"
            )
        if mode == FLOAT:
            value = complex(value)
            if not cmath.isfinite(value):
                raise ValueError(f"float coefficients must be finite, got {value!r}")
            return value
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {mode} coefficient: {exc}") from None
    raise ValueError(f"unknown scalar mode {mode!r}")


def scalar_zero(mode: str):
    return QQI_ZERO if mode == EXACT else 0j

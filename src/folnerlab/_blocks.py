"""Exact kernel dimension on a finite group ring, one irreducible block per
Galois orbit.

Over a finite group G, C[G] is the direct sum of the matrix algebras
M_d(C) of its irreducible representations pi. Multiplication by an n x n
matrix T over C[G] therefore splits into the blocks pi(T) of size nd x nd,
and on either side

    nullity(T) = sum over pi of d_pi * nullity(pi(T)).

Both exact finite families have irreducibles whose matrices are monomial in
the m-th roots of unity:

* Z/m_1 x ... x Z/m_r: the characters g -> zeta^(sum k_i g_i L/m_i) with
  L = lcm(m_i), one per k (Perlis and Walker, Trans. AMS 68, 1950);
* Heisenberg mod m, with (a, b, c) = x^a y^b z^(c - ab): a central character
  z -> omega = zeta_m^k of order d has (m/d)^2 irreducibles of dimension d,
  X = alpha * shift and Y = diag(beta omega^-j) with alpha = zeta_m^a,
  beta = zeta_m^b, a, b in [0, m/d) (Serre, Linear Representations of
  Finite Groups, 8.2).

The automorphism zeta -> zeta^u of Q(zeta_L), u a unit mod L, maps pi(T) to
sigma_u(pi)(T) when it fixes T's coefficients, so the blocks of one orbit
share their rank and one block per orbit is ranked, weighted by the orbit's
size. Rational coefficients are fixed by every u; Gaussian ones, with L
replaced by lcm(L, 4) and i = zeta_L^(L/4), by the units u = 1 mod 4.

A block is ranked over Q: a d x d matrix over Q(zeta_L) becomes the
d phi(L) x d phi(L) rational matrix of the same Q-linear map, built from
the powers of zeta_L reduced modulo the cyclotomic polynomial Phi_L; its
Q-rank is phi(L) times the block's rank, and ``exactla.rank_nullity``
computes it. A 1 x 1 block is a field element and needs no rank: it is
singular exactly when its reduction is zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod

from . import exactla
from .fusion import HeisenbergRing
from .scalars import EXACT, QQi


@lru_cache(maxsize=None)
def _cyclotomic(L: int) -> tuple:
    """Integer coefficients of Phi_L, constant term first: x^L - 1 divided
    by Phi_d for every proper divisor d of L."""
    poly = [-1] + [0] * (L - 1) + [1]
    for d in range(1, L):
        if L % d == 0:
            den = _cyclotomic(d)
            quot = [0] * (len(poly) - len(den) + 1)
            for i in reversed(range(len(quot))):
                c = quot[i] = poly[i + len(den) - 1]
                if c:
                    for j, x in enumerate(den):
                        poly[i + j] -= c * x
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _powers(L: int) -> tuple:
    """Row e, for e in [0, L), holds zeta_L^e reduced modulo Phi_L as the
    pairs (r, nonzero coefficient of zeta_L^r), r in [0, phi(L))."""
    phi = _cyclotomic(L)
    f = len(phi) - 1
    rows = []
    v = [1] + [0] * (f - 1)
    for _ in range(L):
        rows.append(tuple((r, x) for r, x in enumerate(v) if x))
        top = v[-1]
        v = [0] + v[:-1]
        if top:  # zeta^f = -(phi_0 + ... + phi_{f-1} zeta^(f-1))
            v = [x - top * c for x, c in zip(v, phi)]
    return tuple(rows)


def _block_nullity(cells: dict, size: int, L: int) -> int:
    """Nullity over Q(zeta_L) of the size x size matrix whose (row, col)
    entry is the sum of c zeta_L^e over its cells {(row, col, e): c}."""
    powers = _powers(L)
    f = len(_cyclotomic(L)) - 1
    if size == 1:
        value = [0] * f
        for (_, _, e), c in cells.items():
            for r, x in powers[e]:
                value[r] += c * x
        return 0 if any(value) else 1
    # column (col, j) is the entry times zeta^j, in the basis 1, ..., zeta^(f-1)
    real = {}
    for (row, col, e), c in cells.items():
        for j in range(f):
            for r, x in powers[(e + j) % L]:
                key = (row * f + r, col * f + j)
                real[key] = real.get(key, 0) + c * x
    matrix = exactla.ScalarMatrix(EXACT, (size * f, size * f),
                                  entries={k: QQi(v) for k, v in real.items()})
    rank, _ = exactla.rank_nullity(matrix)
    if rank % f:
        raise RuntimeError(f"realified block rank {rank} is not a multiple of {f}")
    return size - rank // f


def kernel_dim(T) -> Fraction:
    """Kernel dimension of multiplication by a nonzero T, on either side,
    over the exact group ring of a finite CyclicProductRing or of
    HeisenbergRing(m)."""
    ring = T.algebra.ring
    n = T.n
    coeffs = [(p, q, g, c) for p, row in enumerate(T.entries)
              for q, t in enumerate(row) for (g, _, _), c in t._coeffs.items()]
    gaussian = any(c.im for *_, c in coeffs)
    heisenberg = isinstance(ring, HeisenbergRing)
    L = ring.modulus if heisenberg else lcm(*ring.moduli)
    if gaussian:
        L = lcm(L, 4)
    units = [u for u in range(1, L) if gcd(u, L) == 1 and (u % 4 == 1 or not gaussian)]
    # scaling T by a common denominator keeps every rank; c = re + im i is
    # (exponent shift, integer) parts: re at zeta^0, im at i = zeta^(L/4)
    den = lcm(*(x.denominator for *_, c in coeffs for x in (c.re, c.im)))
    terms = [(p, q, g, [(shift, x.numerator * (den // x.denominator))
                        for shift, x in ((0, c.re), (L // 4, c.im)) if x])
             for p, q, g, c in coeffs]

    nullity = covered = 0
    seen = set()
    if heisenberg:
        m = ring.modulus
        scale = L // m
        for k in range(m):
            d = m // gcd(m, k)
            r = m // d
            for a, b in product(range(r), repeat=2):
                if (k, a, b) in seen:
                    continue
                orbit = {(u * k % m, u * a % r, u * b % r) for u in units}
                seen |= orbit
                cells = {}
                for p, q, (ga, gb, gc), parts in terms:
                    e = a * ga + b * gb + k * (gc - ga * gb)
                    for j in range(d):
                        row, col = p * d + (j + ga) % d, q * d + j
                        for shift, x in parts:
                            key = (row, col, ((e - k * j * gb) * scale + shift) % L)
                            cells[key] = cells.get(key, 0) + x
                nullity += len(orbit) * d * _block_nullity(cells, n * d, L)
                covered += len(orbit) * d * d
        order = m ** 3
    else:
        moduli = ring.moduli
        scales = [L // mi for mi in moduli]
        if ring.scalar_labels:
            terms = [(p, q, (g,), parts) for p, q, g, parts in terms]
        for k in product(*map(range, moduli)):
            if k in seen:
                continue
            orbit = {tuple(u * x % mi for x, mi in zip(k, moduli)) for u in units}
            seen |= orbit
            weights = [x * s for x, s in zip(k, scales)]
            cells = {}
            for p, q, g, parts in terms:
                e = sum(map(int.__mul__, weights, g))
                for shift, x in parts:
                    key = (p, q, (e + shift) % L)
                    cells[key] = cells.get(key, 0) + x
            nullity += len(orbit) * _block_nullity(cells, n, L)
            covered += len(orbit)
        order = prod(moduli)
    if covered != order:
        raise RuntimeError(f"irreducible blocks cover {covered} of {order} dimensions")
    return Fraction(nullity, order)

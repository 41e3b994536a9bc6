"""Exact kernel dimension on a finite group ring, one irreducible block per
Galois orbit.

Over a finite group G, C[G] is the direct sum of the matrix algebras
M_d(C) of its irreducible representations pi. Multiplication by an n x n
matrix T over C[G] therefore splits into the blocks pi(T) of size nd x nd,
and on either side

    nullity(T) = sum over pi of d_pi * nullity(pi(T)).

On both exact families every pi is monomial on C^d,
pi(g) e_j = zeta_L^e e_((j + sigma(g)) mod d), so a family gives only its
keys, one per pi, and the placement (sigma(g), e) of g, e affine in j:

* Z/m_1 x ... x Z/m_r, L = lcm(m_i): keys k in the product of the Z/m_i,
  d = 1, sigma = 0, e = sum k_i g_i L/m_i, the characters (Perlis and
  Walker, Trans. AMS 68, 1950);
* Heisenberg mod m, L = m, the label g = (g_a, g_b, g_c) standing for
  x^g_a y^g_b z^(g_c - g_a g_b): keys (k, a, b), r = gcd(m, k), d = m/r,
  (a, b) in (Z/r)^2, sigma(g) = g_a and
  e = a g_a + b g_b + k (g_c - g_a g_b - j g_b), that is z -> zeta^k,
  x -> zeta^a shift, y -> diag(zeta^(b - kj)) (Serre, Linear
  Representations of Finite Groups, 8.2).

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
    moduli = ring.moduli
    L = lcm(*moduli, 4 if gaussian else 1)
    units = [u for u in range(1, L) if gcd(u, L) == 1 and (u % 4 == 1 or not gaussian)]
    # scaling T by a common denominator keeps every rank; c = re + im i is
    # (exponent shift, integer) parts: re at zeta^0, im at i = zeta^(L/4)
    den = lcm(*(x.denominator for *_, c in coeffs for x in (c.re, c.im)))
    terms = [(p, q, g, [(shift, x.numerator * (den // x.denominator))
                        for shift, x in ((0, c.re), (L // 4, c.im)) if x])
             for p, q, g, c in coeffs]

    # per family: (key, its moduli under the units, d); place(key, g) = (sigma, e_0, de)
    if heisenberg:
        (m,) = moduli
        s = L // m
        order = m ** 3
        blocks = [((k, a, b), (m, r, r), m // r) for k in range(m) for r in (gcd(m, k),)
                  for a, b in product(range(r), repeat=2)]

        def place(key, g):
            k, a, b = key
            ga, gb, gc = g
            return ga, (a * ga + b * gb + k * (gc - ga * gb)) * s, -k * gb * s
    else:
        order = prod(moduli)
        blocks = [(k, moduli, 1) for k in product(*map(range, moduli))]
        # a label as its exponents g_i L/m_i: e is their dot product with the key
        terms = [(p, q, [x * (L // mi) for x, mi in
                         zip((g,) if ring.scalar_labels else g, moduli)], parts)
                 for p, q, g, parts in terms]

        def place(key, g):
            return 0, sum(map(int.__mul__, key, g)), 0

    nullity = covered = 0
    seen = set()
    for key, key_moduli, d in blocks:
        if key in seen:
            continue
        # u * key for every unit u, one component at a time
        orbit = set(zip(*[[u * x % mi for u in units] for x, mi in zip(key, key_moduli)]))
        seen |= orbit
        cells = {}
        for p, q, g, parts in terms:
            sigma, e, de = place(key, g)
            for j in range(d):
                row, col = p * d + (j + sigma) % d, q * d + j
                for shift, x in parts:
                    cell = (row, col, (e + j * de + shift) % L)
                    cells[cell] = cells.get(cell, 0) + x
        nullity += len(orbit) * d * _block_nullity(cells, n * d, L)
        covered += len(orbit) * d * d
    if covered != order:
        raise RuntimeError(f"irreducible blocks cover {covered} of {order} dimensions")
    return Fraction(nullity, order)

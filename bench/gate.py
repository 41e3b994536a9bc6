"""Independent correctness gate for every benchmark task.

Each check recomputes what is mathematically determined by the inputs with
its own arithmetic (group laws, Clebsch-Gordan supports, balls, boundaries,
float SVD and DFT counts) and compares it with the returned result. It never
compares the library's kernel vectors byte for byte: any nonzero t with an
exact zero residual is a valid Ore pair, so a faster solver may return a
different one.

``check(spec, result, schemas)``, with ``schemas`` a ``SchemaSet``, returns
None when the result is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction

import folnerlab
import numpy as np

# -- ring arithmetic, written out independently of folnerlab ---------------------


def _heis_mul(g, h, m=0):
    a, b, c = g
    d, e, f = h
    out = (a + d, b + e, c + f + a * e)
    return tuple(x % m for x in out) if m else out


def _heis_inv(g):
    a, b, c = g
    return (-a, -b, a * b - c)


class _Ring:
    """Product supports, conjugation and dimensions of one ring tag."""

    def __init__(self, tag: str):
        self.tag = tag

    def mul(self, u, v) -> list:
        if self.tag == "su2":
            return list(range(abs(u - v), u + v + 1, 2))
        if self.tag == "group:heisenberg":
            return [_heis_mul(u, v)]
        return [tuple(x + y for x, y in zip(u, v))]

    def conj(self, u):
        if self.tag == "su2":
            return u
        if self.tag == "group:heisenberg":
            return _heis_inv(u)
        return tuple(-x for x in u)

    def dim(self, u) -> int:
        return u + 1 if self.tag == "su2" else 1

    @property
    def unit(self):
        if self.tag == "su2":
            return 0
        return (0, 0, 0) if self.tag == "group:heisenberg" else (0, 0)

    def weight(self, labels) -> int:
        return sum(self.dim(u) ** 2 for u in labels)

    def balls(self, S, radius: int) -> list[frozenset]:
        """Balls of radius 0..radius of S, its conjugates and the unit."""
        gens = ({self.conj(v) for v in S} | set(S)) - {self.unit}
        balls = [frozenset([self.unit])]
        frontier = balls[0]
        for _ in range(radius):
            prev = balls[-1]
            frontier = {w for u in frontier for v in gens for w in self.mul(u, v)} - prev
            balls.append(prev | frontier)
        return balls

    def inner_boundary(self, F, S, side: str = "right") -> set:
        if side == "right":
            return {u for u in F if any(w not in F for v in S for w in self.mul(u, v))}
        return {u for u in F if any(w not in F for v in S for w in self.mul(v, u))}

    def symmetric_boundary(self, F, S) -> set:
        outer = set()
        for w in F:
            for v in S:
                for u in self.mul(w, self.conj(v)):
                    if u not in F and any(x in F for x in self.mul(u, v)):
                        outer.add(u)
        return self.inner_boundary(F, S) | outer


def _label(obj):
    return tuple(obj) if isinstance(obj, list) else obj


def _coeffs_of(element) -> dict:
    """{label: complex Fraction pair} of a folnerlab group-ring element."""
    out = {}
    for (label, _, _), c in element.terms():
        out[label] = (Fraction(c.re), Fraction(c.im))
    return out


def _spec_coeffs(terms) -> dict:
    return {_label(g): (Fraction(re), Fraction(im)) for g, re, im in terms}


def _convolve(x: dict, y: dict, mul) -> dict:
    out: dict = {}
    for g, (a, b) in x.items():
        for h, (c, d) in y.items():
            k = mul(g, h)
            re, im = out.get(k, (Fraction(0), Fraction(0)))
            out[k] = (re + a * c - b * d, im + a * d + b * c)
    return {k: v for k, v in out.items() if v != (0, 0)}


# -- per-kind checks ----------------------------------------------------------------

def _check_regularity(spec, est) -> str | None:
    if type(est).__name__ != "DimensionEstimate":
        return f"expected a DimensionEstimate, got {type(est).__name__}"
    N, side = spec["N"], spec["side"]
    ring = _Ring("group:Z^2")
    F = frozenset((i, j) for i in range(-N, N + 1) for j in range(-N, N + 1))
    S = set(_spec_coeffs(spec["element"]))
    bd = ring.inner_boundary(F, S, side)
    fw, bw, iw = len(F), len(bd), len(F) - len(bd)
    if set(est.window) != F or est.window_weight != fw:
        return "window is not the Chebyshev box"
    if est.nullity != 0:
        return f"nullity {est.nullity} != 0"
    if est.rank + est.nullity != est.n * iw or est.interior_weight != iw:
        return "rank-sum identity fails"
    if est.boundary_weight != bw or est.lower != 0 or est.upper != Fraction(est.n * bw, fw):
        return f"bracket [{est.lower}, {est.upper}] != [0, {Fraction(est.n * bw, fw)}]"
    return None


def _check_ore(spec, pair) -> str | None:
    if type(pair).__name__ != "OrePair":
        return f"expected an OrePair, got {type(pair).__name__}"
    a, s = _spec_coeffs(spec["a"]), _spec_coeffs(spec["s"])
    if _coeffs_of(pair.a) != a or _coeffs_of(pair.s) != s:
        return "a or s was changed"
    t, b = _coeffs_of(pair.t), _coeffs_of(pair.b)
    if not t:
        return "t = 0"
    lhs = _convolve(a, t, _heis_mul)
    rhs = _convolve(s, b, _heis_mul)
    if lhs != rhs:
        return "residual a t - s b is not zero"
    ring = _Ring("group:heisenberg")
    S = set(a) | set(s)
    balls = ring.balls(S, pair.radius)
    if set(pair.window) != balls[-1]:
        return f"window is not the radius-{pair.radius} ball"
    for r, F in enumerate(balls):
        small = 2 * len(ring.inner_boundary(F, S, "left")) < len(F)
        if small != (r == pair.radius):
            return f"radius {pair.radius} is not the first with 2|bd F| < |F| (r={r})"
    return None


def _group_elements(source: str, m: int) -> list:
    if source == "group:Z^2":
        return [(i, j) for i in range(m) for j in range(m)]
    return [(a, b, c) for a in range(m) for b in range(m) for c in range(m)]


def _level_nullity(source: str, m: int, coeffs: dict) -> int:
    """Float-SVD nullity of right multiplication by the pushed element."""
    elems = _group_elements(source, m)
    index = {g: k for k, g in enumerate(elems)}
    pushed: dict = {}
    for g, (re, im) in coeffs.items():
        k = tuple(x % m for x in g)
        pushed[k] = pushed.get(k, 0) + complex(re, im)
    if source == "group:Z^2":
        def mul(g, h):
            return ((g[0] + h[0]) % m, (g[1] + h[1]) % m)
    else:
        def mul(g, h):
            return _heis_mul(g, h, m)
    M = np.zeros((len(elems), len(elems)), dtype=complex)
    for g in elems:
        for h, c in pushed.items():
            M[index[mul(g, h)], index[g]] += c
    sv = np.linalg.svd(M, compute_uv=False)
    rank = int(np.count_nonzero(sv > 1e-9 * max(sv[0], 1.0)))
    return len(elems) - rank


def _dft_nullity(m: int, coeffs: dict) -> int:
    """Vanishing characters of a (Z/m)^2 group-ring element."""
    scale = max(1.0, sum(abs(complex(re, im)) for re, im in coeffs.values()))
    zeros = 0
    for k1 in range(m):
        for k2 in range(m):
            lam = sum(complex(re, im) * cmath.exp(2j * cmath.pi * (k1 * g[0] + k2 * g[1]) / m)
                      for g, (re, im) in coeffs.items())
            zeros += abs(lam) < 1e-9 * scale
    return zeros


def _check_tower(spec, rep) -> str | None:
    if type(rep).__name__ != "TowerReport":
        return f"expected a TowerReport, got {type(rep).__name__}"
    source, moduli = spec["source"], spec["moduli"]
    if len(rep.levels) != len(moduli):
        return f"{len(rep.levels)} levels for {len(moduli)} moduli"
    coeffs = _spec_coeffs(spec["element"])
    est = rep.source_estimate
    if est.nullity != 0 or est.lower != 0:
        return f"source window nullity {est.nullity} != 0"
    for lv, m in zip(rep.levels, moduli):
        order = m ** 2 if source == "group:Z^2" else m ** 3
        nullity = _level_nullity(source, m, coeffs)
        if source == "group:Z^2" and _dft_nullity(m, coeffs) != nullity:
            return f"SVD and DFT disagree at modulus {m}"
        if lv.quotient_dim != Fraction(nullity, order):
            return f"{lv.target}: quotient_dim {lv.quotient_dim} != {nullity}/{order}"
    return None


class SchemaSet:
    """The JSON Schema files of one directory; $refs resolve by $id."""

    def __init__(self, directory):
        self.docs = {}
        for path in sorted(directory.glob("*.schema.json")):
            with open(path) as fh:
                self.docs[path.name] = json.load(fh)
        self._validators = {}

    def validator(self, kind: str):
        if kind not in self._validators:
            import jsonschema
            from referencing import Registry, Resource

            registry = Registry().with_resources(
                (doc.get("$id", name), Resource.from_contents(doc))
                for name, doc in self.docs.items())
            self._validators[kind] = jsonschema.Draft202012Validator(
                self.docs[f"{kind}.schema.json"], registry=registry)
        return self._validators[kind]


def _check_cli(spec, result, schemas) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(text)
    argv = spec["argv"]
    sub = argv[0]
    errors = list(schemas.validator(sub).iter_errors(payload))
    if errors:
        return f"{sub} output violates its schema: {errors[0].message}"
    flags = dict(zip(argv[1::2], argv[2::2]))
    ring = _Ring(flags["--ring"])
    S = json.loads(flags["--S"])
    S = {_label(v) for v in (S if isinstance(S, list) else [S])}
    if sub == "folner":
        if payload["kind"] != "folner_certificate":
            return f"no certificate: {payload['kind']}"
        eps = Fraction(flags["--epsilon"])
        lib_ring = folnerlab.ring_from_tag(flags["--ring"])
        cert = folnerlab.FolnerCertificate(
            ring=payload["ring"], S=tuple(_label(v) for v in payload["S"]),
            epsilon=Fraction(payload["epsilon"]),
            F=tuple(_label(v) for v in payload["F"]),
            boundary_weight=payload["boundary_weight"],
            window_weight=payload["window_weight"],
            strategy=payload["strategy"], radius=payload["radius"])
        if not folnerlab.verify_certificate(lib_ring, cert):
            return "verify_certificate rejects the certificate"
        balls = ring.balls(S, cert.radius)
        if set(cert.F) != balls[-1]:
            return f"F is not the radius-{cert.radius} ball"
        if cert.radius:
            prev = balls[-2]
            if ring.weight(ring.symmetric_boundary(prev, S)) < eps * ring.weight(prev):
                return f"radius {cert.radius - 1} already satisfies epsilon"
        return None
    rows = payload["rows"]
    radius = int(flags["--max-radius"])
    if [r["radius"] for r in rows] != list(range(radius + 1)):
        return "profile radii are not 0..max-radius"
    balls = ring.balls(S, radius)
    for row in (rows[radius // 2], rows[-1]):
        F = balls[row["radius"]]
        sw = ring.weight(ring.symmetric_boundary(F, S))
        if (row["window_weight"], row["symmetric_boundary_weight"]) != (ring.weight(F), sw):
            return f"profile row {row['radius']} has wrong weights"
        if Fraction(row["ratio"]) != Fraction(sw, ring.weight(F)):
            return f"profile row {row['radius']} has a wrong ratio"
    return None


def check(spec: dict, result, schemas: SchemaSet) -> str | None:
    kind = spec["kind"]
    if kind == "regularity":
        return _check_regularity(spec, result)
    if kind == "ore":
        return _check_ore(spec, result)
    if kind == "tower":
        return _check_tower(spec, result)
    if kind == "cli":
        return _check_cli(spec, result, schemas)
    return f"unknown task kind {kind!r}"

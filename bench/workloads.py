"""The four seeded certification workloads.

``generate(workload, seed, batch)`` returns the batch's task specs as plain
JSON-able data, drawn from ``random.Random`` seeded with the workload name,
the seed and the batch index, so the same arguments give the same inputs in
any process. ``build`` turns specs into folnerlab inputs and ``run`` calls
the library's public API on them; nothing here depends on how long a task
took. Each batch has a fixed composition of task classes, so a seed changes
the inputs but not the mix of task sizes.

Coefficients are Gaussian rationals written as ``[re, im]`` fraction strings;
group labels are JSON lists.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

WORKLOADS = ("regularity-z2", "ore-heisenberg", "tower-quotients", "folner-profile")

# Per-task latency tail reported for each workload, and the fewest tasks a
# run needs so that at least ten samples lie beyond that percentile.
TAIL_PERCENTILE = {
    "regularity-z2": 80,
    "ore-heisenberg": 85,
    "tower-quotients": 90,
    "folner-profile": 75,
}


def min_tasks(workload: str) -> int:
    return -(-10 * 100 // (100 - TAIL_PERCENTILE[workload]))


CELL = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
E3 = (0, 0, 0)
X_LINE = [(1, 0, 0), (-1, 0, 0)]
Y_LINE = [(0, 1, 0), (0, -1, 0)]
UNITS = [("1", "0"), ("-1", "0"), ("0", "1"), ("0", "-1")]


def _rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{batch}")


def _fraction(num: int, den: int = 1) -> str:
    return str(Fraction(num, den))


def _cell_coeff(rng) -> list:
    """Criterion-6 style coefficient: re = p/q, |p| <= 9, q <= 3; im in -3..3."""
    return [_fraction(rng.randint(-9, 9), rng.randint(1, 3)), _fraction(rng.randint(-3, 3))]


def _regularity(rng) -> list[dict]:
    # three elements with 2, 3 and 4 nonzero terms in the 3x3 cell; every
    # element meets every box size on both sides (18 tasks)
    elements = []
    for size in (2, 3, 4):
        while True:
            terms = [[list(g), *_cell_coeff(rng)] for g in rng.sample(CELL, size)]
            if all(re != "0" or im != "0" for _, re, im in terms):
                break
        elements.append(terms)
    return [{"kind": "regularity", "element": terms, "N": N, "side": side}
            for N in (5, 10, 20) for terms in elements for side in ("left", "right")]


def _unit(rng) -> list:
    return list(rng.choice(UNITS))


# radius-6 pairs (g, h): g on one line of generators, h on the other
ORIENTATIONS = [(g, h) for first, second in ((X_LINE, Y_LINE), (Y_LINE, X_LINE))
                for g in first for h in second]


def _ore(rng, slot: int) -> list[dict]:
    # 2 radius-6 pairs (the window is the 593-label ball) and 6 radius-2
    # pairs, in a seeded order. A radius-6 pair is a = g, s = h for
    # orientations slot and slot + 1, so consecutive batches cycle through
    # all eight orientations; their nullspace times differ by up to 25%,
    # and unit coefficients other than 1 would change them by up to 2.5x.
    # A radius-2 pair stays on one line, a = c1 + c2 g and s = c3 + c4 g^-1,
    # with seeded units +-1, +-i.
    tasks = []
    for k in (slot, slot + 1):
        g, h = ORIENTATIONS[k % len(ORIENTATIONS)]
        tasks.append({"kind": "ore", "class": "radius6",
                      "a": [[list(g), "1", "0"]], "s": [[list(h), "1", "0"]]})
    for _ in range(6):
        g = rng.choice(X_LINE + Y_LINE)
        ginv = [-c for c in g]
        a = [[list(E3), *_unit(rng)], [list(g), *_unit(rng)]]
        s = [[list(E3), *_unit(rng)], [ginv, *_unit(rng)]]
        tasks.append({"kind": "ore", "class": "radius2", "a": a, "s": s})
    rng.shuffle(tasks)
    return tasks


def _laplacian(rng, gens) -> list:
    """Terms of sum_g c_g (1 - g), c_g in 1..3: every level has the constants
    in its kernel."""
    cs = [rng.randint(1, 3) for _ in gens]
    return [[[0] * len(gens[0]), str(sum(cs)), "0"]] + \
        [[list(g), str(-c), "0"] for g, c in zip(gens, cs)]


def _tower(rng) -> list[dict]:
    # Each source takes one generator from each axis (Z^2) or line
    # (Heisenberg) in all four sign patterns: the exact rank's cost depends
    # on the pattern by up to 2.5x, so every batch holds each pattern once
    # and the seed draws the coefficients and the order. Every level has at
    # most 64 elements; (Z/16)^2 and heisenberg/6 take about a minute each
    # on the 2-core baseline machine of bench/README.md.
    z2_axes = ([(1, 0), (-1, 0)], [(0, 1), (0, -1)])
    tasks = []
    for source, moduli, window, (xs, ys) in (
            ("group:Z^2", [2, 4, 8], 2, z2_axes),
            ("group:heisenberg", [2, 4], 1, (X_LINE, Y_LINE)),
            ("group:heisenberg", [3], 1, (X_LINE, Y_LINE))):
        for g in xs:
            for h in ys:
                tasks.append({"kind": "tower", "source": source, "moduli": moduli,
                              "window": window, "element": _laplacian(rng, [g, h])})
    rng.shuffle(tasks)
    return tasks


def _folner(rng) -> list[dict]:
    # Z^2 generators: one of the four sign patterns of the standard basis;
    # Heisenberg generators: one of x^+-1 with one of y^+-1
    z2 = [[rng.choice((1, -1)), 0], [0, rng.choice((1, -1))]]
    heis = [list(rng.choice(X_LINE)), list(rng.choice(Y_LINE))]
    su2 = "1"
    argvs = []
    for eps in ("1/2", "1/5", "1/10"):
        argvs.append(["folner", "--ring", "su2", "--S", su2, "--epsilon", eps,
                      "--max-radius", "100"])
    for eps in ("1/2", "1/5", "1/10"):
        argvs.append(["folner", "--ring", "group:Z^2", "--S", _json(z2),
                      "--epsilon", eps, "--max-radius", "100"])
    argvs.append(["profile", "--ring", "group:Z^2", "--S", _json(z2), "--max-radius", "30"])
    argvs.append(["profile", "--ring", "group:heisenberg", "--S", _json(heis),
                  "--max-radius", "8"])
    argvs.append(["profile", "--ring", "su2", "--S", su2, "--max-radius", "100"])
    return [{"kind": "cli", "argv": argv} for argv in argvs]


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


_GENERATORS = {
    "regularity-z2": _regularity,
    "tower-quotients": _tower,
    "folner-profile": _folner,
}


def generate(workload: str, seed: int, batch: int) -> list[dict]:
    """Task specs of one batch; deterministic in (workload, seed, batch)."""
    rng = _rng(workload, seed, batch)
    if workload == "ore-heisenberg":
        start = _rng(workload, seed, -1).randrange(len(ORIENTATIONS))
        return _ore(rng, start + 2 * batch)
    return _GENERATORS[workload](rng)


# -- library inputs -------------------------------------------------------------

def _element(algebra, terms):
    return algebra.element({tuple(label): (Fraction(re), Fraction(im))
                            for label, re, im in terms})


def _box(N: int) -> frozenset:
    return frozenset((i, j) for i in range(-N, N + 1) for j in range(-N, N + 1))


def _heisenberg_window() -> frozenset:
    # the radius-1 ball of {x, y}: the unit and x^+-1, y^+-1
    return frozenset([E3] + X_LINE + Y_LINE)


def build(fl, spec: dict):
    """Library inputs for one spec; ``fl`` is the imported folnerlab package."""
    kind = spec["kind"]
    if kind == "regularity":
        A = fl.algebra_for("group:Z^2")
        T = fl.MatrixOverPol.from_element(_element(A, spec["element"]))
        return (T, _box(spec["N"]), spec["side"])
    if kind == "ore":
        A = fl.algebra_for("group:heisenberg")
        return (_element(A, spec["a"]), _element(A, spec["s"]))
    if kind == "tower":
        A = fl.algebra_for(spec["source"])
        T = fl.MatrixOverPol.from_element(_element(A, spec["element"]))
        F = _box(spec["window"]) if spec["source"] == "group:Z^2" else _heisenberg_window()
        return (T, A, spec["moduli"], F)
    if kind == "cli":
        return (list(spec["argv"]),)
    raise ValueError(f"unknown task kind {kind!r}")


def run(fl, spec: dict, inputs):
    """One task through the public API; returns what the gate checks."""
    kind = spec["kind"]
    if kind == "regularity":
        T, F, side = inputs
        return fl.kernel_dim_estimate(T, F, side=side)
    if kind == "ore":
        a, s = inputs
        return fl.ore_pair(a, s, max_radius=12)
    if kind == "tower":
        T, A, moduli, F = inputs
        return fl.tower_kernel_dims(T, fl.group_quotient_tower(A, moduli), F)
    if kind == "cli":
        from folnerlab import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(inputs[0]))
        return code, buf.getvalue()
    raise ValueError(f"unknown task kind {kind!r}")


def facts(spec: dict, result) -> dict:
    """Window size and radius of a finished task, read from spec and result."""
    kind = spec["kind"]
    if kind == "regularity":
        return {"radius": spec["N"], "window_size": len(result.window),
                "nullity": result.nullity}
    if kind == "ore":
        return {"class": spec["class"], "radius": getattr(result, "radius", None),
                "window_size": len(getattr(result, "window", ()))}
    if kind == "tower":
        return {"radius": spec["window"], "window_size": len(result.window),
                "levels": [[lv.target, str(lv.quotient_dim)] for lv in result.levels]}
    if kind == "cli":
        out = {"subcommand": spec["argv"][0]}
        try:
            payload = json.loads(result[1])
        except ValueError:
            return out
        if "F" in payload:
            out.update(radius=payload["radius"], window_size=len(payload["F"]))
        if "rows" in payload:
            out.update(radius=payload["rows"][-1]["radius"],
                       window_weight=payload["rows"][-1]["window_weight"])
        return out
    return {}

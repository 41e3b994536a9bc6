"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import folnerlab as fl  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SCHEMAS = gate.SchemaSet(ROOT / "schemas")


def _solve(spec):
    return workloads.run(fl, spec, workloads.build(fl, spec))


def _first(workload, pred, seed=3):
    return next(s for s in workloads.generate(workload, seed, 0) if pred(s))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    a = workloads.generate(workload, 7, 2)
    b = workloads.generate(workload, 7, 2)
    assert a == b
    assert json.loads(json.dumps(a)) == a
    others = [workloads.generate(workload, seed, 2) for seed in range(8)]
    assert any(o != a for o in others)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batch_composition_does_not_depend_on_seed(workload):
    def shape(specs):
        return sorted((s["kind"], s.get("class"), s.get("N"), s.get("side"),
                       tuple(s.get("moduli", ())), len(s.get("element", ())),
                       tuple(s.get("argv", ())[:1])) for s in specs)

    assert len({repr(shape(workloads.generate(workload, seed, 0))) for seed in range(6)}) == 1


def test_tail_percentile_has_ten_samples_beyond():
    for workload in workloads.WORKLOADS:
        n = workloads.min_tasks(workload)
        assert n * (100 - workloads.TAIL_PERCENTILE[workload]) >= 1000


def test_gate_rejects_a_flipped_coefficient_of_t():
    spec = _first("ore-heisenberg", lambda s: s["class"] == "radius2")
    pair = _solve(spec)
    assert gate.check(spec, pair, SCHEMAS) is None
    (label, i, j), c = pair.t.terms()[0]
    flipped = pair.t.algebra.element({(label, i, j): -c})
    corrupted = dataclasses.replace(pair, t=pair.t + flipped + flipped)
    assert "residual" in gate.check(spec, corrupted, SCHEMAS)
    assert gate.check(spec, dataclasses.replace(pair, radius=pair.radius + 1), SCHEMAS)
    assert gate.check(spec, None, SCHEMAS)


def test_gate_accepts_a_different_valid_kernel_vector():
    spec = _first("ore-heisenberg", lambda s: s["class"] == "radius2")
    pair = _solve(spec)
    scaled = dataclasses.replace(pair, t=pair.t.scale(Fraction(3, 7)),
                                 b=pair.b.scale(Fraction(3, 7)))
    assert gate.check(spec, scaled, SCHEMAS) is None


def test_gate_rejects_wrong_regularity_bracket():
    spec = _first("regularity-z2", lambda s: s["N"] == 5)
    est = _solve(spec)
    assert gate.check(spec, est, SCHEMAS) is None
    assert gate.check(spec, dataclasses.replace(est, nullity=1), SCHEMAS)
    assert gate.check(spec, dataclasses.replace(est, upper=est.upper * 2), SCHEMAS)


def test_gate_rejects_wrong_quotient_dimension():
    spec = _first("tower-quotients", lambda s: s["moduli"] == [3])
    rep = _solve(spec)
    assert gate.check(spec, rep, SCHEMAS) is None
    level = dataclasses.replace(rep.levels[0], quotient_dim=Fraction(2, 27))
    assert "quotient_dim" in gate.check(spec, dataclasses.replace(rep, levels=(level,)), SCHEMAS)


def test_gate_rejects_bad_cli_output():
    spec = _first("folner-profile", lambda s: s["argv"][2] == "su2" and s["argv"][0] == "folner")
    code, text = _solve(spec)
    assert gate.check(spec, (code, text), SCHEMAS) is None
    payload = json.loads(text)
    payload["boundary_weight"] += 1
    assert gate.check(spec, (code, json.dumps(payload)), SCHEMAS)
    del payload["F"]
    assert "schema" in gate.check(spec, (code, json.dumps(payload)), SCHEMAS)


def test_tracer_catches_internal_calls_and_restores_originals():
    import folnerlab.fusion
    import folnerlab.reldim

    original = folnerlab.reldim.boundary_decomposition
    spec = _first("regularity-z2", lambda s: s["N"] == 5)
    inputs = workloads.build(fl, spec)
    tracer = tracing.Tracer()
    tracer.install(fl)
    try:
        assert folnerlab.reldim.boundary_decomposition is not original
        tracer.task = 0
        workloads.run(fl, spec, inputs)
    finally:
        tracer.uninstall()
    assert folnerlab.reldim.boundary_decomposition is original
    assert folnerlab.fusion.boundary_decomposition is original
    layers = tracing.layer_metrics(tracer)
    calls = layers["calls"]
    assert calls["fusion.boundary_decomposition"] == 2 * calls["reldim.kernel_dim_estimate"]
    assert calls["exactla.rank_nullity"] == 1
    assert layers["counts"]["fusion.check_label"] > 0
    assert all(v >= 0 for v in tracer.self_times().values())
    assert tracer.facts[0]["operators"][0][0] == 121


def test_pool_worker_spans_nest_under_map_ordered():
    spec = _first("tower-quotients", lambda s: s["moduli"] == [2, 4])
    inputs = workloads.build(fl, spec)
    tracer = tracing.Tracer()
    tracer.install(fl)
    try:
        tracer.task = 0
        workloads.run(fl, spec, inputs)
    finally:
        tracer.uninstall()
    pool = [s for s in tracer.spans if s[1] == "util.map_ordered"]
    assert len(pool) == 1
    levels = [s for s in tracer.spans if s[1] == "reldim.exact_mvn_dim_finite"]
    assert len(levels) == 2 and all(s[5] == pool[0][0] for s in levels)
    selfs = tracer.self_times()
    assert 0 <= selfs[pool[0][0]] <= pool[0][4] - pool[0][3]
    assert tracer.counts()["exactla.max_cols"] == 4 ** 3


def test_self_time_subtracts_the_union_of_children():
    t = tracing.Tracer()
    t.spans = [(1, "p", 0, 0.0, 10.0, None, 0),
               (2, "c", 1, 1.0, 5.0, 1, 0),
               (3, "c", 2, 3.0, 7.0, 1, 0)]
    assert t.self_times() == {1: 4.0, 2: 4.0, 3: 4.0}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)

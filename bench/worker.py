"""One benchmark batch in a fresh process.

Usage: python3 bench/worker.py --workload NAME --seed N --batch K [--trace]

Imports folnerlab from the checkout's ``src``, loads its lazy dependencies
(sympy and the prime table, through a mod-p rank), builds the batch's
inputs and announces ``ready``; the parent times set-up up to that line.
Then it runs the batch's tasks one after another, each timed on its own,
and afterwards checks every result with the gate. With ``--trace`` the
layer wrappers are installed for the tasks only, and the batch's spans,
counters and per-task facts are returned too.

Protocol: lines starting with ``BENCH `` on stdout carry one JSON object
each; everything else on stdout is ignored by the parent.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROTOCOL = sys.stdout


def emit(obj: dict) -> None:
    PROTOCOL.write("BENCH " + json.dumps(obj) + "\n")
    PROTOCOL.flush()


def _import_folnerlab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import folnerlab

    if not Path(folnerlab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"folnerlab was imported from {folnerlab.__file__}, not {src}")
    return folnerlab


def _warm_up(fl) -> None:
    """Load sympy and the prime table the way a user's first large rank does."""
    n = 200  # above the size where exact rank switches to the mod-p path
    M = fl.ScalarMatrix.from_entries({(i, i): fl.QQi(1) for i in range(n)}, (n, n), "exact")
    if fl.rank_nullity(M) != (n, 0):
        raise RuntimeError("warm-up rank is wrong")


def _versions(fl) -> dict:
    import numpy
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    worker_count = getattr(getattr(fl, "util", None), "worker_count", None)
    return {"threads": worker_count() if worker_count else 1, "sympy": sympy.__version__,
            "ground_types": GROUND_TYPES, "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    fl = _import_folnerlab()
    import gate
    import tracer as tracing
    import workloads

    _warm_up(fl)
    specs = workloads.generate(args.workload, args.seed, args.batch)
    inputs = [workloads.build(fl, spec) for spec in specs]
    emit({"event": "ready", **_versions(fl)})

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(fl)
    results, latencies, errors = [], [], {}
    start = time.perf_counter()
    for k, (spec, inp) in enumerate(zip(specs, inputs)):
        if tracer is not None:
            tracer.task = k
        t0 = time.perf_counter()
        try:
            results.append(workloads.run(fl, spec, inp))
        except Exception:
            results.append(None)
            errors[k] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    schemas = gate.SchemaSet(ROOT / "schemas")
    tasks = []
    for k, (spec, result) in enumerate(zip(specs, results)):
        reason = errors.get(k)
        if reason is None:
            try:
                reason = gate.check(spec, result, schemas)
            except Exception:
                reason = "gate raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        task = {"latency_s": latencies[k], "ok": reason is None}
        if reason is not None:
            task["reason"] = reason
        if tracer is not None and reason is None:
            task["facts"] = {**workloads.facts(spec, result), **tracer.facts.get(k, {})}
        tasks.append(task)

    out = {"event": "result", "wall_s": wall, "peak_rss_mb": peak_rss_mb, "tasks": tasks}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["spans"] = tracer.spans
        selfs = tracer.self_times()
        share: dict[int, float] = {}
        for sid, name, _, _, _, _, task in tracer.spans:
            if name == "exactla.nullspace_basis":
                share[task] = share.get(task, 0.0) + selfs[sid]
        for k, task in enumerate(tasks):
            if "facts" in task and k in share:
                task["facts"]["nullspace_self_share"] = share[k] / latencies[k]
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""folnerlab certification benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: regularity-z2, ore-heisenberg, tower-quotients, folner-profile
(see bench/README.md). The run is a closed loop
with one client: each batch of tasks runs in a fresh worker process
(bench/worker.py), one task after another, so ring ball caches and the
prime table never carry over between batches. Batches continue until the
next one would end after S seconds, but at least until the workload's tail
percentile has ten samples beyond it. Batch k of a run draws its inputs from
(workload, seed, k).

--trace 0 prints the end-to-end metrics (medians over batches; the tail is
a fixed per-workload percentile of all task latencies). --trace 1 runs
pairs of batches on the inputs of batch 0, one untraced and one traced,
prints the per-layer metrics and writes spans and per-task facts to
bench/out/trace-<workload>-seed<N>.json.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. A task fails when it raises, returns the wrong kind of
result, or fails the independent gate in bench/gate.py. The worker runs
with FOLNERLAB_THREADS removed from its environment, so the library uses
its default thread count; the value found and the count used are printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("fusion.boundary_decomposition.calls", "count"),
    ("fusion.boundary_decomposition.self_s", "s"),
    ("fusion.ball.self_s", "s"),
    ("fusion.weighted_size.self_s", "s"),
    ("fusion.check_label.calls", "count"),
    ("fusion.product.calls", "count"),
    ("folner.folner_search.self_s", "s"),
    ("folner.isoperimetric_profile.self_s", "s"),
    ("folner.verify_certificate.self_s", "s"),
    ("util.map_ordered.calls", "count"),
    ("util.map_ordered.self_s", "s"),
    ("polalg.restricted_mult_matrix.calls", "count"),
    ("polalg.restricted_mult_matrix.self_s", "s"),
    ("polalg.multiply.calls", "count"),
    ("polalg.operator_nnz", "count"),
    ("polalg.operator_cells", "count"),
    ("polalg.full_mult_matrix.self_s", "s"),
    ("polalg.elements_from_coords.self_s", "s"),
    ("tower.push_matrix.self_s", "s"),
    ("tower.tower_kernel_dims.self_s", "s"),
    ("reldim.kernel_dim_estimate.calls", "count"),
    ("reldim.kernel_dim_estimate.self_s", "s"),
    ("reldim.exact_mvn_dim_finite.calls", "count"),
    ("reldim.exact_mvn_dim_finite.self_s", "s"),
    ("exactla.rank_nullity.calls", "count"),
    ("exactla.rank_nullity.self_s", "s"),
    ("exactla.max_cols", "count"),
    ("exactla.nullspace_basis.calls", "count"),
    ("exactla.nullspace_basis.self_s", "s"),
    ("exactla.kernel_vectors", "count"),
    ("solvers.ore_pair.calls", "count"),
    ("solvers.ore_pair.self_s", "s"),
    ("solvers.vectors_per_certificate", "ratio"),
    ("cli.main.self_s", "s"),
    ("serialize.canonical_dumps.calls", "count"),
    ("serialize.canonical_dumps.self_s", "s"),
    ("serialize.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

LAST_BATCH_START_S = 120.0   # no batch starts later than this into a run
KILL_AFTER_S = 170.0         # a worker still running then is killed


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("FOLNERLAB_THREADS", None)
    return env


def run_batch(workload: str, seed: int, batch: int, trace: bool, kill_at: float) -> dict:
    """Run one batch in a fresh worker; returns its result with setup_s added."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--batch", str(batch)] + (["--trace"] if trace else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            env=_worker_env(), text=True)
    watchdog = threading.Timer(max(1.0, kill_at - start), proc.kill)
    watchdog.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if not line.startswith("BENCH "):
                continue
            msg = json.loads(line[len("BENCH "):])
            if msg["event"] == "ready":
                ready = msg
                ready["setup_s"] = time.perf_counter() - start
            elif msg["event"] == "result":
                result = msg
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or result is None:
        raise BenchError(f"worker for batch {batch} exited with code {code}")
    result["ready"] = ready
    return result


def _keep_going(elapsed: float, done: int, tasks: int, need_tasks: int,
                seconds: float) -> bool:
    if elapsed > LAST_BATCH_START_S:
        return False
    if tasks < need_tasks or done < 3:
        return True
    return elapsed + elapsed / done <= seconds


def _latencies(batches) -> list[float]:
    return [t["latency_s"] for b in batches for t in b["tasks"]]


def end_to_end(workload: str, batches: list[dict]) -> dict:
    lat = _latencies(batches)
    pct = workloads.TAIL_PERCENTILE[workload]
    values = {
        "setup_s": statistics.median(b["ready"]["setup_s"] for b in batches),
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        "task_p50_s": statistics.median(lat),
        "task_tail_s": statistics.quantiles(lat, n=100, method="inclusive")[pct - 1],
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
    }
    print(f"tasks: {len(lat)} in {len(batches)} batches; task_tail_s is p{pct} "
          f"({sum(1 for x in lat if x > values['task_tail_s'])} samples beyond)")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    first = pairs[0][1]["layers"]
    calls, counts = first["calls"], first["counts"]

    def self_s(name):
        return statistics.median(t["layers"]["self_s"].get(name, 0.0) for _, t in pairs)

    values = {"trace.overhead_s": statistics.median(t["wall_s"] - p["wall_s"] for p, t in pairs)}
    certificates = calls.get("solvers.ore_pair", 0)
    values["solvers.vectors_per_certificate"] = \
        counts.get("exactla.kernel_vectors", 0) / certificates if certificates else 0.0
    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            base = name[:-len(".calls")]
            value = calls.get(base, counts.get(base, 0))
        elif name.endswith(".self_s"):
            value = self_s(name[:-len(".self_s")])
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def machine(ready: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": ready.get("sympy"),
        "sympy_ground_types": ready.get("ground_types"),
        "numpy": ready.get("numpy"),
        "FOLNERLAB_THREADS": os.environ.get("FOLNERLAB_THREADS", "unset"),
        "library_threads": ready.get("threads"),
    }


def _write_trace(workload: str, seed: int, facts: dict, pairs, metrics) -> Path:
    traced = pairs[0][1]
    spans = [dict(zip(("id", "name", "thread", "start", "end", "parent", "task"), s))
             for s in traced["spans"]]
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "machine": facts,
                   "metrics": metrics, "tasks": traced["tasks"], "spans": spans}, fh)
    return path.relative_to(BENCH_DIR.parent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    kill_at = t0 + KILL_AFTER_S
    try:
        if args.trace:
            pairs = []
            while not pairs or _keep_going(time.perf_counter() - t0, len(pairs), 0, 0,
                                           args.seconds):
                plain = run_batch(args.workload, args.seed, 0, False, kill_at)
                traced = run_batch(args.workload, args.seed, 0, True, kill_at)
                pairs.append((plain, traced))
            batches = [b for pair in pairs for b in pair]
        else:
            batches = []
            need = workloads.min_tasks(args.workload)
            while not batches or _keep_going(time.perf_counter() - t0, len(batches),
                                             len(_latencies(batches)), need, args.seconds):
                batches.append(run_batch(args.workload, args.seed, len(batches), False,
                                         kill_at))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    facts = machine(batches[0]["ready"])
    print("machine: " + json.dumps(facts, sort_keys=True))
    tasks = [t for b in batches for t in b["tasks"]]
    failed = [t for t in tasks if not t["ok"]]
    for t in failed[:5]:
        print(f"failed task: {t['reason']}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(pairs)
        shares = [t["facts"]["nullspace_self_share"] for t in pairs[0][1]["tasks"]
                  if t.get("facts", {}).get("class") == "radius6"]
        if shares:
            print(f"radius-6 Ore tasks: nullspace_basis self time is "
                  f"{min(shares):.1%}..{max(shares):.1%} of task time")
        print(f"trace: {_write_trace(args.workload, args.seed, facts, pairs, metrics)}")
    else:
        metrics = end_to_end(args.workload, batches)
    print(json.dumps({"correct": not failed, "attempted": len(tasks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Wall-clock benchmark of the similarity-query engine.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 30 --trace 0

Workloads: ``cold-mix``, ``hot-wire`` and ``durable-ingest`` (see
``workloads.py``; why each was chosen is in ``BENCHMARK.json``).  The inputs
come from ``--seed`` alone.  The engine is imported from ``src/`` of the
same checkout.  Every answer is checked against a brute-force numpy oracle
(``oracle.py``) after the measured loop.

Output: a header with the environment record (commit, source-tree hash,
core count, Python and numpy versions, seed, WAL sync policy), a table of
metrics with units and sample counts, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones listed in ``BENCHMARK.json``; the table
additionally shows ``write_p50_ms``, ``write_p90_ms``, ``recovery_s``,
``disk_bytes_per_user_byte`` and ``error_rate``, which exist only on some
workloads (or are 0 on every correct run) and so are not gated.  With
``--trace 1`` the metrics are the per-layer ones, each mapped to the
end-to-end metric it should move in ``metric_map.json``; a metric a
workload does not exercise reads 0.  A traced run also prints per-span self
times and writes every span to ``perfbench/out/``.

Exit status: 0 when every operation succeeded and every answer matched the
oracle, 1 otherwise (the result line is still printed), 2 on bad usage or a
missing engine source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORK = os.path.join(HERE, "work")

#: Shown in the table of an untraced run, next to the gated metrics.
REPORTED_ONLY = {"write_p50_ms": "ms", "write_p90_ms": "ms", "recovery_s": "s",
                 "disk_bytes_per_user_byte": "ratio", "error_rate": "ratio"}


def fail_usage(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail_usage(f"cannot read {path}: {error}")


def commit_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha() -> str:
    """Hash of every ``.py`` file under ``src/`` (identifies the code measured
    even where there is no git history)."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def main(argv: list[str] | None = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    metric_map = load_json(os.path.join(HERE, "metric_map.json"))["per_layer"]
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        fail_usage(f"unknown workload {args.workload!r}; choose from {names}")
    if {metric["name"] for metric in spec["per_layer"]} != set(metric_map):
        fail_usage("BENCHMARK.json per_layer and metric_map.json disagree")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail_usage(f"no engine source at {os.path.join(SRC, 'repro')}")
    sys.path.insert(0, SRC)
    import workloads
    from oracle import Oracle
    from spans import OFF, Tracer

    tracer = Tracer() if args.trace else OFF
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, sizes or workloads.FULL, workdir)
        # The benchmark's own peak plus that of its largest child (the
        # hot-wire server process), taken before the oracle check.
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
        for log in run.logs:
            oracle = Oracle(*log.rows())
            for query, ids, distances in log.records():
                problem = oracle.check(query, ids, distances)
                if problem is not None:
                    run.fail(f"oracle mismatch ({query.kind}"
                             f"{', mavg' if query.transformed else ''}): {problem}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "commit": commit_sha(), "src_sha256": source_sha(),
           "cpu_count": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "wal_sync": run.env.pop("wal_sync", "n/a"),
           **run.env}
    observed = {
        "setup_s": (median(run.setup_s), len(run.setup_s)),
        "query_p50_ms": (percentile(run.query_ms, 50), len(run.query_ms)),
        "query_p99_ms": (percentile(run.query_ms, 99), len(run.query_ms)),
        "query_qps": (len(run.query_ms) / run.measured_s if run.measured_s else 0.0,
                      len(run.query_ms)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "write_p50_ms": (percentile(run.write_ms, 50), len(run.write_ms)),
        "write_p90_ms": (percentile(run.write_ms, 90), len(run.write_ms)),
        "recovery_s": (median(run.recovery_s), len(run.recovery_s)),
        "disk_bytes_per_user_byte": (run.disk_bytes_per_user_byte or 0.0,
                                     int(run.disk_bytes_per_user_byte is not None)),
    }
    if args.trace:
        metrics, table = layer_metrics(run, spec, metric_map, observed, args.workload)
    else:
        metrics = {metric["name"]: {"value": observed[metric["name"]][0],
                                    "unit": metric["unit"]}
                   for metric in spec["end_to_end"]}
    failed = len(run.failures)
    correct = failed == 0 and run.attempted > 0
    observed["error_rate"] = (failed / max(1, run.attempted), run.attempted)
    if not args.trace:
        table = [f"{'metric':<28}{'value':>16}  {'unit':<8}{'samples':>8}"]
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
        units.update(REPORTED_ONLY)
        for name, unit in units.items():
            value, count = observed[name]
            shown = f"{value:.6g}" if count else "n/a"
            gate = "" if name in metrics else "  (not gated)"
            table.append(f"{name:<28}{shown:>16}  {unit:<8}{count:>8}{gate}")

    print(f"perfbench {json.dumps(env, sort_keys=True)}")
    print("\n".join(table))
    for message in run.failures[:10]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"env": env, "metrics": metrics,
                   "observed": {name: value for name, (value, _) in observed.items()},
                   "attempted": run.attempted, "failures": run.failures}, handle, indent=1)
    if args.trace:
        tracer.write(stem + "-spans.json", env)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_metrics(run, spec: dict, metric_map: dict, observed: dict,
                  workload: str) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the table that shows them with
    the end-to-end metric each should move, then per-span self times."""
    values = dict(run.layer)
    for name, samples in run.samples.items():
        values[name] = median(samples)
    for name in ("write_p50_ms", "write_p90_ms", "recovery_s", "disk_bytes_per_user_byte"):
        if observed[name][1]:
            values[name] = observed[name][0]
    if run.query_ms and run.traced_query_ms:
        values["trace.overhead_pct"] = 100.0 * (
            median(run.traced_query_ms) / median(run.query_ms) - 1.0)
    expected = {name for name, entry in metric_map.items() if workload in entry["measured_on"]}
    if not expected.issubset(values):
        run.fail(f"traced run did not measure {sorted(expected.difference(values))}")
    metrics = {}
    table = [f"{'per-layer metric':<30}{'value':>14}  {'unit':<8}moves"]
    for metric in spec["per_layer"]:
        name = metric["name"]
        measured = name in expected and name in values
        metrics[name] = {"value": float(values[name]) if measured else 0.0,
                         "unit": metric["unit"]}
        entry = metric_map[name]
        shown = f"{metrics[name]['value']:.6g}" if measured else "n/a"
        table.append(f"{name:<30}{shown:>14}  {metric['unit']:<8}"
                     f"{entry['moves']} on {entry['on']}")
    table.append(f"{'span':<22}{'count':>8}{'total_ms':>14}{'self_ms':>14}")
    for name, row in sorted(run.tracer.self_times().items()):
        table.append(f"{name:<22}{row['count']:>8}{row['total_ms']:>14.3f}"
                     f"{row['self_ms']:>14.3f}")
    return metrics, table


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of qenvelope: one workload, one seed, one measured run.

    python3 bench/run.py --workload stepping --seed 1 --seconds 30 --trace 0

It builds (or loads) the oracle's references, then starts the worker process
that runs the program PROCESSES times in turn.  Each one measures its own
set-up and runs an equal share of the timed loop, so the run's figures pool
several processes.  Afterwards it checks every job's output and prints an
environment record, one line per metric with its unit, and as its last line
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Worker processes per run.  Speed differs from one process to the next by
# more than it drifts within one (audit's 15 s medians: 21% apart between
# processes, 11% within one), so a run pools several.
PROCESSES = 5
DEADLINE_S = 170.0        # the whole run, oracle included, must end before this
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def start_worker(args, process: int, work: Path, env: dict, deadline: float) -> dict:
    log_path = work / f"p{process}.log"
    with open(log_path, "w") as log:
        started = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--process", str(process),
             "--seconds", str(args.seconds / PROCESSES), "--trace", str(args.trace),
             "--started-ns", str(started), "--work", str(work)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    if proc.returncode != 0:
        tail = log_path.read_text().splitlines()[-20:]
        raise RuntimeError(f"worker exited with code {proc.returncode}:\n" + "\n".join(tail))
    return json.loads((work / f"p{process}.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "qenvelope" / "__init__.py").is_file():
        print(f"error: no qenvelope sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not args.seconds > 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2

    # Pin BLAS to one thread unless the caller chose a count; the worker
    # warns when it is not 1.
    env = dict(os.environ)
    for var in PINNED:
        env.setdefault(var, "1")
        os.environ.setdefault(var, "1")
    import checks
    import numpy as np
    import oracle
    import tracer
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    refs = oracle.load(workload)
    work = ROOT / ".bench_build" / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    try:
        results = [start_worker(args, i, work, env, deadline) for i in range(PROCESSES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = [r for result in results for r in result["records"]]
    arrays = {}
    for path in work.glob("p*.arrays.npz"):
        with np.load(path) as data:
            arrays.update(data)
    attempted = sum(len(r["ok"]) for r in records)
    failed = sum(not ok for r in records for ok in r["ok"])
    problems = []
    for r in records:
        for problem in checks.check_job(workload, r, refs, work / f"{r['key']}.csv", arrays):
            problems.append(f"job {r['key']} (K={r['K']:g}): {problem}")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        traced = [r["wall_s"] for r in records if r["traced"]]
        untraced = [r["wall_s"] for r in records if not r["traced"]]
        summary = tracer.merge([result["trace"] for result in results])
        values = tracer.per_layer(summary, len(traced))
        values["cli.csv_bytes"] = summary["csv_bytes"] / len(traced)
        values["trace.job_s.p50"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values["trace.overhead_pct"] = 100.0 * values["trace.overhead_s"] / statistics.median(untraced)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(result["setup_s"] for result in results),
            "job_s.p50": statistics.median(r["wall_s"] for r in records),
            "jobs_per_s": len(records) / sum(result["loop_s"] for result in results),
            "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print("env " + json.dumps(results[-1]["env"]))
    print(f"{workload.name}: {len(records)} jobs, {attempted} operations, {failed} failed, "
          f"{len(problems)} check failures")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

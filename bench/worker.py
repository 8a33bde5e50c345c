"""The process that runs the program's calls, started by ``run.py``.

It imports qenvelope from the checkout's ``src``, builds the workload's
inputs, runs one untimed warm-up job and records the set-up time, measured
from the moment ``run.py`` started this process.  It then runs whole rounds
of jobs for its share of the run's seconds, in one thread: each job waits for
the one before it.  With ``--trace 1`` the first half of that time runs
untraced and the second half under the :mod:`tracer`.

Outputs (CSV files, arrays, spans and a JSON result) go to the work
directory, named after the process number; the oracle and every check stay
in ``run.py``'s process.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def peak_rss_mb() -> float:
    """High-water mark of this process's resident memory.

    VmHWM belongs to the address space made at exec.  ru_maxrss is not used:
    Linux carries the parent's resident size at fork over into it, and the
    parent holds the oracle.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def environment_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


class Runner:
    """Runs one job the way a user would: CLI calls through ``cli.main``,
    and library calls for the work that has no CLI."""

    def __init__(self, qe, cli, workload, work_dir: Path, prefix: str):
        self.qe, self.cli = qe, cli
        self.workload = workload
        self.work_dir = work_dir
        self.prefix = prefix
        self.matrix_files = None
        self.arrays = {}
        if workload.name == "audit":
            exp = workload.round[0].experiment
            self.q0 = wl.matrix(exp.q0, workload.d, workload.delta)
            self.q = wl.matrix(exp.q, workload.d, workload.delta)
            self.matrix_files = (work_dir / "q0.txt", work_dir / "q.txt")
            qe.write_matrix_file(self.matrix_files[0], self.q0)
            qe.write_matrix_file(self.matrix_files[1], self.q)

    def key(self, job) -> str:
        """Names this job's output files and arrays."""
        return f"{self.prefix}j{job.index}"

    def run(self, job) -> list:
        """Run the job's operations; returns one bool per operation (True if
        it succeeded)."""
        ok = []
        if self.workload.name == "audit":
            argv = wl.validate_argv(self.workload, job, self.matrix_files)
            ok.append(self.cli.main(argv) == 0)
        argv = wl.price_argv(self.workload, job, self.work_dir / f"{self.key(job)}.csv",
                              self.matrix_files)
        ok.append(self.cli.main(argv) == 0)
        if self.workload.name == "audit":
            ok += self._audit_library(job)
        return ok

    def _audit_library(self, job) -> list:
        qe, tpl, key = self.qe, job.template, self.key(job)
        exp = tpl.experiment
        try:
            fam = qe.interval_generator(self.q0, self.q, exp.lambda_low, exp.lambda_high)
            grid = qe.StateGrid(self.workload.d, self.workload.delta)
            make = qe.payoff_butterfly if exp.payoff == "butterfly" else qe.payoff_bull
            u = make(grid, job.K, job.L).values
            control = qe.extract_worst_case_control(fam, wl.T, tpl.n, u, k=tpl.k)
            self.arrays[f"{key}.replay"] = qe.control_evaluate(fam, control, u, k=tpl.k)
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"job {key}: control replay failed: {exc!r}", file=sys.stderr)
            return [False, False]
        try:
            _, diag = qe.envelope_refined(fam, wl.T, u, tol=wl.REFINE_TOL)
            self.arrays[f"{key}.levels"] = np.stack([lv.values for lv in diag.levels])
            self.arrays[f"{key}.converged"] = np.array(diag.converged)
        except Exception as exc:
            print(f"job {key}: refinement failed: {exc!r}", file=sys.stderr)
            return [True, False]
        return [True, True]


def timed_loop(runner, rounds, seconds: float, tracer=None) -> tuple:
    """Run whole rounds until ``seconds`` have passed; returns the job
    records and the loop's wall time."""
    records = []
    start = time.perf_counter()
    while True:
        for job in next(rounds):
            t0 = time.perf_counter()
            if tracer is None:
                ok = runner.run(job)
            else:
                with tracer.span("bench.job"):
                    ok = runner.run(job)
            wall = time.perf_counter() - t0
            records.append({"key": runner.key(job), "K": job.K, "ok": ok, "wall_s": wall,
                            "template": runner.workload.round.index(job.template),
                            "traced": tracer is not None})
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return records, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark worker (started by run.py)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process", type=int, required=True,
                        help="number of this worker within the run")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started-ns", type=int, required=True,
                        help="time.monotonic_ns() when run.py started this process")
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    if not (SRC / "qenvelope" / "__init__.py").is_file():
        print(f"error: no qenvelope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qenvelope as qe
    from qenvelope import cli

    if Path(qe.__file__).resolve().parent != (SRC / "qenvelope").resolve():
        print(f"error: imported qenvelope from {qe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    env = environment_record()
    if env["OPENBLAS_NUM_THREADS"] != "1":
        print("warning: OPENBLAS_NUM_THREADS is not 1; threaded BLAS made cold 101x101 "
              "mat_exp calls take about 250 ms instead of 1.6 ms", file=sys.stderr)

    workload = wl.WORKLOADS[args.workload]
    prefix = f"p{args.process}"
    runner = Runner(qe, cli, workload, args.work, prefix)
    rounds = wl.job_sequence(workload, args.seed, args.process)
    runner.run(wl.warmup_job(workload))
    runner.arrays.clear()
    result = {"setup_s": (time.monotonic_ns() - args.started_ns) / 1e9, "env": env}

    if args.trace:
        records, _ = timed_loop(runner, rounds, args.seconds / 2)
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced, loop_s = timed_loop(runner, rounds, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(args.work / f"{prefix}.spans.npz")
        result["trace"] = tracer.summary()
        result["trace"]["csv_bytes"] = sum(
            (args.work / f"{r['key']}.csv").stat().st_size for r in traced)
        records += traced
    else:
        records, loop_s = timed_loop(runner, rounds, args.seconds)
    result.update(records=records, loop_s=loop_s, peak_rss_mb=peak_rss_mb())
    if runner.arrays:
        np.savez(args.work / f"{prefix}.arrays.npz", **runner.arrays)
    (args.work / f"{prefix}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference values for the benchmark, computed apart from the program.

Nothing here imports qenvelope.  For every experiment of a workload and every
strike in the pool it computes:

* the nonlinear reference curves, by a fine-step RK4 integration of
  u' = max(A_lo u, A_hi u) (upper) and u' = min(A_lo u, A_hi u) (lower), with
  A_lo, A_hi the endpoint rate matrices and one column per strike;
* linear references e^{t A_lambda} u from ``scipy.linalg.expm`` at the
  interval's ends and midpoint.

References are cached under ``.bench_build/oracle`` keyed by a hash of this
file and ``workloads.py``.  Rebuild them anew with

    python3 bench/oracle.py --rebuild
"""

import argparse
import hashlib
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse

import workloads as wl

HERE = Path(__file__).resolve().parent
CACHE_DIR = HERE.parent / ".bench_build" / "oracle"


def rate_matrix_problems(m: np.ndarray) -> list:
    """Rate-matrix conditions.  Row sums may carry the round-off of summing d
    entries of the size of the largest rate, and no more."""
    problems = []
    scale = max(float(np.abs(np.diagonal(m)).max()), 1.0)
    if (np.diagonal(m) > 0).any():
        problems.append("positive diagonal entry")
    off = m - np.diag(np.diagonal(m))
    if (off < 0).any():
        problems.append(f"negative off-diagonal entry ({off.min():.3g})")
    row_sum = float(np.abs(m.sum(axis=1)).max())
    if row_sum > m.shape[0] * np.finfo(float).eps * scale:
        problems.append(f"row sum {row_sum:.3g} against rates of {scale:.3g}")
    return problems


def rk4_envelope(a_lo, a_hi, u: np.ndarray, t: float, upper: bool) -> np.ndarray:
    """RK4 for u' = max (or min) of a_lo u and a_hi u, column by column.

    The step count keeps h times the Gershgorin bound on the spectral radius
    (2 max|a_ii|) at most 1, well inside RK4's stability interval.
    """
    radius = 2.0 * max(float(np.abs(m.diagonal()).max()) for m in (a_lo, a_hi))
    steps = max(1, math.ceil(t * radius))
    h = t / steps
    extremum = np.maximum if upper else np.minimum

    def rhs(v):
        return extremum(a_lo @ v, a_hi @ v)

    for _ in range(steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def _operator(m: np.ndarray):
    """Sparse storage for banded matrices, dense otherwise."""
    if np.count_nonzero(m) < m.size // 4:
        return scipy.sparse.csr_matrix(m)
    return m


def build(workload: wl.Workload) -> dict:
    """All references of one workload, as arrays named '<experiment>.<kind>'.

    Columns follow STRIKE_POOL; linear references stack the lambdas of
    ``workloads.reference_lambdas`` on the first axis.
    """
    d, delta = workload.d, workload.delta
    out = {}
    for exp in workload.experiments:
        lo, hi = wl.endpoints(exp, d, delta)
        for label, m in (("lambda_low", lo), ("lambda_high", hi)):
            problems = rate_matrix_problems(m)
            if problems:
                raise ValueError(f"{workload.name}/{exp.name}: {label} endpoint is not "
                                 f"a rate matrix: {'; '.join(problems)}")
        u = np.stack([wl.payoff(exp.payoff, d, delta, K) for K in wl.STRIKE_POOL], axis=1)
        a_lo, a_hi = _operator(lo), _operator(hi)
        out[f"{exp.name}.payoff"] = u
        out[f"{exp.name}.upper"] = rk4_envelope(a_lo, a_hi, u, wl.T, upper=True)
        out[f"{exp.name}.lower"] = rk4_envelope(a_lo, a_hi, u, wl.T, upper=False)
        q0, q = wl.matrix(exp.q0, d, delta), wl.matrix(exp.q, d, delta)
        out[f"{exp.name}.linear"] = np.stack([
            scipy.linalg.expm(wl.T * (q0 + lam * q)) @ u for lam in wl.reference_lambdas(exp)
        ])
    return out


def _cache_path(workload: wl.Workload) -> Path:
    digest = hashlib.sha256(workload.name.encode())
    for source in ("oracle.py", "workloads.py"):
        digest.update((HERE / source).read_bytes())
    return CACHE_DIR / f"{workload.name}-{digest.hexdigest()[:16]}.npz"


def load(workload: wl.Workload, rebuild: bool = False) -> dict:
    """Cached references of a workload, computed first if missing."""
    path = _cache_path(workload)
    if path.exists() and not rebuild:
        with np.load(path) as data:
            return {key: data[key] for key in data.files}
    refs = build(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npz")
    np.savez(tmp, **refs)
    os.replace(tmp, path)
    return refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rebuild", action="store_true",
                        help="recompute even when a cached copy exists")
    args = parser.parse_args(argv)
    for name in sorted(wl.WORKLOADS):
        start = time.perf_counter()
        load(wl.WORKLOADS[name], rebuild=args.rebuild)
        print(f"{name}: references ready in {time.perf_counter() - start:.2f} s "
              f"({_cache_path(wl.WORKLOADS[name]).relative_to(HERE.parent)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

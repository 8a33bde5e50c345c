"""Checks of the program's outputs against the oracle and the method's properties.

Each check returns a list of problems; an empty list means it passed.
"""

import csv

import numpy as np

import workloads as wl

REPLAY_TOL = 1e-9        # replayed control against the envelope it was taken from
LINEAR_TOL = 1e-8        # the program's linear references against scipy's expm
MONOTONE_SLACK = 1e-12   # round-off allowed between refinement levels
REFINED_TOL = 4 * wl.REFINE_TOL  # a converged refinement against the reference


def read_csv(path) -> dict:
    """Columns of a price CSV as float arrays, by header name."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, i] for i, name in enumerate(header)}


def _worst(diff: np.ndarray) -> str:
    i = int(np.argmax(diff))
    return f"{float(diff[i]):.3g} at state {i}"


def close_to(label: str, got, want, tol: float) -> list:
    diff = np.abs(np.asarray(got) - np.asarray(want))
    if not np.isfinite(diff).all() or diff.max() > tol:
        return [f"{label}: off the reference by {_worst(diff)} (tolerance {tol:.3g})"]
    return []


def band(upper, lower, payoff, tol: float = wl.CSV_TOL) -> list:
    """upper >= lower, and both inside [min payoff, max payoff]."""
    problems = []
    if (lower - upper).max() > tol:
        problems.append(f"lower above upper by {_worst(lower - upper)}")
    if (upper - payoff.max()).max() > tol:
        problems.append(f"upper above the largest payoff by {_worst(upper - payoff.max())}")
    if (payoff.min() - lower).max() > tol:
        problems.append(f"lower below the smallest payoff by {_worst(payoff.min() - lower)}")
    return problems


def inside_band(label: str, curve, upper, lower, tol: float) -> list:
    """A linear reference lies between the lower and upper curves."""
    problems = []
    if (curve - upper).max() > tol:
        problems.append(f"{label} above upper by {_worst(curve - upper)} (tolerance {tol:.3g})")
    if (lower - curve).max() > tol:
        problems.append(f"{label} below lower by {_worst(lower - curve)} (tolerance {tol:.3g})")
    return problems


def refinement(levels: np.ndarray, converged: bool, reference, tol: float = REFINED_TOL) -> list:
    """Refinement converged, the upper curve never decreased from one level
    to the next, and the final level is near the reference."""
    problems = [] if converged else ["refinement did not converge"]
    step = np.diff(levels, axis=0)
    if step.size and step.min() < -MONOTONE_SLACK:
        level, state = np.unravel_index(int(np.argmin(step)), step.shape)
        problems.append(f"upper curve fell by {-float(step.min()):.3g} at state {state} "
                        f"from level {level} to {level + 1}")
    return problems + close_to("refined upper", levels[-1], reference, tol)


def check_job(workload: wl.Workload, record: dict, refs: dict, csv_path, arrays) -> list:
    """Every check that applies to one job whose operations succeeded.

    Failed operations are counted by the caller; their outputs are not checked.
    """
    tpl = workload.round[record["template"]]
    exp = tpl.experiment
    col = wl.STRIKE_POOL.index(record["K"])
    ref = {kind: refs[f"{exp.name}.{kind}"] for kind in ("payoff", "upper", "lower", "linear")}
    ok = dict(zip(("validate", "price", "replay", "refine") if workload.name == "audit"
                  else ("price",), record["ok"]))
    problems = []
    if ok["price"]:
        out = read_csv(csv_path)
        upper, lower, payoff = out["upper"], out["lower"], out["payoff"]
        tol = tpl.tolerance()
        problems += close_to("payoff column", payoff, ref["payoff"][:, col], wl.CSV_TOL)
        problems += band(upper, lower, payoff)
        problems += close_to("upper", upper, ref["upper"][:, col], tol)
        problems += close_to("lower", lower, ref["lower"][:, col], tol)
        for lam, linear in zip(wl.reference_lambdas(exp), ref["linear"][:, :, col]):
            problems += inside_band(f"linear reference at lambda={lam:g}", linear,
                                    upper, lower, tol)
            column = f"ref_{lam:g}"
            if workload.name == "audit":
                problems += close_to(column, out[column], linear, LINEAR_TOL)
                problems += inside_band(column, out[column], upper, lower, tol)
        if ok.get("replay"):
            problems += close_to("replayed control", arrays[f"{record['key']}.replay"],
                                 upper, REPLAY_TOL)
    if ok.get("refine"):
        key = record["key"]
        problems += refinement(arrays[f"{key}.levels"], bool(arrays[f"{key}.converged"]),
                               ref["upper"][:, col])
    return problems

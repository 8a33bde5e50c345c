"""Command-line front end: validate generator configs, price claims,
compare methods, and inspect transition matrices.

Exit codes: 0 on success, 1 for a domain failure (invalid generator, failed
check, tolerance exceeded, unreadable data file), 2 for a usage or
configuration parse error.
"""

import argparse
import dataclasses
import math
import re
import sys
import time

import numpy as np

from .config import ConfigError, ExperimentConfig, _read_matrices, build_family, build_matrix, \
    build_payoff, load_config
from .generators import InvalidGeneratorError, InvalidRateMatrixError, _family, _interval, \
    check_pmp, write_matrix_file
from .linalg import _as_count, _as_real, euler_product_exp, mat_exp
from .pricing import _solver_config, compare_methods, price_bounds
from .semigroup import envelope

_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))

# A token that starts like a negative number, such as '-1' or '-1,0'.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _fmt(value) -> str:
    return format(float(value), ".9g")


def _add_config_flags(parser, keys=_CONFIG_KEYS):
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="flat key = value configuration file")
    for key in keys:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, default=None, metavar=key.upper())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qenvelope",
        description="Worst-case price curves for claims on a finite price grid "
                    "whose generator is only known up to an interval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="check the configured generator family and its maximum principle")
    _add_config_flags(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_price = sub.add_parser(
        "price", help="write upper/lower price curves (and references) as CSV")
    _add_config_flags(p_price)
    p_price.set_defaults(func=cmd_price)

    p_compare = sub.add_parser(
        "compare", help="price with two methods and compare the curves")
    _add_config_flags(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_expm = sub.add_parser(
        "expm", help="print e^{t q} (or its Euler-product approximation) with row sums")
    _add_config_flags(p_expm, keys=("d", "delta", "t", "q", "out"))
    p_expm.add_argument("--k", dest="expm_k", default=None, metavar="K",
                        help="use the (I + (t/k) q)^k approximation; omit or 0 for exact")
    p_expm.set_defaults(func=cmd_expm)

    return parser


def _euler_factors(value, label: str) -> int | None:
    """Euler factor count k: 0 selects exact exponentials (None), k >= 1 a
    k-factor product, and anything else is a ConfigError naming ``label``."""
    try:
        k = _as_count(int(value), label, 0)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value for {label}: {value!r} "
                          "(expected 0 or a positive integer)") from None
    return k or None


def _solver_kwargs(method: str, steps, n, k, label: str):
    """price_bounds' arguments for one run, checked before any run is priced."""
    kwargs = {"steps": steps, "n": n, "k": _euler_factors(k, label) if method == "nisio" else None}
    _solver_config(method, **kwargs)
    return kwargs


def _stiffness_warning(fam, t, steps, method, n=0, k=None):
    """Warn when h * max|q_ii| > 1, beyond which an explicit step of length
    h = t / steps, or a factor I + h q of a nisio run's k-factor Euler
    products, h = t / (2^n k), is no longer a convex combination of states."""
    if method in ("ode-euler", "ode-rk4"):
        count, halvings, what, flag = steps, 0, "step length", "--steps"
    elif method == "nisio" and k:
        count, halvings, what, flag = k, n, "Euler factor length", "--k"
    else:
        return
    _as_real(t, "horizon", "nonnegative")  # an infinite t has no step count to advise
    entries, _, own_state = fam._members.rows()
    rate = float(np.abs(entries[:, own_state]).max())
    h = math.ldexp(t / count, -halvings)  # 2**n is too large a float past n = 1023
    if h * rate > 1.0:
        least = np.ceil(math.ldexp(t * rate, -halvings))  # prints as inf if t * rate overflows
        print(f"warning: {what} {h:g} times the largest exit rate {rate:g} is "
              f"{h * rate:.3g} > 1; the {method} iteration may lose monotonicity "
              f"(use {flag} > {least:.15g})", file=sys.stderr)


def cmd_validate(cfg, args) -> int:
    fam = build_family(cfg)  # refuses a family with an invalid member
    rows = [(f"member[{idx}] rate-matrix conditions", True, "") for idx in range(fam.n_members)]
    report = check_pmp(fam, trials=100, rng_seed=cfg.seed)
    for cat in report.categories:
        detail = "" if cat.passed else cat.failures[0].detail
        rows.append((f"maximum principle: {cat.name} ({cat.checks} checks)",
                     cat.passed, detail))
    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        line = f"{name:<{width}}  {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        print(line)
    return 0 if all(ok for _, ok, _ in rows) else 1


def _write_csv(path, payoff, curves) -> None:
    """Write ``state_index``, ``x`` and ``payoff``, then one column per
    ``(name, values)`` pair of ``curves``, in order."""
    columns = [("payoff", payoff.values)] + list(curves)
    cells = [[str(i) for i in range(payoff.grid.dim)], [_fmt(x) for x in payoff.grid.points]]
    cells += [[_fmt(v) for v in values] for _, values in columns]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(["state_index", "x"] + [name for name, _ in columns]) + "\n")
        for row in zip(*cells):
            fh.write(",".join(row) + "\n")


def _reference_family(q0, q, lam):
    """The one-member family of q0 + lam q, for q0 and q of one form, refused
    if any entry is not finite."""
    with np.errstate(over="ignore"):
        ref = q0 + lam * q
    if not np.isfinite(ref).all():
        raise ValueError(f"reference lambda={lam:g} with non-finite entries")
    return _family([ref])


def cmd_price(cfg, args) -> int:
    start = time.perf_counter()
    lambdas = cfg.reference_lambdas()
    q0, q = _read_matrices(cfg)
    fam = _interval(q0, q, cfg.lambda_low, cfg.lambda_high)
    payoff = build_payoff(cfg)
    refs = [(lam, _reference_family(q0, q, lam)) for lam in lambdas]
    kwargs = _solver_kwargs(cfg.method, cfg.steps, cfg.n, cfg.k, "'k'")
    _stiffness_warning(fam, cfg.t, method=cfg.method, **kwargs)
    bounds = price_bounds(fam, payoff, cfg.t, cfg.method, **kwargs)
    curves = [("upper", bounds.upper), ("lower", bounds.lower)]
    # pricing.linear_reference of q0 + lam q, kept in the form of q0 and q.
    curves += [(f"ref_{lam:g}", envelope(ref, cfg.t, 0, payoff.values)) for lam, ref in refs]

    out = cfg.out or "price_bounds.csv"
    _write_csv(out, payoff, curves)
    for name, values in [("payoff", payoff.values)] + curves:
        print(f"{name}: min={_fmt(values.min())}, max={_fmt(values.max())}")
    print(f"wrote {out} ({cfg.d} states) in {time.perf_counter() - start:.3f} s")
    return 0


def cmd_compare(cfg, args) -> int:
    start = time.perf_counter()
    tol = _as_real(cfg.tol, "tolerance", "nonnegative")
    fam = build_family(cfg)
    payoff = build_payoff(cfg)
    plans = []
    for method, steps, n, k, label in ((cfg.method, cfg.steps, cfg.n, cfg.k, "'k'"),
                                       (cfg.method2, cfg.steps2, cfg.n2, cfg.k2, "'k2'")):
        kwargs = _solver_kwargs(method, steps, n, k, label)
        _stiffness_warning(fam, cfg.t, method=method, **kwargs)
        plans.append((method, kwargs))
    runs = [price_bounds(fam, payoff, cfg.t, method, **kwargs) for method, kwargs in plans]
    report = compare_methods(runs[0], runs[1])

    out = cfg.out or "compare.csv"
    _write_csv(out, payoff, [
        ("upper_a", runs[0].upper), ("lower_a", runs[0].lower),
        ("upper_b", runs[1].upper), ("lower_b", runs[1].lower),
        ("diff_upper", report.diff_upper), ("diff_lower", report.diff_lower),
    ])

    def describe(bounds):
        items = ", ".join(f"{key}={val}" for key, val in bounds.config.items()
                          if key not in ("t", "method"))
        return f"{bounds.method}({items})"

    print(f"a = {describe(runs[0])}")
    print(f"b = {describe(runs[1])}")
    print(f"max |upper_a - upper_b| = {_fmt(report.max_abs_diff_upper)}")
    print(f"max |lower_a - lower_b| = {_fmt(report.max_abs_diff_lower)}")
    ok = report.max_abs_diff <= tol
    print(f"tolerance {tol:g}: {'within' if ok else 'EXCEEDED'}")
    print(f"wrote {out} in {time.perf_counter() - start:.3f} s")
    return 0 if ok else 1


def cmd_expm(cfg, args) -> int:
    q = build_matrix(cfg.q, cfg.d, cfg.delta)
    k = _euler_factors(args.expm_k or 0, "'--k'")
    if k is None:
        result = mat_exp(q, cfg.t)
        mode = "exact"
    else:
        result = euler_product_exp(q, cfg.t, k)
        mode = f"euler-product(k={k})"
    print(f"d={q.shape[0]} t={cfg.t:g} mode={mode}")
    for row in result:
        print("  ".join(_fmt(v) for v in row) + "  | row_sum=" + _fmt(row.sum()))
    if cfg.out:
        write_matrix_file(cfg.out, result)
        print(f"wrote {cfg.out}")
    return 0


def _join_negative_values(argv: list) -> list:
    """``['--refs', '-1,0']`` -> ``['--refs=-1,0']``.

    argparse reads a dash-led token as an option unless it is a plain
    negative number.  Every long option of the CLI but ``--help`` takes a
    value, so a token after a bare ``--flag`` that starts like a negative
    number is that flag's value.
    """
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and prev not in ("--", "--help") and "=" not in prev
                and _NEGATIVE_VALUE.match(token)):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    overrides = {key: getattr(args, key) for key in _CONFIG_KEYS if hasattr(args, key)}
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidGeneratorError, InvalidRateMatrixError, FloatingPointError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

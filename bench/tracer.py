"""Spans around the calls into qenvelope's public functions, from outside it.

The program imports functions by name (``from .generators import
apply_q_operator``), so a wrapper must replace each function in every module
namespace that holds it, not only where it is defined.  :meth:`Tracer.install`
does that for every public function and public method of the layers, and
:meth:`Tracer.uninstall` puts the originals back.

A span is (name, start, end, parent).  Spans stay in memory until
:meth:`Tracer.write`; :meth:`Tracer.summary` turns them into per-layer
counts, busy time and self time.  A layer's self time is its spans' durations
minus the parts covered by their child spans.
"""

import array
import collections
import contextlib
import functools
import importlib
import inspect
import math
import time

import numpy as np

PACKAGE = "qenvelope"
LAYERS = ("cli", "config", "pricing", "ode", "semigroup", "generators", "linalg")


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _mat_exp_flop(args, kwargs, result):
    """2n^3 per product: mat_exp's series order plus its squarings, chosen as
    mat_exp chooses them, from its own constants and norm (unwrapped, so the
    count adds no span)."""
    linalg = importlib.import_module(f"{PACKAGE}.linalg")
    a = np.asarray(args[0])
    t = _arg(args, kwargs, 1, "t", 1.0)
    norm = inspect.unwrap(linalg.op_norm_inf)(t * a)
    squarings = 0
    if norm > linalg._EXP_SCALE_THRESHOLD:
        squarings = math.ceil(math.log2(norm / linalg._EXP_SCALE_THRESHOLD))
    return "linalg.mat_exp.flop", 2.0 * a.shape[0]**3 * (linalg._EXP_SERIES_ORDER + squarings)


def _ode_steps(args, kwargs, result):
    return "ode.steps", _arg(args, kwargs, 3, "steps")


def _envelope_steps(args, kwargs, result):
    return "semigroup.envelope.steps", 2 ** int(_arg(args, kwargs, 2, "n"))


def _control_steps(args, kwargs, result):
    return "semigroup.control_evaluate.steps", len(_arg(args, kwargs, 1, "control").steps)


def _pmp_checks(args, kwargs, result):
    return "generators.check_pmp.checks", result.checks_run


def _refined_levels(args, kwargs, result):
    return "semigroup.envelope_refined.levels", len(result[1].levels)


# Counters taken from a call's arguments or result, by span name.
_COUNTERS = {
    "linalg.mat_exp": _mat_exp_flop,
    "ode.solve_euler": _ode_steps,
    "ode.solve_rk4": _ode_steps,
    "semigroup.envelope": _envelope_steps,
    "semigroup.control_evaluate": _control_steps,
    "generators.check_pmp": _pmp_checks,
    "semigroup.envelope_refined": _refined_levels,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        # One entry per span, in opening order; parent is a span index or -1.
        self._name_id = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("q")
        self.counts = collections.Counter()
        self.flow_cache_bytes = 0
        self._stack = []
        self._patches = []

    def _open(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._start)
        self._name_id.append(self._ids[name])
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        is_flows = name == "generators.flows"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                key, value = counter(args, kwargs, result)
                self.counts[key] += value
            if is_flows and len(self._start) > index + 1:
                self._note_flow_cache(args[0])
            return result

        return wrapper

    def _note_flow_cache(self, family) -> None:
        """Size of the arrays a family's flow cache holds, after a call to
        GeneratorFamily.flows that computed flows (one with child spans)."""
        held = getattr(family, "_flow_cache", {})
        size = sum(fl.matrix.nbytes + fl.offset.nbytes
                   for flows in held.values() for fl in flows)
        self.flow_cache_bytes = max(self.flow_cache_bytes, size)

    def install(self) -> None:
        """Replace every public function and method of the layers by a span
        recorder, in every module namespace of the package that holds it."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrap(f"{layer}.{meth}", fn))
        namespaces = [importlib.import_module(PACKAGE)] + list(modules.values())
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self._name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=float).copy(),
            "end": np.frombuffer(self._end, dtype=float).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, busy (inclusive) seconds and self seconds;
        per layer: self seconds.  Also the affine_flow calls made by
        GeneratorFamily.flows, i.e. member flows filled into its cache."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], duration[has_parent])
        own = duration - child
        by_name = {}
        for i, name in enumerate(a["names"]):
            mask = a["name_id"] == i
            by_name[str(name)] = {"calls": int(mask.sum()), "s": float(duration[mask].sum()),
                                  "self_s": float(own[mask].sum())}
        layer_self = collections.Counter()
        for name, row in by_name.items():
            layer_self[name.split(".")[0]] += row["self_s"]
        ids = {str(n): i for i, n in enumerate(a["names"])}
        parent_name = np.where(has_parent, a["name_id"][a["parent"]], -1)
        is_fill = ((a["name_id"] == ids.get("linalg.affine_flow", -1))
                   & (parent_name == ids.get("generators.flows", -2)))
        filling_calls = np.unique(a["parent"][is_fill])
        return {"by_name": by_name, "layer_self": dict(layer_self),
                "fills": int(is_fill.sum()), "fill_calls": int(filling_calls.size),
                "fill_s": float(duration[filling_calls].sum()),
                "counts": dict(self.counts), "flow_cache_bytes": self.flow_cache_bytes}


# Span names reported with their calls per job, and with their busy seconds.
_COUNTED = ("generators.apply_q_operator", "generators.flows", "linalg.mat_exp",
            "linalg.affine_flow", "linalg.euler_product_exp", "semigroup.envelope",
            "pricing.price_bounds", "pricing.linear_reference", "config.build_matrix",
            "cli.main")
_TIMED = ("ode.solve_euler", "ode.solve_rk4", "generators.apply_q_operator",
          "generators.check_pmp", "linalg.mat_exp", "linalg.affine_flow",
          "linalg.euler_product_exp", "semigroup.envelope", "semigroup.envelope_refined",
          "semigroup.extract_worst_case_control", "semigroup.control_evaluate",
          "pricing.price_bounds", "pricing.linear_reference", "config.build_family")


def merge(summaries: list) -> dict:
    """One summary for several traced processes: sums, except the flow cache,
    whose largest size is kept."""

    def add(a, b):
        if isinstance(a, dict) or isinstance(b, dict):
            a, b = a or {}, b or {}
            return {key: add(a.get(key), b.get(key)) for key in a.keys() | b.keys()}
        return (a or 0) + (b or 0)

    merged = functools.reduce(add, summaries)
    merged["flow_cache_bytes"] = max(s["flow_cache_bytes"] for s in summaries)
    return merged


def per_layer(summary: dict, jobs: int) -> dict:
    """Per-layer metrics of a traced run: counts and seconds are per job."""
    by_name, counts = summary["by_name"], summary["counts"]

    def total(name, field):
        return by_name.get(name, {}).get(field, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {}
    for name in _COUNTED:
        out[f"{name}.calls"] = total(name, "calls") / jobs
    for name in _TIMED:
        out[f"{name}.s"] = total(name, "s") / jobs
    ode_s = total("ode.solve_euler", "s") + total("ode.solve_rk4", "s")
    out["ode.steps"] = counts.get("ode.steps", 0) / jobs
    out["ode.step_us"] = ratio(ode_s, counts.get("ode.steps", 0), 1e6)
    out["generators.apply_q_operator.us_per_call"] = ratio(
        total("generators.apply_q_operator", "s"),
        total("generators.apply_q_operator", "calls"), 1e6)
    out["generators.check_pmp.checks"] = counts.get("generators.check_pmp.checks", 0) / jobs
    out["generators.flows.fills"] = summary["fills"] / jobs
    out["generators.flows.hit_ratio"] = ratio(
        total("generators.flows", "calls") - summary["fill_calls"],
        total("generators.flows", "calls"))
    out["generators.flows.fill_s"] = summary["fill_s"] / jobs
    out["generators.flow_cache_mb"] = summary["flow_cache_bytes"] / 2**20
    flop = counts.get("linalg.mat_exp.flop", 0.0)
    out["linalg.mat_exp.gflop"] = flop / 1e9 / jobs
    out["linalg.mat_exp.gflop_per_s"] = ratio(flop / 1e9, total("linalg.mat_exp", "s"))
    steps = counts.get("semigroup.envelope.steps", 0)
    out["semigroup.envelope.steps"] = steps / jobs
    out["semigroup.envelope.step_us"] = ratio(total("semigroup.envelope", "self_s"), steps, 1e6)
    out["semigroup.envelope_refined.levels"] = (
        counts.get("semigroup.envelope_refined.levels", 0) / jobs)
    out["semigroup.control_evaluate.steps"] = (
        counts.get("semigroup.control_evaluate.steps", 0) / jobs)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary["layer_self"].get(layer, 0.0) / jobs
    return out

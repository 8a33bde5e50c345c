"""Experiment configuration: defaults, flat key = value files, and builders.

A configuration file is a sequence of ``key = value`` lines with ``#``
comments; every key is optional and can be overridden by the command-line
flag of the same name.  The defaults reproduce the drift-uncertainty
butterfly experiment on the 101-point grid over [0, 10].
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .generators import (
    StateGrid,
    build_drift,
    build_laplacian,
    interval_generator,
    read_matrix_file,
    read_vector_file,
)
from .pricing import payoff_bull, payoff_butterfly, payoff_custom


class ConfigError(ValueError):
    """A configuration file or flag value that cannot be used."""


@dataclass
class ExperimentConfig:
    d: int = 101
    delta: float = 0.1
    t: float = 1.0
    q0: str = "laplacian"
    q: str = "drift"
    lambda_low: float = -1.0
    lambda_high: float = 1.0
    payoff: str = "butterfly"
    K: float = 4.0
    L: float = 5.0
    method: str = "ode-euler"
    steps: int = 1000
    n: int = 10
    k: int = 10
    refs: str = ""
    out: str = ""
    seed: int = 0
    tol: float = 5e-2
    method2: str = "nisio"
    steps2: int = 1000
    n2: int = 10
    k2: int = 10

    def reference_lambdas(self) -> list:
        """The ``refs`` entry parsed as a comma-separated list of floats."""
        text = self.refs.strip()
        if not text:
            return []
        try:
            return [float(tok) for tok in text.split(",")]
        except ValueError:
            raise ConfigError(f"invalid value for 'refs': {self.refs!r} "
                              "(expected comma-separated numbers)") from None


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def parse_config_file(path) -> dict:
    """Read a flat ``key = value`` file into a raw string mapping."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from None
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: missing key before '='")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key '{key}'")
        if not value:
            raise ConfigError(f"{path}:{lineno}: missing value for '{key}'")
        raw[key] = value
    return raw


def _coerce(key: str, value):
    target = _FIELD_TYPES[key]
    try:
        return target(value)
    except (TypeError, ValueError):
        kind = "an integer" if target is int else "a number"
        raise ConfigError(f"invalid value for '{key}': {value!r} (expected {kind})") from None


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Defaults, then the optional file, then non-None overrides (flags win)."""
    merged = {}
    if path is not None:
        merged.update(parse_config_file(path))
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown configuration key '{key}'")
            merged[key] = value
    cfg = ExperimentConfig()
    for key, value in merged.items():
        setattr(cfg, key, _coerce(key, value))
    return cfg


def build_matrix(spec: str, d: int, delta: float) -> np.ndarray:
    """Materialise a matrix from a builder spec.

    Accepted forms: ``laplacian``/``drift``/``zero`` (using the configured
    dimension and spacing), ``laplacian:<d>:<delta>`` / ``drift:<d>:<delta>``
    / ``zero:<d>`` with explicit sizes, or ``file:<path>`` for the plain-text
    matrix format.
    """
    name, _, rest = spec.partition(":")
    if name == "file":
        if not rest:
            raise ConfigError("matrix builder 'file' needs a path, e.g. file:q.txt")
        return read_matrix_file(rest)
    if name in ("laplacian", "drift"):
        if rest:
            parts = rest.split(":")
            if len(parts) != 2:
                raise ConfigError(f"matrix builder {spec!r} must look like {name}:<d>:<delta>")
            try:
                d, delta = int(parts[0]), float(parts[1])
            except ValueError:
                raise ConfigError(f"non-numeric size in matrix builder {spec!r}") from None
        return build_laplacian(d, delta) if name == "laplacian" else build_drift(d, delta)
    if name == "zero":
        if rest:
            try:
                d = int(rest)
            except ValueError:
                raise ConfigError(f"non-numeric size in matrix builder {spec!r}") from None
        return np.zeros((d, d))
    raise ConfigError(f"unknown matrix builder {spec!r} "
                      "(expected laplacian | drift | zero | file:<path>)")


def build_matrices(cfg: ExperimentConfig) -> tuple:
    """The configured ``(q0, q)``, each checked against the configured grid."""
    d = build_grid(cfg).dim
    q0 = build_matrix(cfg.q0, d, cfg.delta)
    q = build_matrix(cfg.q, d, cfg.delta)
    for label, m in (("q0", q0), ("q", q)):
        if m.shape != (d, d):
            raise ValueError(f"{label} has dimension {m.shape[0]}, "
                             f"but the configured grid has d={d}")
    return q0, q


def build_family(cfg: ExperimentConfig, direction: str = "upper"):
    """The endpoint family for the configured uncertainty interval."""
    q0, q = build_matrices(cfg)
    return interval_generator(q0, q, cfg.lambda_low, cfg.lambda_high, direction=direction)


def build_grid(cfg: ExperimentConfig) -> StateGrid:
    return StateGrid(cfg.d, cfg.delta)


def build_payoff(cfg: ExperimentConfig):
    """The configured payoff on the configured grid."""
    grid = build_grid(cfg)
    name, _, rest = cfg.payoff.partition(":")
    if name == "butterfly":
        return payoff_butterfly(grid, cfg.K, cfg.L)
    if name == "bull":
        return payoff_bull(grid, cfg.K, cfg.L)
    if name == "file":
        if not rest:
            raise ConfigError("payoff builder 'file' needs a path, e.g. file:payoff.txt")
        return payoff_custom(grid, read_vector_file(rest))
    raise ConfigError(f"unknown payoff {cfg.payoff!r} "
                      "(expected butterfly | bull | file:<path>)")

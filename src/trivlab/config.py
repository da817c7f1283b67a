"""Run configuration: a single YAML file drives every command.

The schema is strict: unknown keys anywhere in the document are rejected so
that typos cannot silently fall back to defaults.  parse_config(emit_config(c))
returns a structurally equal config.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import yaml

from .errors import ConfigError
from .structure_functions import LrcStructure, SrcCorrelator

__all__ = [
    "ModelConfig",
    "ToleranceConfig",
    "OutputConfig",
    "RunConfig",
    "parse_config",
    "parse_config_file",
    "config_mapping",
    "emit_config",
    "resolve_threads",
]

THREADS_ENV_VAR = "TRIVLAB_THREADS"


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "src"
    c0: float = 0.0
    a: float = 0.5
    atoms: tuple[tuple[float, float], ...] = ((1.0, 1.0),)

    def build(self):
        """Instantiate the structure-function model this block describes."""
        if self.kind == "src":
            return SrcCorrelator(c0=self.c0, atoms=self.atoms)
        return LrcStructure(A=self.a, atoms=self.atoms)


@dataclass(frozen=True)
class ToleranceConfig:
    grad_tol: float = 1e-10
    dedupe_tol: float = 1e-5
    bl_resolution: Optional[float] = None


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "."
    prefix: str = "run"

    def path(self, suffix: str) -> str:
        return os.path.join(self.directory, f"{self.prefix}_{suffix}")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    mu: float = 3.0
    n: int = 50
    k: int = 4096
    trials: int = 10
    starts: int = 4
    seed: int = 0
    n_grid: tuple[int, ...] = (25, 50, 100)
    samples: int = 10_000
    epsilon: float = 0.2
    threads: Optional[int] = None
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


def _require_mapping(obj, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(data: dict, allowed, where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _is_finite_number(val) -> bool:
    # YAML's .nan and .inf parse to floats; no setting takes them
    return not isinstance(val, bool) and isinstance(val, (int, float)) and math.isfinite(val)


def _as_float(data: dict, key: str, default, where: str) -> float:
    val = data.get(key, default)
    if not _is_finite_number(val):
        raise ConfigError(f"{where}.{key} must be a finite number")
    return float(val)


def _as_int(data: dict, key: str, default, where: str) -> int:
    val = data.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    return int(val)


def _parse_model(data) -> ModelConfig:
    data = _require_mapping(data, "model")
    _reject_unknown(data, ("kind", "c0", "a", "atoms"), "model")
    kind = data.get("kind", "src")
    if kind not in ("src", "lrc"):
        raise ConfigError(f"model.kind must be 'src' or 'lrc', got {kind!r}")
    raw_atoms = data.get("atoms", [[1.0, 1.0]])
    if not isinstance(raw_atoms, list):
        raise ConfigError("model.atoms must be a list of [weight, scale] pairs")
    atoms = []
    for i, pair in enumerate(raw_atoms):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"model.atoms[{i}] must be a [weight, scale] pair")
        w, t = pair
        for name, v in (("weight", w), ("scale", t)):
            if not _is_finite_number(v):
                raise ConfigError(f"model.atoms[{i}] {name} must be a finite number")
        if w <= 0.0 or t <= 0.0:
            raise ConfigError(f"model.atoms[{i}] must have positive weight and scale")
        atoms.append((float(w), float(t)))
    cfg = ModelConfig(
        kind=kind,
        c0=_as_float(data, "c0", 0.0, "model"),
        a=_as_float(data, "a", 0.5, "model"),
        atoms=tuple(atoms),
    )
    if cfg.c0 < 0.0:
        raise ConfigError("model.c0 must be nonnegative")
    if kind == "lrc" and cfg.a < 0.0:
        raise ConfigError("model.a must be nonnegative")
    try:
        cfg.build()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model block is invalid: {exc}") from exc
    return cfg


def _parse_tolerances(data) -> ToleranceConfig:
    data = _require_mapping(data, "tolerances")
    _reject_unknown(data, ("grad_tol", "dedupe_tol", "bl_resolution"), "tolerances")
    res = data.get("bl_resolution", None)
    if res is not None:
        if not _is_finite_number(res) or res <= 0.0:
            raise ConfigError("tolerances.bl_resolution must be a positive finite number or null")
        res = float(res)
    cfg = ToleranceConfig(
        grad_tol=_as_float(data, "grad_tol", 1e-10, "tolerances"),
        dedupe_tol=_as_float(data, "dedupe_tol", 1e-5, "tolerances"),
        bl_resolution=res,
    )
    if cfg.grad_tol <= 0.0:
        raise ConfigError("tolerances.grad_tol must be positive")
    if cfg.dedupe_tol <= 0.0:
        raise ConfigError("tolerances.dedupe_tol must be positive")
    return cfg


def _parse_output(data) -> OutputConfig:
    data = _require_mapping(data, "output")
    _reject_unknown(data, ("directory", "prefix"), "output")
    directory = data.get("directory", ".")
    prefix = data.get("prefix", "run")
    for name, v in (("directory", directory), ("prefix", prefix)):
        if not isinstance(v, str) or not v:
            raise ConfigError(f"output.{name} must be a nonempty string")
    return OutputConfig(directory=directory, prefix=prefix)


def parse_config(text: str) -> RunConfig:
    """Parse a YAML document into a validated RunConfig."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    data = _require_mapping(data, "config")
    allowed = (
        "model",
        "mu",
        "n",
        "k",
        "trials",
        "starts",
        "seed",
        "n_grid",
        "samples",
        "epsilon",
        "threads",
        "tolerances",
        "output",
    )
    _reject_unknown(data, allowed, "config")

    raw_grid = data.get("n_grid", [25, 50, 100])
    if not isinstance(raw_grid, list) or not raw_grid:
        raise ConfigError("n_grid must be a nonempty list of integers")
    grid = []
    for i, v in enumerate(raw_grid):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ConfigError(f"n_grid[{i}] must be a positive integer")
        grid.append(int(v))

    threads = data.get("threads", None)
    if threads is not None:
        if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
            raise ConfigError("threads must be a positive integer or null")

    cfg = RunConfig(
        model=_parse_model(data.get("model")),
        mu=_as_float(data, "mu", 3.0, "config"),
        n=_as_int(data, "n", 50, "config"),
        k=_as_int(data, "k", 4096, "config"),
        trials=_as_int(data, "trials", 10, "config"),
        starts=_as_int(data, "starts", 4, "config"),
        seed=_as_int(data, "seed", 0, "config"),
        n_grid=tuple(grid),
        samples=_as_int(data, "samples", 10_000, "config"),
        epsilon=_as_float(data, "epsilon", 0.2, "config"),
        threads=threads,
        tolerances=_parse_tolerances(data.get("tolerances")),
        output=_parse_output(data.get("output")),
    )
    if cfg.mu <= 0.0:
        raise ConfigError("mu must be positive")
    if cfg.n < 1:
        raise ConfigError("n must be a positive integer")
    if cfg.k < 0:
        raise ConfigError("k must be nonnegative")
    if cfg.k == 0 and cfg.model.atoms:
        raise ConfigError("k must be at least 1 when the model has atoms")
    if cfg.trials < 1:
        raise ConfigError("trials must be a positive integer")
    if cfg.starts < 1:
        raise ConfigError("starts must be a positive integer")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg.samples < 1:
        raise ConfigError("samples must be a positive integer")
    return cfg


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def config_mapping(cfg: RunConfig) -> dict:
    """Every field of a RunConfig as plain YAML- and JSON-ready data."""
    return {
        "model": {
            "kind": cfg.model.kind,
            "c0": cfg.model.c0,
            "a": cfg.model.a,
            "atoms": [list(pair) for pair in cfg.model.atoms],
        },
        "mu": cfg.mu,
        "n": cfg.n,
        "k": cfg.k,
        "trials": cfg.trials,
        "starts": cfg.starts,
        "seed": cfg.seed,
        "n_grid": list(cfg.n_grid),
        "samples": cfg.samples,
        "epsilon": cfg.epsilon,
        "threads": cfg.threads,
        "tolerances": {
            "grad_tol": cfg.tolerances.grad_tol,
            "dedupe_tol": cfg.tolerances.dedupe_tol,
            "bl_resolution": cfg.tolerances.bl_resolution,
        },
        "output": {
            "directory": cfg.output.directory,
            "prefix": cfg.output.prefix,
        },
    }


def emit_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig to YAML; parse_config inverts this exactly."""
    return yaml.safe_dump(config_mapping(cfg), sort_keys=False)


def resolve_threads(configured: Optional[int]) -> int:
    """Worker count: environment override, then config, then the machine."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            val = int(env)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from exc
        if val < 1:
            raise ConfigError(f"{THREADS_ENV_VAR} must be positive, got {val}")
        return val
    if configured is not None:
        return configured
    return os.cpu_count() or 1

"""Command-line front end: one YAML config file drives every command.

Exit codes are a stable contract: 0 success, 1 runtime failure, 2 config
error.  All numeric CSV cells use the shortest decimal that round-trips,
and rows are written in trial order with plain "\n" line endings, so a
re-run with the same config reproduces the same bytes (wall_time_ms is
the one honest exception).

A command imports what it runs: ``experiments`` (the Newton searches)
loads inside ``simulate`` and ``census``, ``verification`` inside
``verify``, and scipy inside the numerical functions that call it, so
``predict`` starts without scipy.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

import click

from .complexity import (
    CRT_MC_MIN_SAMPLES,
    expected_crt_mc,
    predictions,
    replica_residuals,
    replica_solve,
)
from .config import RunConfig, config_mapping, emit_config, parse_config_file
from .errors import ConfigError, TrivlabError
from .lrc_hessian import BORDERED_MIN_N, EDGE_MIN_TRIALS, edge_tail

TRIALS_CSV_HEADER = (
    "trial_id,seed,N,K,mu,model,energy_per_n,radius_per_sqrt_n,"
    "lambda_min,bl_distance,n_critical_points,wall_time_ms"
)
CENSUS_CSV_HEADER = (
    "trial_id,seed,point_id,value_per_n,radius_per_sqrt_n,grad_norm,index,lambda_min,corroborated"
)
COUNT_CSV_HEADER = "N,log_e_crt,se,e_crt"
EDGE_CSV_HEADER = "N,trials,epsilon,fraction"


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: str, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_config(path: str, seed) -> RunConfig:
    cfg = parse_config_file(path)
    if seed is not None:
        if seed < 0:
            raise ConfigError("--seed must be nonnegative")
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _guard(fn):
    """Map exceptions to the exit-code contract."""

    def wrapped(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except (TrivlabError, OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


config_option = click.option(
    "--config", "config_path", required=True, type=click.Path(), help="YAML run configuration."
)
seed_option = click.option(
    "--seed", type=int, default=None, help="Override the config seed for this run."
)


@click.group()
def main():
    """Landscape-trivialization laboratory for confined Gaussian fields."""


def _report_payload(report) -> dict:
    payload = {}
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if value is None:
            continue  # below threshold the maximizer fields do not exist
        payload[f.name] = value
    return payload


@main.command()
@config_option
@seed_option
@_guard
def predict(config_path, seed):
    """Closed-form predictions for the configured model and mu."""
    cfg = _load_config(config_path, seed)
    report = predictions(cfg.model.build(), cfg.mu)
    payload = _report_payload(report)
    for key in sorted(payload):
        click.echo(f"{key}: {_fmt(payload[key])}")
    path = cfg.output.path("predict.json")
    _write_json(path, payload)
    click.echo(f"wrote {path}")


def _trial_rows(records) -> list[str]:
    rows = []
    for r in records:
        if r.status != "ok":
            continue
        rows.append(
            ",".join(
                [
                    str(r.trial_id),
                    str(r.seed),
                    str(r.n),
                    str(r.k),
                    _fmt(r.mu),
                    r.model_id,
                    _fmt(r.energy_per_n),
                    _fmt(r.radius_per_sqrt_n),
                    _fmt(r.lambda_min),
                    _fmt(r.bl_to_prediction),
                    str(len(r.census)),
                    _fmt(r.wall_time_ms),
                ]
            )
        )
    return rows


def _quote_csv(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def _write_failures(cfg: RunConfig, records) -> None:
    """Failed trials keep the numeric CSV clean; they land in a side file
    with an explicit status column (plus the summary JSON)."""
    failed = [r for r in records if r.status != "ok"]
    if not failed:
        return
    rows = ["trial_id,seed,status"]
    rows += [f"{r.trial_id},{r.seed},{_quote_csv(r.status)}" for r in failed]
    path = cfg.output.path("failures.csv")
    _write_text(path, "\n".join(rows) + "\n")
    click.echo(f"wrote {path} ({len(failed)} failed trials)")


def _write_trials_outputs(cfg: RunConfig, records, csv_name: str, json_name: str) -> dict:
    from .experiments import aggregate

    report = predictions(cfg.model.build(), cfg.mu)
    summary = aggregate(records, report)
    summary["config"] = config_mapping(cfg)
    csv_path = cfg.output.path(csv_name)
    _write_text(csv_path, "\n".join([TRIALS_CSV_HEADER] + _trial_rows(records)) + "\n")
    json_path = cfg.output.path(json_name)
    _write_json(json_path, summary)
    _write_failures(cfg, records)
    click.echo(f"wrote {csv_path}")
    click.echo(f"wrote {json_path}")
    return summary


@main.command()
@config_option
@seed_option
@_guard
def simulate(config_path, seed):
    """Minimization trials: trials CSV plus a summary JSON."""
    from .experiments import run_trials

    cfg = _load_config(config_path, seed)
    records = run_trials(cfg)
    summary = _write_trials_outputs(cfg, records, "trials.csv", "summary.json")
    for name, check in summary.get("checks", {}).items():
        status = "pass" if check["pass"] else "FAIL"
        click.echo(
            f"{name}: mean err {check['abs_error']:.4g} vs tol {check['tolerance']:.3g} [{status}]"
        )


@main.command()
@config_option
@seed_option
@_guard
def census(config_path, seed):
    """Critical-point census trials: per-point CSV."""
    from .experiments import CENSUS_MIN_STARTS, run_census_trials

    cfg = _load_config(config_path, seed)
    if cfg.starts < CENSUS_MIN_STARTS:
        raise ConfigError(f"census needs starts of at least {CENSUS_MIN_STARTS}")
    records = run_census_trials(cfg)
    rows = [CENSUS_CSV_HEADER]
    for r in records:
        if r.status != "ok":
            continue
        for j, p in enumerate(r.census):
            radius = float(math.sqrt(float(p.x @ p.x) / r.n))
            rows.append(
                ",".join(
                    [
                        str(r.trial_id),
                        str(r.seed),
                        str(j),
                        _fmt(p.value_per_n),
                        _fmt(radius),
                        _fmt(p.grad_norm),
                        str(p.index),
                        _fmt(p.lambda_min),
                        str(int(p.corroborated)),
                    ]
                )
            )
    path = cfg.output.path("census.csv")
    _write_text(path, "\n".join(rows) + "\n")
    _write_failures(cfg, records)
    sizes = [len(r.census) for r in records if r.status == "ok"]
    mean_size = sum(sizes) / len(sizes) if sizes else float("nan")
    click.echo(f"wrote {path}")
    click.echo(f"trials ok: {len(sizes)}/{len(records)}, mean census size {_fmt(mean_size)}")


@main.command()
@config_option
@seed_option
@_guard
def count(config_path, seed):
    """Expected-critical-point table over the configured N grid."""
    cfg = _load_config(config_path, seed)
    if cfg.samples < CRT_MC_MIN_SAMPLES:
        raise ConfigError(f"count needs samples of at least {CRT_MC_MIN_SAMPLES}")
    model = cfg.model.build()
    rows = [COUNT_CSV_HEADER]
    for i, n in enumerate(cfg.n_grid):
        est = expected_crt_mc(model, cfg.mu, n, cfg.samples, cfg.seed + i)
        log_v = est["log_value"]
        rows.append(
            ",".join([str(n), _fmt(log_v), _fmt(est["se"]), _fmt(math.exp(log_v))])
        )
    path = cfg.output.path("counts.csv")
    _write_text(path, "\n".join(rows) + "\n")
    click.echo("\n".join(rows))
    click.echo(f"wrote {path}")


@main.command()
@config_option
@seed_option
@_guard
def replica(config_path, seed):
    """Fixed-overlap saddle solution for the configured model."""
    cfg = _load_config(config_path, seed)
    if cfg.model.kind != "src":
        raise ConfigError("replica requires model.kind: src")
    model = cfg.model.build()
    sol = replica_solve(model, cfg.mu)
    r1, r2 = replica_residuals(model, cfg.mu, sol.v, sol.Q)
    payload = {
        "v": sol.v,
        "Q": sol.Q,
        "mu_eff": sol.mu_eff,
        "edge": sol.edge,
        "branch": sol.branch,
        "residuals": [r1, r2],
    }
    path = cfg.output.path("replica.json")
    _write_json(path, payload)
    for key in ("branch", "v", "Q", "mu_eff", "edge"):
        click.echo(f"{key}: {_fmt(payload[key])}")
    click.echo(f"wrote {path}")


@main.command(name="lrc-edge")
@config_option
@seed_option
@_guard
def lrc_edge(config_path, seed):
    """Edge-tail fractions over the configured N grid (LRC models only)."""
    cfg = _load_config(config_path, seed)
    if cfg.model.kind != "lrc":
        raise ConfigError("lrc-edge requires model.kind: lrc")
    if cfg.trials < EDGE_MIN_TRIALS:
        raise ConfigError(f"lrc-edge needs trials of at least {EDGE_MIN_TRIALS}")
    if min(cfg.n_grid) < BORDERED_MIN_N:
        raise ConfigError(f"lrc-edge needs n_grid entries of at least {BORDERED_MIN_N}")
    model = cfg.model.build()
    rows = [EDGE_CSV_HEADER]
    for i, n in enumerate(cfg.n_grid):
        frac = edge_tail(model, cfg.mu, n, cfg.trials, cfg.epsilon, cfg.seed + i)
        rows.append(",".join([str(n), str(cfg.trials), _fmt(cfg.epsilon), _fmt(frac)]))
    path = cfg.output.path("edge.csv")
    _write_text(path, "\n".join(rows) + "\n")
    click.echo("\n".join(rows))
    click.echo(f"wrote {path}")


@main.command()
@config_option
@seed_option
@click.option("--fast", is_flag=True, help="Run the reduced invariant suite.")
@_guard
def verify(config_path, seed, fast):
    """Run the cross-module invariant suite and print a pass/fail matrix."""
    from .verification import run_all_checks

    cfg = _load_config(config_path, seed)
    results = run_all_checks(cfg, fast=fast)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        click.echo(f"{r.name:<{width}}  {mark}  {r.detail}")
        failed += not r.passed
    click.echo(f"{len(results) - failed}/{len(results)} checks passed")
    if failed:
        sys.exit(1)


@main.command(name="emit-config")
@config_option
@seed_option
@_guard
def emit_config_cmd(config_path, seed):
    """Echo the parsed configuration (round-trip form)."""
    cfg = _load_config(config_path, seed)
    click.echo(emit_config(cfg), nl=False)


if __name__ == "__main__":
    main()

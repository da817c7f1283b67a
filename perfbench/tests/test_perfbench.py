"""Tests of the benchmark itself (not of trivlab).

    python3 -m pytest perfbench/tests -q

Gate tests write synthetic outputs in the CLI's formats and corrupt them one
way at a time; the trace test runs the real CLI on tiny configs, untraced
and traced, and compares the CSVs.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ BENCHMARK.json

def test_spec_names_units_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def test_spec_matches_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    empty = {"missing": {}, "spans": []}
    produced = set(tracer._pass_layers(empty)) | set(tracer._setup_layers({"import_s": 0.0, **empty}))
    produced |= {"trace.wall_s", "trace.overhead_s"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert set(tracer.METRIC_HOOKS) <= produced
    hooked = {f"{module}.{path}" for module, path, _ in tracer.HOOKS}
    for hooks in tracer.METRIC_HOOKS.values():
        assert {f"trivlab.{h}" for h in hooks} <= hooked


# ------------------------------------------------------------------- configs

def test_seed_changes_generated_configs():
    for w in wl.WORKLOADS.values():
        a = [w.config(wl.config_seed(1, r)) for r in range(w.passes(30))]
        b = [w.config(wl.config_seed(2, r)) for r in range(w.passes(30))]
        assert a == [w.config(wl.config_seed(1, r)) for r in range(w.passes(30))]
        assert all(x != y for x, y in zip(a, b))
        assert len({c["seed"] for c in a + b}) == len(a + b)


def test_generated_configs_parse(tmp_path):
    from trivlab.config import parse_config_file

    for name, w in wl.WORKLOADS.items():
        path = run.write_config(w.config(7), str(tmp_path / name))
        assert parse_config_file(path).seed == 7
        assert "seed: 7" in run.emitted(path)


# --------------------------------------------------------------------- gates

def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


TARGETS = {"energy_per_n": (-1 / 3, 0.05), "radius_per_sqrt_n": (0.4714, 0.05),
           "bl_to_prediction": (0.0, 0.1), "lambda_min": (1 / 3, 0.15)}


def _minimize_outputs(d, lams=(0.4, 0.35), energies=(-0.33, -0.34), failures=None):
    rows = ["trial_id,seed,N,K,mu,model,energy_per_n,radius_per_sqrt_n,"
            "lambda_min,bl_distance,n_critical_points,wall_time_ms"]
    rows += [f"{i},{i},200,8192,3.0,src,{e},0.47,{lam},0.05,0,1000.0"
             for i, (lam, e) in enumerate(zip(lams, energies))]
    _write(os.path.join(d, "minimize_trials.csv"), "\n".join(rows) + "\n")
    checks = {k: {"target": t, "tolerance": tol} for k, (t, tol) in TARGETS.items()}
    _write(os.path.join(d, "minimize_summary.json"), json.dumps({"checks": checks}))
    if failures:
        _write(os.path.join(d, "minimize_failures.csv"),
               "trial_id,seed,status\n" + "".join(f'{t},{t},"search failure"\n' for t in failures))


def test_minimize_gate(tmp_path):
    cfg = dict(wl.minimize_config(0), trials=2)
    ok = {"simulate": 0}
    cases = {
        "good": ({}, 0),
        "negative lambda_min": ({"lams": (0.4, -0.01)}, 1),
        "trial listed as failed": ({"lams": (0.4,), "failures": [1]}, 1),
        "trial missing": ({"lams": (0.4,)}, 1),
    }
    for label, (kwargs, failed) in cases.items():
        d = tmp_path / label.replace(" ", "_")
        d.mkdir()
        _minimize_outputs(str(d), **kwargs)
        res = wl.check_minimize(cfg, str(d), ok)
        assert (res.units, res.failed) == (2, failed), label
        assert bool(res.problems) == bool(failed), label
    res = wl.check_minimize(cfg, str(tmp_path / "good"), {"simulate": 1})
    assert res.failed == 2 and res.problems


def test_minimize_run_gate(tmp_path):
    cfg = dict(wl.minimize_config(0), trials=2)
    observed = {}
    for label, kwargs in {"good": {}, "low energy": {"energies": (-0.5, -0.52)},
                          "spread energy": {"energies": (-0.25, -0.45)},
                          "lambda_min off": {"lams": (0.9, 0.8)}}.items():
        d = tmp_path / label.replace(" ", "_")
        d.mkdir()
        _minimize_outputs(str(d), **kwargs)
        observed[label] = wl.check_minimize(cfg, str(d), {"simulate": 0}).observed
    assert wl.minimize_run_gate([observed["good"]] * 3)[0] == []
    problems = wl.minimize_run_gate([observed["low energy"]] * 3)[0]
    assert len(problems) == 1 and problems[0].startswith("energy_per_n")
    # a wide spread widens the bound to MINIMIZE_Z standard errors
    assert wl.minimize_run_gate([observed["spread energy"]] * 3)[0] == []
    assert wl.minimize_run_gate([observed["lambda_min off"]] * 3)[0] == []
    assert wl.minimize_run_gate([{}, {}])[0]


def _census_outputs(d, grad=1e-12, index0=True, trials=(0,)):
    rows = ["trial_id,seed,point_id,value_per_n,radius_per_sqrt_n,grad_norm,index,lambda_min,corroborated"]
    for t in trials:
        rows.append(f"{t},{t},0,-1.0,0.5,{grad},{0 if index0 else 1},0.3,1")
        rows.append(f"{t},{t},1,-0.9,0.6,1e-12,1,-0.2,0")
    _write(os.path.join(d, "census_census.csv"), "\n".join(rows) + "\n")


def test_census_gate(tmp_path):
    cfg = wl.census_config(0)
    ok = {"census": 0}
    cases = {
        "good": ({}, 0),
        "large grad_norm": ({"grad": 1e-3}, 1),
        "no minimum": ({"index0": False}, 1),
        "trial missing": ({"trials": ()}, 1),
    }
    for label, (kwargs, failed) in cases.items():
        d = tmp_path / label.replace(" ", "_")
        d.mkdir()
        _census_outputs(str(d), **kwargs)
        res = wl.check_census(cfg, str(d), ok)
        assert (res.units, res.failed) == (4000, 4000 * failed), label
        assert bool(res.problems) == bool(failed), label
    assert wl.check_census(cfg, str(tmp_path / "good"), ok).observed == {"sizes": [2], "minima": [1]}


def test_census_mean_gate():
    oracle = {"log_value": math.log(31.5), "se": 0.02}
    assert wl.census_mean_gate([25, 40], [7, 11], oracle)[0]
    assert wl.census_mean_gate([28, 31, 35, 22, 30, 26], [8, 9, 9, 6, 8, 7], oracle)[0]
    assert wl.census_mean_gate([30], [8], oracle)[0]
    # pairs at the extremes of the calibration fields
    assert wl.census_mean_gate([6, 6], [2, 2], oracle)[0]
    assert wl.census_mean_gate([96, 76], [11, 18], oracle)[0]
    assert not wl.census_mean_gate([], [], oracle)[0]
    # the spread is calibrated, not estimated from the trials, so two close
    # sizes far from E Crt fail at 2 trials
    assert not wl.census_mean_gate([2, 3], [1, 1], oracle)[0]
    assert not wl.census_mean_gate([1000, 1000], [250, 250], oracle)[0]
    assert not wl.census_mean_gate([5, 6, 5, 4, 6, 5], [1, 2, 1, 1, 2, 1], oracle)[0]
    # minima kept, saddles lost: the size passes but the saddle ratio fails
    ok, detail = wl.census_mean_gate([10, 14], [7, 10], oracle)
    assert not ok and "|z| 1.4" in detail
    assert not wl.census_mean_gate([20, 30], [20, 8], oracle)[0]


def _spectra_outputs(d, log_v=0.05, se=0.1, fractions=(0.0, 0.0)):
    counts = ["N,log_e_crt,se,e_crt"] + [f"{n},{log_v},{se},{math.exp(log_v)}" for n in (100, 600)]
    _write(os.path.join(d, "spectra_counts.csv"), "\n".join(counts) + "\n")
    edge = ["N,trials,epsilon,fraction"] + [f"{n},50,0.2,{f}" for n, f in zip((100, 600), fractions)]
    _write(os.path.join(d, "spectra_edge.csv"), "\n".join(edge) + "\n")


def test_spectra_gate(tmp_path):
    cfg = wl.spectra_config(0)
    ok = {"count": 0, "lrc-edge": 0}
    samples, draws = cfg["samples"], cfg["trials"]
    cases = {
        "good": ({}, 0),
        "small-n exceedance within bound": ({"fractions": (0.02, 0.0)}, 0),
        "count far from one": ({"log_v": 1.0}, 2 * samples),
        "edge fraction at large n": ({"fractions": (0.0, 0.02)}, draws),
        "edge fraction at small n": ({"fractions": (0.5, 0.0)}, draws),
    }
    for label, (kwargs, failed) in cases.items():
        d = tmp_path / label.replace(" ", "_").replace("-", "_")
        d.mkdir()
        _spectra_outputs(str(d), **kwargs)
        res = wl.check_spectra(cfg, str(d), ok)
        assert (res.units, res.failed) == (2 * (samples + draws), failed), label
        assert bool(res.problems) == bool(failed), label
    res = wl.check_spectra(cfg, str(tmp_path / "good"), {"count": 0, "lrc-edge": 2})
    assert res.failed == 2 * draws


def test_csv_mismatches_ignores_wall_time(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _minimize_outputs(str(a))
    _minimize_outputs(str(b))
    text = (b / "minimize_trials.csv").read_text().replace(",1000.0", ",1234.5")
    (b / "minimize_trials.csv").write_text(text)
    assert wl.csv_mismatches(str(a), str(b)) == []
    (b / "minimize_trials.csv").write_text(text.replace("0.35", "0.3500001"))
    assert wl.csv_mismatches(str(a), str(b))


# ------------------------------------------------------------------- tracing

def test_missing_hook_is_reported_not_zero():
    spans = {"missing": {"trivlab.experiments.cho_factor": "gone"},
             "spans": [["minimize", -1, 0.0, 2.0, {}], ["cho_solve", 0, 0.5, 1.0, {}]]}
    values, missing = tracer.layer_metrics([], [spans])
    assert set(missing) == {"experiments.cholesky_attempts", "experiments.cholesky_per_step"}
    assert "experiments.cholesky_attempts" not in values
    assert values["experiments.newton_steps"] == 1
    assert values["experiments.minimize_self_s"] == pytest.approx(1.5)


def test_goe_method_left_to_rmt_is_reported_missing():
    spans = {"missing": {},
             "spans": [["goe_eigenvalues", -1, 0.0, 1.0, {"method": "dense"}],
                       ["goe_eigenvalues", -1, 1.0, 3.0, {"method": "auto"}]]}
    values, missing = tracer.layer_metrics([], [spans])
    assert set(missing) == {"rmt.goe_dense_s", "rmt.goe_tridiagonal_s"}
    assert "auto" in missing["rmt.goe_dense_s"]
    assert values["rmt.goe_eigenvalues_calls"] == 2


def test_install_reports_absent_targets(monkeypatch):
    import trivlab.experiments

    monkeypatch.delattr(trivlab.experiments, "cho_factor")
    t = tracer.Tracer()
    try:
        missing = tracer.install(t)
    finally:
        _uninstall()
    assert list(missing) == ["trivlab.experiments.cho_factor"]


def _uninstall():
    """Undo tracer.install in this process: reload the patched modules."""
    import importlib

    for module in ("trivlab.field_sampler", "trivlab.rmt", "trivlab.complexity",
                   "trivlab.lrc_hessian", "trivlab.config", "trivlab.experiments", "trivlab.cli"):
        importlib.reload(importlib.import_module(module))


TINY = {
    "simulate": dict(wl.minimize_config(3), n=20, k=256, trials=2, starts=3),
    "census": dict(wl.census_config(3), n=3, k=128, trials=2, starts=40),
    "count": dict(wl.spectra_config(3), n_grid=[8, 300], samples=100),
    "lrc-edge": dict(wl.spectra_config(3), n_grid=[8, 520], trials=50),
}


@pytest.mark.parametrize("command", sorted(TINY))
def test_traced_and_untraced_csvs_match(tmp_path, command):
    env = run.child_env()
    out = {}
    for traced in (False, True):
        d = tmp_path / ("traced" if traced else "plain")
        path = run.write_config(TINY[command], str(d))
        spans = str(d / "spans.json") if traced else None
        proc = subprocess.run(run.cli_argv(command, path, spans), cwd=str(d), env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out[traced] = str(d)
    assert any(f.endswith(".csv") for f in os.listdir(out[False]))
    assert wl.csv_mismatches(out[False], out[True]) == []
    with open(os.path.join(out[True], "spans.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert recorded["missing"] == {} and recorded["spans"]


def test_incomplete_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "minimize",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import trivlab
from trivlab.cli import main
from trivlab.config import parse_config, parse_config_file

SRC_YAML = """
model:
  kind: src
mu: 3.0
n: 16
k: 512
trials: 2
starts: 3
seed: 5
n_grid: [8, 12]
samples: 400
output:
  directory: {outdir}
  prefix: t
"""

SUBCRITICAL_YAML = """
model:
  kind: src
mu: 1.0
n: 6
k: 512
trials: 2
starts: 300
seed: 42
output:
  directory: {outdir}
  prefix: t
"""

LRC_YAML = """
model:
  kind: lrc
  a: 0.5
mu: 2.0
n: 24
trials: 60
epsilon: 0.2
seed: 9
n_grid: [16]
output:
  directory: {outdir}
  prefix: t
"""

BAD_ATOM_YAML = """
model:
  kind: src
  atoms: [[-1.0, 1.0]]
"""

VERIFY_YAML = """
model:
  kind: src
seed: 0
output:
  directory: {outdir}
  prefix: v
"""


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, template, name="cfg.yaml"):
    out = tmp_path / "out"
    p = tmp_path / name
    p.write_text(template.format(outdir=str(out)))
    return str(p), out


class TestPredict:
    def test_supercritical_report(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, SRC_YAML)
        res = runner.invoke(main, ["predict", "--config", cfg_path])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "t_predict.json").read_text())
        assert payload["lambda_edge"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert payload["center"] == pytest.approx(13.0 / 3.0, abs=1e-12)
        assert "lambda_edge" in res.output

    def test_subcritical_omits_maximizer_fields(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, SRC_YAML)
        text = open(cfg_path).read().replace("mu: 3.0", "mu: 1.0")
        open(cfg_path, "w").write(text)
        res = runner.invoke(main, ["predict", "--config", cfg_path])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "t_predict.json").read_text())
        assert "exponent_subcritical" in payload
        for absent in ("rho_star", "u_star", "y_star", "center", "radius", "lambda_edge"):
            assert absent not in payload

    def test_malformed_atoms_exit_2_names_field(self, runner, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(BAD_ATOM_YAML)
        res = runner.invoke(main, ["predict", "--config", str(p)])
        assert res.exit_code == 2
        assert "atoms" in res.output

    @pytest.mark.parametrize("command,template,key,line", [
        ("predict", SRC_YAML, "mu: 3.0", "mu: .nan"),
        ("lrc-edge", LRC_YAML, "mu: 2.0", "mu: .nan"),
        ("lrc-edge", LRC_YAML, "epsilon: 0.2", "epsilon: .nan"),
        ("simulate", SRC_YAML, "seed: 5", "seed: 5\ntolerances:\n  bl_resolution: .inf"),
    ], ids=["predict-mu", "lrc-edge-mu", "lrc-edge-epsilon", "simulate-bl_resolution"])
    def test_non_finite_value_exit_2(self, runner, tmp_path, command, template, key, line):
        cfg_path, out = write_cfg(tmp_path, template.replace(key, line))
        res = runner.invoke(main, [command, "--config", cfg_path])
        assert res.exit_code == 2, res.output
        assert "finite" in res.output
        assert not out.exists()

    def test_missing_config_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["predict", "--config", str(tmp_path / "none.yaml")])
        assert res.exit_code == 2

    def test_zero_features_with_atoms_exit_2(self, runner, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, SRC_YAML.replace("k: 512", "k: 0"))
        res = runner.invoke(main, ["simulate", "--config", cfg_path])
        assert res.exit_code == 2
        assert "k must be at least 1" in res.output


class TestSimulate:
    HEADER = ("trial_id,seed,N,K,mu,model,energy_per_n,radius_per_sqrt_n,"
              "lambda_min,bl_distance,n_critical_points,wall_time_ms")

    def test_csv_and_summary(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, SRC_YAML)
        res = runner.invoke(main, ["simulate", "--config", cfg_path])
        assert res.exit_code == 0, res.output
        lines = (out / "t_trials.csv").read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[0] == "0" and row[1] == "5" and row[2] == "16" and row[3] == "512"
        assert row[5] == "src"
        assert row[10] == "0"  # simulate does not census
        summary = json.loads((out / "t_summary.json").read_text())
        assert summary["n_ok"] == 2
        assert "checks" in summary and "prediction" in summary
        energies = [float(line.split(",")[6]) for line in lines[1:]]
        assert summary["estimates"]["energy_per_n"]["mean"] == pytest.approx(
            float(np.mean(energies)), abs=1e-15)

    def test_summary_config_is_the_full_emitted_config(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, SRC_YAML)
        res = runner.invoke(main, ["simulate", "--config", cfg_path, "--seed", "77"])
        assert res.exit_code == 0, res.output
        summary = json.loads((out / "t_summary.json").read_text())
        cfg = dataclasses.replace(parse_config_file(cfg_path), seed=77)
        assert parse_config(yaml.safe_dump(summary["config"])) == cfg

    def test_byte_identical_rerun_modulo_wall_time(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, SRC_YAML)
        assert runner.invoke(main, ["simulate", "--config", cfg_path]).exit_code == 0
        first = (out / "t_trials.csv").read_bytes()
        assert runner.invoke(main, ["simulate", "--config", cfg_path]).exit_code == 0
        second = (out / "t_trials.csv").read_bytes()

        def strip_wall(raw):
            return [line.rsplit(b",", 1)[0] for line in raw.splitlines()]

        assert strip_wall(first) == strip_wall(second)

    def test_seed_flag_overrides_config(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, SRC_YAML)
        assert runner.invoke(main, ["simulate", "--config", cfg_path,
                                    "--seed", "77"]).exit_code == 0
        lines = (out / "t_trials.csv").read_text().splitlines()
        assert lines[1].split(",")[1] == "77"
        assert lines[2].split(",")[1] == "78"

    def test_float_cells_shortest_roundtrip(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, SRC_YAML)
        assert runner.invoke(main, ["simulate", "--config", cfg_path]).exit_code == 0
        for line in (out / "t_trials.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            for cell in (cells[6], cells[7], cells[8], cells[9]):
                assert cell == repr(float(cell))


class TestCensusCommand:
    def test_per_point_rows(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, SUBCRITICAL_YAML)
        res = runner.invoke(main, ["census", "--config", cfg_path])
        assert res.exit_code == 0, res.output
        lines = (out / "t_census.csv").read_text().splitlines()
        assert lines[0] == ("trial_id,seed,point_id,value_per_n,radius_per_sqrt_n,"
                            "grad_norm,index,lambda_min,corroborated")
        assert len(lines) > 1
        by_trial = {}
        for line in lines[1:]:
            cells = line.split(",")
            by_trial.setdefault(cells[0], []).append(cells)
            assert float(cells[5]) <= 1e-9 * math.sqrt(6.0)
            assert int(cells[6]) >= 0
            assert cells[8] in ("0", "1")
        for rows in by_trial.values():
            ids = [int(r[2]) for r in rows]
            assert ids == list(range(len(rows)))
            values = [float(r[3]) for r in rows]
            assert values == sorted(values)

    def test_failed_trials_land_in_side_file(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, SUBCRITICAL_YAML)
        text = open(cfg_path).read().replace("starts: 300", "starts: 60")
        open(cfg_path, "w").write(text)
        res = runner.invoke(main, ["census", "--config", cfg_path])
        assert res.exit_code == 0, res.output
        lines = (out / "t_failures.csv").read_text().splitlines()
        assert lines[0] == "trial_id,seed,status"
        assert lines[1].startswith('1,43,"search failure')
        # the per-point CSV still only contains the trial that worked
        census_lines = (out / "t_census.csv").read_text().splitlines()
        assert {line.split(",")[0] for line in census_lines[1:]} == {"0"}


class TestCount:
    def test_table_over_grid(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, SRC_YAML)
        res = runner.invoke(main, ["count", "--config", cfg_path])
        assert res.exit_code == 0, res.output
        lines = (out / "t_counts.csv").read_text().splitlines()
        assert lines[0] == "N,log_e_crt,se,e_crt"
        assert [line.split(",")[0] for line in lines[1:]] == ["8", "12"]
        for line in lines[1:]:
            _, log_v, se, v = line.split(",")
            assert math.exp(float(log_v)) == pytest.approx(float(v), rel=1e-12)
            assert float(se) > 0.0


class TestReplica:
    def test_solution_json(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, SRC_YAML)
        res = runner.invoke(main, ["replica", "--config", cfg_path])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "t_replica.json").read_text())
        assert set(payload) == {"v", "Q", "mu_eff", "edge", "branch", "residuals"}
        assert payload["edge"] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert max(abs(r) for r in payload["residuals"]) <= 1e-9

    def test_lrc_model_rejected_exit_2(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, LRC_YAML)
        res = runner.invoke(main, ["replica", "--config", cfg_path])
        assert res.exit_code == 2
        assert "replica requires model.kind: src" in res.output
        assert not out.exists()


class TestLrcEdge:
    def test_edge_table(self, runner, tmp_path):
        cfg_path, out = write_cfg(tmp_path, LRC_YAML)
        res = runner.invoke(main, ["lrc-edge", "--config", cfg_path])
        assert res.exit_code == 0, res.output
        lines = (out / "t_edge.csv").read_text().splitlines()
        assert lines[0] == "N,trials,epsilon,fraction"
        n, trials, eps, frac = lines[1].split(",")
        assert (n, trials) == ("16", "60")
        assert float(eps) == 0.2
        assert 0.0 <= float(frac) <= 1.0

    def test_src_model_rejected_exit_2(self, runner, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, SRC_YAML)
        res = runner.invoke(main, ["lrc-edge", "--config", cfg_path])
        assert res.exit_code == 2
        assert "lrc" in res.output


class TestRunSizeBounds:
    # each command's library minimum is a config problem (exit 2); the
    # minimum itself still runs
    CASES = [
        ("lrc-edge", LRC_YAML, "trials: 60", "trials: {}", 50),
        ("count", SRC_YAML, "samples: 400", "samples: {}", 100),
        ("census", SUBCRITICAL_YAML, "starts: 300", "starts: {}", 10),
        ("lrc-edge", LRC_YAML, "n_grid: [16]", "n_grid: [{}]", 3),
    ]
    IDS = ["lrc-edge", "count", "census", "lrc-edge-n_grid"]

    @pytest.mark.parametrize("command,template,key,line,bound", CASES, ids=IDS)
    def test_below_bound_exits_2(self, runner, tmp_path, command, template, key, line, bound):
        cfg_path, out = write_cfg(tmp_path, template.replace(key, line.format(bound - 1)))
        res = runner.invoke(main, [command, "--config", cfg_path])
        assert res.exit_code == 2, res.output
        assert f"at least {bound}" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("command,template,key,line,bound", CASES, ids=IDS)
    def test_bound_runs(self, runner, tmp_path, command, template, key, line, bound):
        cfg_path, _ = write_cfg(tmp_path, template.replace(key, line.format(bound)))
        res = runner.invoke(main, [command, "--config", cfg_path])
        assert res.exit_code == 0, res.output


class TestVerify:
    def test_fast_suite_exit_code_and_matrix(self, runner, tmp_path):
        # the invariant suite is calibrated for the shipped default seed
        cfg_path, _ = write_cfg(tmp_path, VERIFY_YAML)
        res = runner.invoke(main, ["verify", "--config", cfg_path, "--fast"])
        assert res.exit_code == 0, res.output
        assert "checks passed" in res.output
        for name in ("config_roundtrip", "goe_semicircle_bulk", "replica_edge_consistency"):
            assert name in res.output


class TestEmitConfig:
    def test_round_trip_text(self, runner, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, SRC_YAML)
        res = runner.invoke(main, ["emit-config", "--config", cfg_path])
        assert res.exit_code == 0
        p2 = tmp_path / "echo.yaml"
        p2.write_text(res.output)
        res2 = runner.invoke(main, ["emit-config", "--config", str(p2)])
        assert res2.output == res.output


HEAVY_MODULES = ("trivlab.experiments", "trivlab.verification")


def _run_fresh(script):
    """stdout of a fresh interpreter that runs ``script`` against this package."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(trivlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(args):
    """Heavy modules loaded by a fresh interpreter that runs ``trivlab args``."""
    script = (
        "import sys\n"
        "from trivlab.cli import main\n"
        f"main({args!r}, standalone_mode=False)\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.split('.')[0] == 'scipy' or m in %r)))\n" % (HEAVY_MODULES,)
    )
    return set(_run_fresh(script).splitlines()[-1].split())


class TestImports:
    @pytest.mark.parametrize("template", [SRC_YAML, LRC_YAML], ids=["src", "lrc"])
    def test_predict_loads_no_scipy(self, tmp_path, template):
        cfg_path, out = write_cfg(tmp_path, template)
        assert _modules_after(["predict", "--config", cfg_path]) == set()
        assert (out / "t_predict.json").exists()

    def test_lrc_edge_loads_no_scipy(self, tmp_path):
        # the edge draws are decided by Sturm counts, not eigensolves
        cfg_path, out = write_cfg(tmp_path, LRC_YAML)
        assert _modules_after(["lrc-edge", "--config", cfg_path]) == set()
        assert (out / "t_edge.csv").exists()

    def test_count_loads_scipy_where_it_is_called(self, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, SRC_YAML)
        loaded = _modules_after(["count", "--config", cfg_path])
        assert "scipy.special" in loaded
        assert not loaded & set(HEAVY_MODULES)

    def test_every_module_imports_without_mpmath(self):
        # mpmath is a test dependency only: tests/oracles.py uses it, src/ must not
        script = (
            "import importlib, pkgutil, sys\n"
            "sys.modules['mpmath'] = None  # makes every import of mpmath fail\n"
            "import trivlab\n"
            "names = [m.name for m in pkgutil.walk_packages(trivlab.__path__, 'trivlab.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "print(' '.join(names))\n"
        )
        names = set(_run_fresh(script).split())
        assert {"trivlab.cli", "trivlab.rmt", "trivlab.complexity", "trivlab.verification"} <= names

    def test_all_lists_every_public_name(self):
        # submodules become attributes of the package when imported, so they are left out
        bound = {name for name, value in vars(trivlab).items()
                 if not name.startswith("_") and not isinstance(value, type(trivlab))}
        assert set(trivlab.__all__) == bound
        assert len(trivlab.__all__) == len(bound)

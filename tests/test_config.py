import dataclasses
import os

import pytest

from trivlab.config import (
    ModelConfig,
    OutputConfig,
    RunConfig,
    ToleranceConfig,
    emit_config,
    parse_config,
    parse_config_file,
    resolve_threads,
)
from trivlab.errors import ConfigError
from trivlab.structure_functions import LrcStructure, SrcCorrelator


MINIMAL = """
model:
  kind: src
"""

FULL = """
model:
  kind: lrc
  a: 0.7
  atoms:
    - [0.5, 1.2]
    - [0.5, 0.9]
mu: 2.5
n: 64
k: 2048
trials: 3
starts: 6
seed: 11
n_grid: [10, 20, 40]
samples: 500
epsilon: 0.1
threads: 2
tolerances:
  grad_tol: 1.0e-9
  dedupe_tol: 1.0e-4
  bl_resolution: 0.01
output:
  directory: out
  prefix: exp
"""


class TestParsing:
    def test_minimal_config_uses_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg == RunConfig()
        assert isinstance(cfg.model.build(), SrcCorrelator)

    def test_full_config(self):
        cfg = parse_config(FULL)
        assert cfg.model.kind == "lrc"
        assert cfg.model.atoms == ((0.5, 1.2), (0.5, 0.9))
        assert isinstance(cfg.model.build(), LrcStructure)
        assert cfg.mu == 2.5
        assert cfg.n_grid == (10, 20, 40)
        assert cfg.threads == 2
        assert cfg.tolerances.bl_resolution == 0.01
        assert cfg.output.path("x.csv") == os.path.join("out", "exp_x.csv")

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    @pytest.mark.parametrize("snippet", [
        "unknown_top: 1",
        "model:\n  kind: src\n  shape: 3",
        "tolerances:\n  grad_tolerance: 1.0e-9",
        "output:\n  folder: out",
    ])
    def test_unknown_keys_rejected(self, snippet):
        with pytest.raises(ConfigError):
            parse_config(snippet)

    @pytest.mark.parametrize("snippet", [
        "mu: -1.0",
        "mu: zero",
        "n: 0",
        "k: -4",
        "k: 0",
        "trials: 0",
        "starts: 0",
        "seed: -1",
        "samples: 0",
        "threads: 0",
        "n_grid: []",
        "n_grid: [10, five]",
        "model:\n  kind: gaussian",
        "model:\n  kind: src\n  atoms: [[-1.0, 1.0]]",
        "model:\n  kind: src\n  atoms: [[1.0, 0.0]]",
        "model:\n  kind: src\n  atoms: [[1.0]]",
        "model:\n  kind: src\n  c0: -0.5",
        "model:\n  kind: lrc\n  a: -0.1",
        "tolerances:\n  grad_tol: 0.0",
        "mu: true",
        "- just\n- a\n- list",
    ])
    def test_invalid_values_rejected(self, snippet):
        with pytest.raises(ConfigError):
            parse_config(snippet)

    @pytest.mark.parametrize("snippet", [
        "mu: .nan",
        "mu: .inf",
        "epsilon: .nan",
        "epsilon: -.inf",
        "model:\n  kind: lrc\n  a: .inf",
        "model:\n  kind: src\n  atoms: [[.nan, 1.0]]",
        "model:\n  kind: src\n  atoms: [[1.0, .inf]]",
        "tolerances:\n  grad_tol: .nan",
        "tolerances:\n  dedupe_tol: .inf",
        "tolerances:\n  bl_resolution: .nan",
        "tolerances:\n  bl_resolution: .inf",
    ])
    def test_non_finite_values_rejected(self, snippet):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(snippet)

    def test_zero_features_need_a_featureless_model(self):
        cfg = parse_config("model:\n  kind: src\n  atoms: []\nk: 0")
        assert cfg.k == 0 and cfg.model.atoms == ()

    def test_parse_errors_name_the_field(self):
        with pytest.raises(ConfigError, match="atoms"):
            parse_config("model:\n  kind: src\n  atoms: [[-1.0, 1.0]]")
        with pytest.raises(ConfigError, match="mu"):
            parse_config("mu: -3")

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text(FULL)
        assert parse_config_file(str(p)) == parse_config(FULL)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(str(tmp_path / "nope.yaml"))


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", [
        RunConfig(),
        parse_config(FULL),
        RunConfig(model=ModelConfig(kind="src", c0=0.2, atoms=((0.5, 1.0), (0.5, 2.0))),
                  mu=1.0, trials=1, n_grid=(5,),
                  tolerances=ToleranceConfig(bl_resolution=0.5),
                  output=OutputConfig(directory="d", prefix="p")),
    ])
    def test_parse_emit_identity(self, cfg):
        assert parse_config(emit_config(cfg)) == cfg

    def test_emitted_text_is_stable(self):
        cfg = parse_config(FULL)
        assert emit_config(cfg) == emit_config(parse_config(emit_config(cfg)))


class TestThreads:
    def test_env_overrides_config(self, monkeypatch):
        monkeypatch.setenv("TRIVLAB_THREADS", "3")
        assert resolve_threads(8) == 3

    def test_config_wins_without_env(self, monkeypatch):
        monkeypatch.delenv("TRIVLAB_THREADS", raising=False)
        assert resolve_threads(5) == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("TRIVLAB_THREADS", raising=False)
        assert resolve_threads(None) >= 1

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("TRIVLAB_THREADS", "many")
        with pytest.raises(ConfigError):
            resolve_threads(None)
        monkeypatch.setenv("TRIVLAB_THREADS", "0")
        with pytest.raises(ConfigError):
            resolve_threads(None)


class TestModelBlock:
    def test_src_build_matches_fields(self):
        m = ModelConfig(kind="src", c0=0.1, atoms=((0.9, 1.1),)).build()
        assert m == SrcCorrelator(c0=0.1, atoms=((0.9, 1.1),))

    def test_lrc_build_matches_fields(self):
        m = ModelConfig(kind="lrc", a=0.25, atoms=((1.0, 1.0),)).build()
        assert m == LrcStructure(A=0.25, atoms=((1.0, 1.0),))

    def test_replace_keeps_roundtrip(self):
        cfg = dataclasses.replace(RunConfig(), seed=77)
        assert parse_config(emit_config(cfg)).seed == 77

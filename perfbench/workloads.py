"""Workload definitions of the trivlab benchmark: configs, plans and gates.

A workload is a sequence of CLI commands run on one generated config (a
"pass").  A benchmark run makes several passes, each on its own config
seed, so one run averages over several field realizations.  Every pass is
checked by the workload's correctness gate; census adds one gate over all
passes of the run.

The gates compare against closed forms and standard errors, never against
frozen output bytes, so they hold under floating-point reordering and
changed random streams.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

# summary check name -> trials.csv column
MINIMIZE_COLUMNS = {
    "energy_per_n": "energy_per_n",
    "radius_per_sqrt_n": "radius_per_sqrt_n",
    "bl_to_prediction": "bl_distance",
    "lambda_min": "lambda_min",
}
# standard errors a run mean may sit from its target when the program's
# fixed tolerance (calibrated at 50 trials) is narrower than that
MINIMIZE_Z = 4.0
# census rows must re-verify to this gradient norm times sqrt(N)
CENSUS_VERIFY_TOL = 1e-9
# false-alarm rate of the census gate per run, split over its two z-tests
CENSUS_ALPHA = 1e-3
# Between-field spread of census sizes on census_config, measured in advance
# because a run's few trials cannot estimate it: over CENSUS_CALIBRATION_FIELDS
# fields (config seeds 9000000, 9100000, 9200000 and 9300000, 20 trials
# each), log(size) - log E Crt had this mean and sd, with E Crt from
# expected_crt_mc at 100k samples.  The mean sits below 0 by the lognormal
# term sd^2 / 2 and by the points the start heuristic misses.
CENSUS_LOG_SIZE_OFFSET = -0.35
CENSUS_LOG_SIZE_SD = 0.61
# Over the same fields, log(saddles / minima) (index >= 1 over index 0) had
# this mean and sd.  Minima make up a quarter of a census, so a census that
# keeps its minima and loses its saddles shrinks too little for the size
# test; this ratio shows it.  Both statistics fit a normal law (skew 0.0 and
# -0.07, Shapiro-Wilk p 0.90 and 0.84), so z-tests apply.
CENSUS_LOG_SADDLE_RATIO = 1.01
CENSUS_LOG_SADDLE_RATIO_SD = 0.48
CENSUS_CALIBRATION_FIELDS = 80
# samples behind the census oracle expected_crt_mc (test_07 uses 10k)
CENSUS_ORACLE_SAMPLES = 10_000
# |log E Crt| may deviate from log 1 = 0 by this many jackknife standard
# errors; the jackknife SE of a log-mean of heavy-tailed importance weights
# understates the lower tail (z = -2.9 seen in 48 rows of 300 samples)
COUNT_Z = 6.0
# at and above this n the edge fraction at epsilon must be exactly 0, as
# tests/test_acceptance.py::test_05 asserts at n = 400
EDGE_ZERO_MIN_N = 400
# below it a finite-size exceedance is expected (measured 4 in 2000 draws
# at n = 100, so 50 draws see one in ~10% of runs); a broken edge law
# shows as a fraction well above this
EDGE_SMALL_N_MAX_FRACTION = 0.1


@dataclass
class PassCheck:
    """Gate outcome of one pass: units attempted and failed, and why."""

    units: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    # planning estimate of one pass on a 2-core desk machine; a run makes
    # max(2, round(seconds / pass_seconds)) passes
    pass_seconds: float
    config: Callable[[int], dict]
    check: Callable[[dict, str, dict], PassCheck]
    # gate over all passes: (observed per pass, pass-0 config path, seed)
    # -> (problems, notes)
    check_run: Callable[[list[dict], str, int], tuple[list[str], list[str]]]

    def passes(self, seconds: float) -> int:
        return max(2, round(seconds / self.pass_seconds))


def _base_config(prefix: str, seed: int, **overrides) -> dict:
    cfg = {
        "model": {"kind": "src", "c0": 0.0, "a": 0.5, "atoms": [[1.0, 1.0]]},
        "mu": 3.0,
        "n": 50,
        "k": 4096,
        "trials": 1,
        "starts": 4,
        "seed": seed,
        "n_grid": [25, 50, 100],
        "samples": 10_000,
        "epsilon": 0.2,
        "threads": 1,
        "tolerances": {"grad_tol": 1e-10, "dedupe_tol": 1e-5, "bl_resolution": None},
        "output": {"directory": ".", "prefix": prefix},
    }
    cfg.update(overrides)
    return cfg


def config_seed(seed: int, pass_index: int) -> int:
    """Config seed of one pass; trial seeds (config seed + trial) never overlap."""
    return 1000 * seed + 100 * pass_index


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _failed_trials(prefix: str) -> dict[int, str]:
    path = prefix + "_failures.csv"
    if not os.path.exists(path):
        return {}
    return {int(r["trial_id"]): r["status"] for r in _read_csv(path)}


def _prefix(cfg: dict, out_dir: str) -> str:
    return os.path.join(out_dir, cfg["output"]["prefix"])


def _exit_problems(codes: dict) -> list[str]:
    return [f"{cmd} exited with code {rc}" for cmd, rc in codes.items() if rc != 0]


# ------------------------------------------------------------------ minimize

def minimize_config(seed: int) -> dict:
    return _base_config("minimize", seed, mu=3.0, n=200, k=8192, trials=8, starts=4)


def check_minimize(cfg: dict, out_dir: str, codes: dict) -> PassCheck:
    """Every trial ok with lambda_min > 0; observables kept for the run gate."""
    trials = cfg["trials"]
    res = PassCheck(units=trials)
    res.problems += _exit_problems(codes)
    if res.problems:
        res.failed = trials
        return res
    prefix = _prefix(cfg, out_dir)
    bad = {t: f"trial {t}: {s}" for t, s in _failed_trials(prefix).items()}
    rows = _read_csv(prefix + "_trials.csv")
    seen = {int(r["trial_id"]) for r in rows}
    for t in set(range(trials)) - seen - set(bad):
        bad[t] = f"trial {t} missing from trials.csv"
    for r in rows:
        lam = float(r["lambda_min"])
        if not lam > 0.0:
            bad[int(r["trial_id"])] = f"trial {r['trial_id']}: lambda_min {lam} is not positive"
    res.problems += list(bad.values())
    res.failed = len(bad)
    with open(prefix + "_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    res.observed = {
        "values": {col: [float(r[col]) for r in rows] for col in MINIMIZE_COLUMNS.values()},
        "targets": {name: c.get("target") for name, c in summary.get("checks", {}).items()},
        "tolerances": {name: c.get("tolerance") for name, c in summary.get("checks", {}).items()},
    }
    return res


def minimize_run_gate(observed: list[dict]) -> tuple[list[str], list[str]]:
    """Energy, radius and BL means over all trials of the run against the
    closed forms: |mean - target| <= max(tolerance, MINIMIZE_Z * SE).

    The summary of one 6-trial pass uses the fixed tolerance alone, which
    per-trial spread (energy_per_n sd 0.065 measured over 108 trials) makes
    fail by chance.  lambda_min is reported, not gated.
    """
    problems, notes = [], []
    observed = [o for o in observed if o]  # a pass whose command failed has none
    for name, col in MINIMIZE_COLUMNS.items():
        vals = [v for o in observed for v in o["values"][col]]
        targets = {o["targets"].get(name) for o in observed}
        tols = {o["tolerances"].get(name) for o in observed}
        if len(vals) < 2 or len(targets) != 1 or len(tols) != 1 or None in targets | tols:
            problems.append(f"{name}: no comparable estimate over the run's passes")
            continue
        (target,), (tol,) = targets, tols
        mean = sum(vals) / len(vals)
        se = math.sqrt(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1) / len(vals))
        bound = max(tol, MINIMIZE_Z * se)
        line = (f"{name}: mean {mean:.4f} vs {target:.4f}, |err| {abs(mean - target):.4f} "
                f"<= max(tol {tol:g}, {MINIMIZE_Z:g} SE {MINIMIZE_Z * se:.4f}) over {len(vals)} trials")
        if name == "lambda_min":
            notes.append(line.replace(" <= ", " vs ") + " (reported, not gated)")
        elif abs(mean - target) <= bound:
            notes.append(line)
        else:
            problems.append(line.replace("<=", ">"))
    return problems, notes


# -------------------------------------------------------------------- census

def census_config(seed: int) -> dict:
    return _base_config("census", seed, mu=1.0, n=6, k=1024, trials=1, starts=4000)


def check_census(cfg: dict, out_dir: str, codes: dict) -> PassCheck:
    """Every row re-verifies and every trial has a minimum (index 0)."""
    trials, starts = cfg["trials"], cfg["starts"]
    res = PassCheck(units=trials * starts)
    res.problems += _exit_problems(codes)
    if res.problems:
        res.failed = res.units
        return res
    prefix = _prefix(cfg, out_dir)
    bad = {t: f"trial {t}: {s}" for t, s in _failed_trials(prefix).items()}
    by_trial: dict[int, list[dict]] = {}
    for r in _read_csv(prefix + "_census.csv"):
        by_trial.setdefault(int(r["trial_id"]), []).append(r)
    tol = CENSUS_VERIFY_TOL * math.sqrt(cfg["n"])
    sizes, minima = [], []
    for t in range(trials):
        if t in bad:
            continue
        rows = by_trial.get(t, [])
        loose = [float(r["grad_norm"]) for r in rows if not float(r["grad_norm"]) <= tol]
        if not rows:
            bad[t] = f"trial {t} missing from census.csv"
        elif loose:
            bad[t] = f"trial {t}: grad_norm {max(loose):.3g} above {tol:.3g}"
        elif not any(int(r["index"]) == 0 for r in rows):
            bad[t] = f"trial {t}: no index-0 point"
        else:
            sizes.append(len(rows))
            minima.append(sum(int(r["index"]) == 0 for r in rows))
    res.problems += list(bad.values())
    res.failed = len(bad) * starts
    res.observed = {"sizes": sizes, "minima": minima}
    return res


def census_run_gate(observed: list[dict], config_path: str, seed: int) -> tuple[list[str], list[str]]:
    """census_mean_gate over all trials of the run against expected_crt_mc."""
    from trivlab.complexity import expected_crt_mc
    from trivlab.config import parse_config_file

    cfg = parse_config_file(config_path)
    oracle = expected_crt_mc(cfg.model.build(), cfg.mu, cfg.n, CENSUS_ORACLE_SAMPLES,
                             1000 * seed + 999)
    ok, detail = census_mean_gate([s for o in observed for s in o.get("sizes", [])],
                                  [m for o in observed for m in o.get("minima", [])], oracle)
    return ([], [detail]) if ok else ([detail], [])


def _calibrated_z(mean: float, trials: int, center: float, sd: float, extra_var: float = 0.0) -> float:
    """z of a mean over ``trials`` fields against a calibrated center and sd."""
    var = sd ** 2 * (1.0 / trials + 1.0 / CENSUS_CALIBRATION_FIELDS) + extra_var
    return (mean - center) / math.sqrt(var)


def census_mean_gate(sizes: list[int], minima: list[int], oracle: dict,
                     alpha: float = CENSUS_ALPHA) -> tuple[bool, str]:
    """Two-sided z-tests of a run's census trials against the calibration.

    ``sizes`` and ``minima`` hold each trial's point count and index-0
    count; ``oracle`` is expected_crt_mc's {"log_value", "se"}.  Each test
    runs at alpha / 2:

    - size: the mean of log(size) - log E Crt against
      CENSUS_LOG_SIZE_OFFSET, the oracle's variance added.  At 2 trials a
      census whose sizes shrink or grow about 4.5-fold fails.
    - saddles: the mean of log(saddles / minima) against
      CENSUS_LOG_SADDLE_RATIO.  At 2 trials a census that loses 3/4 of its
      saddles fails; one that loses all of them fails at any count.
    """
    from scipy.stats import norm

    t = len(sizes)
    if not t or len(minima) != t or min(minima) < 1:
        return False, f"census sizes {sizes}, minima {minima}: need trials, each with a minimum"
    z_max = float(norm.ppf(1.0 - alpha / 4.0))
    log_ratio = sum(math.log(s) for s in sizes) / t - oracle["log_value"]
    z_size = _calibrated_z(log_ratio, t, CENSUS_LOG_SIZE_OFFSET, CENSUS_LOG_SIZE_SD,
                           oracle["se"] ** 2)
    saddle_ratio = sum(math.log((s - m) / m) if s > m else -math.inf
                       for s, m in zip(sizes, minima)) / t
    z_saddle = _calibrated_z(saddle_ratio, t, CENSUS_LOG_SADDLE_RATIO, CENSUS_LOG_SADDLE_RATIO_SD)
    ok = abs(z_size) <= z_max and abs(z_saddle) <= z_max
    return ok, (f"census over {t} trials: geometric mean size / E Crt {math.exp(log_ratio):.3f} "
                f"(E Crt {math.exp(oracle['log_value']):.2f}, calibrated {math.exp(CENSUS_LOG_SIZE_OFFSET):.3f}), "
                f"|z| {abs(z_size):.2f}; mean log(saddles / minima) {saddle_ratio:.3f} "
                f"(calibrated {CENSUS_LOG_SADDLE_RATIO:.2f}), |z| {abs(z_saddle):.2f}; "
                f"{'both <=' if ok else 'not both <='} {z_max:.2f} (alpha {alpha:g})")


# ------------------------------------------------------------------- spectra

def spectra_config(seed: int) -> dict:
    return _base_config(
        "spectra", seed,
        model={"kind": "lrc", "c0": 0.0, "a": 0.5, "atoms": [[1.0, 1.0]]},
        mu=2.0, n_grid=[100, 600], samples=200, trials=50, epsilon=0.2,
    )


def check_spectra(cfg: dict, out_dir: str, codes: dict) -> PassCheck:
    """count rows within COUNT_Z SE of log 1; edge fractions at the claim's bound."""
    grid = cfg["n_grid"]
    res = PassCheck(units=(cfg["samples"] + cfg["trials"]) * len(grid))
    prefix = _prefix(cfg, out_dir)
    failed = 0
    if codes.get("count", 1) != 0:
        res.problems.append(f"count exited with code {codes.get('count')}")
        failed += cfg["samples"] * len(grid)
    else:
        rows = {int(r["N"]): r for r in _read_csv(prefix + "_counts.csv")}
        for n in grid:
            r = rows.get(n)
            if r is None:
                res.problems.append(f"count row N={n} missing")
                failed += cfg["samples"]
                continue
            log_v, se = float(r["log_e_crt"]), float(r["se"])
            if not abs(log_v) <= COUNT_Z * se:
                res.problems.append(f"count N={n}: log E Crt {log_v:.4f} beyond {COUNT_Z:g} SE ({se:.4f}) of 0")
                failed += cfg["samples"]
            res.observed[f"log_e_crt_{n}"] = log_v
    if codes.get("lrc-edge", 1) != 0:
        res.problems.append(f"lrc-edge exited with code {codes.get('lrc-edge')}")
        failed += cfg["trials"] * len(grid)
    else:
        rows = {int(r["N"]): r for r in _read_csv(prefix + "_edge.csv")}
        for n in grid:
            r = rows.get(n)
            limit = 0.0 if n >= EDGE_ZERO_MIN_N else EDGE_SMALL_N_MAX_FRACTION
            if r is None:
                res.problems.append(f"edge row N={n} missing")
                failed += cfg["trials"]
                continue
            frac = float(r["fraction"])
            if not frac <= limit:
                res.problems.append(f"edge N={n}: fraction {frac} above {limit}")
                failed += cfg["trials"]
            res.observed[f"edge_fraction_{n}"] = frac
    res.failed = failed
    return res


def _csv_without_wall(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_ms") if rows and "wall_time_ms" in rows[0] else None
    return [[c for i, c in enumerate(r) if i != drop] for r in rows]


def csv_mismatches(dir_a: str, dir_b: str) -> list[str]:
    """Differences between the CSV outputs of two passes, ignoring wall_time_ms."""
    names = sorted({f for d in (dir_a, dir_b) for f in os.listdir(d) if f.endswith(".csv")})
    problems = []
    for name in names:
        a, b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not (os.path.exists(a) and os.path.exists(b)):
            problems.append(f"{name} written by only one of the two passes")
        elif _csv_without_wall(a) != _csv_without_wall(b):
            problems.append(f"{name} differs between the traced and untraced pass")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("minimize", ("simulate",), 12.5, minimize_config, check_minimize,
                 lambda observed, path, seed: minimize_run_gate(observed)),
        Workload("census", ("census",), 20.5, census_config, check_census, census_run_gate),
        Workload("spectra", ("count", "lrc-edge"), 17.0, spectra_config, check_spectra,
                 lambda observed, path, seed: ([], [])),
    )
}

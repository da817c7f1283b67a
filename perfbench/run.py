#!/usr/bin/env python3
"""trivlab benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload minimize --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload's commands run through the real
CLI (``python -m trivlab.cli``) in child processes, one at a time (a closed
loop with one client), on YAML configs generated from ``--seed``.  BLAS and
trivlab worker threads are pinned to 1, so the figures are single-core work.

A run makes several passes (see workloads.py), checks each against the
workload's correctness gates, and prints the metrics named in BENCHMARK.json
as the last line of stdout: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  A traced run also re-runs pass 0
with timing wrappers (tracer.py), checks that its CSVs match the untraced
pass apart from wall_time_ms, and reports the difference in wall time as
trace.overhead_s.
Exit code 0 when every gate passes, 1 when a gate or command fails, 2 when
the repository is incomplete.  Per-run outputs and a manifest are kept under
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

# a run, set-up included, ends within this many seconds or fails
DEADLINE_S = 170.0
# `trivlab predict` invocations behind setup_s (median)
SETUP_REPEATS = 3
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "TRIVLAB_THREADS": "1",
}


class Incomplete(Exception):
    """The checkout lacks something the benchmark needs."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


class Runner:
    """Starts one child at a time, reaps it, and records its resource use."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list[str], cwd: str, log: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark deadline reached before a command could start")
        with open(log, "w", encoding="utf-8") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0 and time.monotonic() >= self.deadline:
            raise TimeoutError(f"{' '.join(argv[-4:])} killed at the benchmark deadline")
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "code": proc.returncode,
        }


def cli_argv(command: str, config: str, spans: str | None) -> list[str]:
    args = [command, "--config", config]
    if spans is None:
        return [sys.executable, "-m", "trivlab.cli", *args]
    return [sys.executable, os.path.join(HERE, "tracer.py"), "--spans", spans, "--", *args]


def write_config(cfg: dict, directory: str) -> str:
    import yaml

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "config.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    return path


def emitted(path: str) -> str:
    """The config as `trivlab emit-config` prints it (same function, in process)."""
    from trivlab.config import emit_config, parse_config_file

    return emit_config(parse_config_file(path))


def manifest(workload: str, seed: int, configs: list[str]) -> dict:
    import numpy
    import scipy

    commit = None  # a checkout that is not a git repository has none
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no mode argument
        blas = {}
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "workload": workload,
        "seed": seed,
        "configs": [emitted(p) for p in configs],
    }


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        raise Incomplete(f"{path} not found")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from workloads import WORKLOADS, config_seed, csv_mismatches

    if not os.path.isdir(os.path.join(SRC, "trivlab")):
        raise Incomplete(f"trivlab sources not found under {SRC}")
    spec = load_spec()
    workload = WORKLOADS[workload_name]
    sys.path.insert(0, SRC)
    runner = Runner(time.monotonic() + DEADLINE_S)

    run_dir = os.path.join(RUNS, f"{workload_name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    n_passes = workload.passes(seconds)
    configs = [workload.config(config_seed(seed, r)) for r in range(n_passes)]
    paths = [write_config(c, os.path.join(run_dir, f"pass{r}")) for r, c in enumerate(configs)]

    def run_pass(cfg, path, pass_dir, traced):
        os.makedirs(pass_dir, exist_ok=True)
        calls = {}
        for command in workload.commands:
            spans = os.path.join(pass_dir, f"{command}.spans.json") if traced else None
            calls[command] = runner.run(cli_argv(command, path, spans), pass_dir,
                                        os.path.join(pass_dir, f"{command}.log"))
            calls[command]["spans"] = spans
        return {"calls": calls,
                "check": workload.check(cfg, pass_dir, {c: v["code"] for c, v in calls.items()}),
                "wall_s": sum(v["wall_s"] for v in calls.values()),
                "cpu_s": sum(v["cpu_s"] for v in calls.values()),
                "rss_mb": max(v["rss_mb"] for v in calls.values())}

    setup_dir = os.path.join(run_dir, "setup")
    os.makedirs(setup_dir)
    setup, setup_spans = [], []

    def run_setup():
        i = len(setup)
        spans = os.path.join(setup_dir, f"spans{i}.json") if trace else None
        setup.append(runner.run(cli_argv("predict", paths[0], spans), setup_dir,
                                os.path.join(setup_dir, f"predict{i}.log")))
        if spans:
            setup_spans.append(spans)

    # set-up runs are spread between the passes: the machine's speed drifts
    # over tens of seconds, and a median over one stretch would inherit it
    passes = []
    for r, (cfg, path) in enumerate(zip(configs, paths)):
        for _ in range(r, SETUP_REPEATS, n_passes):
            run_setup()
        passes.append(run_pass(cfg, path, os.path.dirname(path), False))
    # trace mode re-runs pass 0 traced: same config, so the wall-time
    # difference is the tracing overhead and the CSVs must match
    twin = None
    if trace:
        twin_dir = os.path.join(run_dir, "pass0-traced")
        twin = run_pass(configs[0], paths[0], twin_dir, True)

    attempted = sum(p["check"].units for p in passes)
    failed = sum(p["check"].failed for p in passes)
    problems = [f"pass {r}: {msg}" for r, p in enumerate(passes) for msg in p["check"].problems]
    if twin is not None:
        problems += [f"traced pass 0: {msg}" for msg in twin["check"].problems]
        problems += csv_mismatches(os.path.dirname(paths[0]), os.path.join(run_dir, "pass0-traced"))
    if any(c["code"] != 0 for c in setup):
        problems.append("predict failed during set-up")
    run_problems, notes = workload.check_run([p["check"].observed for p in passes], paths[0], seed)
    if run_problems:
        problems += run_problems
        failed = attempted

    missing = {}
    if trace:
        from tracer import layer_metrics

        def load(path):
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)

        values, missing = layer_metrics([load(s) for s in setup_spans],
                                        [load(c["spans"]) for c in twin["calls"].values()])
        overhead = twin["wall_s"] - passes[0]["wall_s"]
        values["trace.wall_s"] = twin["wall_s"]
        values["trace.overhead_s"] = overhead
        notes.append(f"tracing overhead: traced pass 0 {twin['wall_s']:.3f} s - untraced pass 0 "
                     f"{passes[0]['wall_s']:.3f} s = {overhead:+.3f} s")
        metric_specs = spec["per_layer"]
    else:
        setup_s = statistics.median(c["wall_s"] for c in setup)
        wall_s = statistics.median(p["wall_s"] for p in passes)
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": setup_s,
            "work_per_s": passes[0]["check"].units / (wall_s - setup_s * len(workload.commands)),
            "peak_rss_mb": max(p["rss_mb"] for p in passes),
        }
        metric_specs = spec["end_to_end"]
    notes.append(f"failed_frac: {failed / attempted:.6g} (failed {failed} of {attempted} units)")

    metrics = {}
    for m in metric_specs:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            metrics[m["name"]] = {"value": None, "unit": m["unit"],
                                  "missing": missing.get(m["name"], "not measured")}
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    details = {
        "manifest": manifest(workload_name, seed, paths),
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                    "rss_mb": p["rss_mb"], "units": p["check"].units,
                    "failed": p["check"].failed, "observed": p["check"].observed,
                    "codes": {c: v["code"] for c, v in p["calls"].items()}}
                   for p in passes + ([twin] if twin else [])],
        "setup_wall_s": [c["wall_s"] for c in setup],
        "problems": problems,
        "notes": notes,
        "result": result,
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2, default=str)
    return result, details


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        result, details = run(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    except Incomplete as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    m = details["manifest"]
    print(f"workload {opts.workload} seed {opts.seed}: {len(details['passes'])} passes "
          f"(a traced re-run of pass 0 included with --trace 1); "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
          f"BLAS {m['blas']['name']} {m['blas']['version']}, nproc {m['nproc']}, "
          f"commit {m['git_commit']}")
    for note in details["notes"]:
        print(note)
    for problem in details["problems"]:
        print(f"GATE FAILED: {problem}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "missing: " + metric["missing"] if value is None else f"{value:.6g}"
        print(f"{name:45s} {shown} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

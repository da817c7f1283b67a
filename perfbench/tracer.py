"""Layer tracing for the trivlab benchmark, installed from outside the package.

Child side: ``python perfbench/tracer.py --spans OUT.json -- <trivlab args>``
imports ``trivlab.cli``, wraps the public names where one module calls
another (HOOKS), runs the real click entry point with the given arguments
and writes the recorded spans to OUT.json on exit.  Nothing in ``src/`` is
changed; a hook whose target a later version no longer has is listed as
missing and the run goes on.

Parent side: ``layer_metrics`` turns span files into the per-layer metrics
named in BENCHMARK.json.

Spans nest on one stack, so the traced program must run single-threaded
(the benchmark pins TRIVLAB_THREADS=1).  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time

# (module, attribute path, span name).  The module is the caller's namespace
# (e.g. ``trivlab.experiments.eval_hamiltonian``), so only cross-module calls
# are timed; methods are patched on their class.
HOOKS = (
    ("trivlab.cli", "parse_config_file", "parse_config_file"),
    ("trivlab.cli", "predictions", "predictions"),
    ("trivlab.cli", "expected_crt_mc", "expected_crt_mc"),
    ("trivlab.cli", "edge_tail", "edge_tail"),
    ("trivlab.experiments", "sample_field", "sample_field"),
    ("trivlab.experiments", "minimize", "minimize"),
    ("trivlab.experiments", "census", "census"),
    ("trivlab.experiments", "eval_hamiltonian", "eval_hamiltonian"),
    ("trivlab.experiments", "bl_distance", "bl_distance"),
    ("trivlab.experiments", "cho_factor", "cho_factor"),
    ("trivlab.experiments", "cho_solve", "cho_solve"),
    ("trivlab.field_sampler", "FieldRealization.field_value", "field_value"),
    ("trivlab.field_sampler", "FieldRealization.field_hessian", "field_hessian"),
    ("trivlab.complexity", "goe_eigenvalues", "goe_eigenvalues"),
    ("trivlab.lrc_hessian", "sample_g", "sample_g"),
    ("trivlab.lrc_hessian", "goe_eigenvalues", "goe_eigenvalues"),
)

# GOE spans are split by the method their caller passes; a call that leaves
# the choice to rmt ("auto") cannot be attributed from outside
GOE_METHODS = ("dense", "tridiagonal")


class Tracer:
    """In-memory span recorder: [name, parent index, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, annotate=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), None, {}]
            spans.append(span)
            stack.append(len(spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if annotate is not None:
                    try:
                        span[4] = annotate(args, kwargs, result)
                    except (AttributeError, TypeError, IndexError, KeyError):
                        span[4] = {}  # the traced signature changed; leave it unlabelled

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def _arg(args, kwargs, index, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _annotations():
    def hessian(args, kwargs, result):
        field = args[0]
        return {"flops": 2.0 * field.k * field.n * field.n}

    def census(args, kwargs, result):
        return {"starts": _arg(args, kwargs, 2, "n_starts"),
                "points": None if result is None else len(result)}

    def goe(args, kwargs, result):
        return {"method": _arg(args, kwargs, 2, "method", "auto")}

    def sample_g(args, kwargs, result):
        return {"method": getattr(result, "method", None)}

    return {"field_hessian": hessian, "census": census,
            "goe_eigenvalues": goe, "sample_g": sample_g}


def install(tracer: Tracer) -> dict:
    """Wrap every hook target that exists; return {hook: reason} for the rest."""
    missing = {}
    annotate = _annotations()
    for module_name, path, span_name in HOOKS:
        hook = f"{module_name}.{path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError as exc:
            missing[hook] = f"module not importable: {exc}"
            continue
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        target = getattr(owner, attr, None) if owner is not None else None
        if not callable(target):
            missing[hook] = f"{hook} no longer exists"
            continue
        setattr(owner, attr, tracer.wrap(target, span_name, annotate.get(span_name)))
    return missing


def _child_main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by the trivlab command line")
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    t0 = time.perf_counter()
    cli = importlib.import_module("trivlab.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    missing = install(tracer)
    code = 0
    try:
        cli.main(args=cli_args, prog_name="trivlab")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        with open(opts.spans, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "missing": missing, "spans": tracer.spans}, fh)
    return code


# --------------------------------------------------------------- parent side

def _durations(spans):
    return [s[3] - s[2] for s in spans]


def _self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    self_t = _durations(spans)
    for s in spans:
        if s[1] >= 0:
            self_t[s[1]] -= s[3] - s[2]
    return self_t


def _pass_layers(span_file: dict) -> dict:
    """Per-layer figures of one traced workload pass."""
    spans = span_file["spans"]
    dur = _durations(spans)
    self_t = _self_times(spans)
    names = [s[0] for s in spans]

    def idx(name, pred=None):
        return [i for i, s in enumerate(spans) if s[0] == name and (pred is None or pred(s))]

    def total(ix, times=dur):
        return float(sum(times[i] for i in ix))

    hess = idx("field_hessian")
    hess_s = total(hess)
    flops = sum(spans[i][4].get("flops", 0.0) for i in hess)
    # line-search probes: field values not taken inside a full H evaluation
    probes = idx("field_value", lambda s: s[1] < 0 or names[s[1]] != "eval_hamiltonian")
    steps = len(idx("cho_solve"))
    attempts = len(idx("cho_factor"))
    census = idx("census")
    points = sum(spans[i][4].get("points") or 0 for i in census)
    starts = sum(spans[i][4].get("starts") or 0 for i in census)
    goe = idx("goe_eigenvalues")
    sample_g = idx("sample_g")
    return {
        "field_sampler.field_hessian_s": hess_s,
        "field_sampler.hessian_gflops": flops / hess_s / 1e9 if hess_s > 0 else 0.0,
        "field_sampler.eval_hamiltonian_calls": len(idx("eval_hamiltonian")),
        "field_sampler.eval_hamiltonian_s": total(idx("eval_hamiltonian")),
        "field_sampler.field_value_calls": len(probes),
        "field_sampler.field_value_s": total(probes),
        "field_sampler.sample_field_s": total(idx("sample_field")),
        "experiments.minimize_s": total(idx("minimize")),
        "experiments.minimize_self_s": total(idx("minimize"), self_t),
        "experiments.newton_steps": steps,
        "experiments.cholesky_attempts": attempts,
        "experiments.cholesky_per_step": attempts / steps if steps else 0.0,
        "experiments.census_s": total(census),
        "experiments.census_self_s": total(census, self_t),
        "experiments.census_points": points,
        "experiments.census_points_per_1k_starts": 1e3 * points / starts if starts else 0.0,
        "rmt.bl_distance_s": total(idx("bl_distance")),
        "rmt.goe_dense_s": total([i for i in goe if spans[i][4].get("method") == "dense"]),
        "rmt.goe_tridiagonal_s": total([i for i in goe if spans[i][4].get("method") == "tridiagonal"]),
        "rmt.goe_eigenvalues_calls": len(goe),
        "complexity.expected_crt_mc_s": total(idx("expected_crt_mc")),
        "complexity.expected_crt_mc_self_s": total(idx("expected_crt_mc"), self_t),
        "lrc_hessian.sample_g_dense_s": total([i for i in sample_g if spans[i][4].get("method") == "dense"]),
        "lrc_hessian.sample_g_secular_s": total([i for i in sample_g if spans[i][4].get("method") == "secular"]),
        "lrc_hessian.sample_g_self_s": total(sample_g, self_t),
        "lrc_hessian.edge_tail_s": total(idx("edge_tail")),
        "trace.spans": len(spans),
    }


def _setup_layers(span_file: dict) -> dict:
    spans = span_file["spans"]
    dur = _durations(spans)
    return {
        "cli.import_s": span_file["import_s"],
        "config.parse_config_file_s": sum(d for s, d in zip(spans, dur) if s[0] == "parse_config_file"),
        "complexity.predictions_s": sum(d for s, d in zip(spans, dur) if s[0] == "predictions"),
    }


# metric -> the hooks it is computed from; a metric whose hooks are missing
# is reported as missing rather than as zero
METRIC_HOOKS = {
    "field_sampler.field_hessian_s": ("field_sampler.FieldRealization.field_hessian",),
    "field_sampler.hessian_gflops": ("field_sampler.FieldRealization.field_hessian",),
    "field_sampler.eval_hamiltonian_calls": ("experiments.eval_hamiltonian",),
    "field_sampler.eval_hamiltonian_s": ("experiments.eval_hamiltonian",),
    "field_sampler.field_value_calls": ("field_sampler.FieldRealization.field_value",),
    "field_sampler.field_value_s": ("field_sampler.FieldRealization.field_value",),
    "field_sampler.sample_field_s": ("experiments.sample_field",),
    "experiments.minimize_s": ("experiments.minimize",),
    "experiments.minimize_self_s": ("experiments.minimize",),
    "experiments.newton_steps": ("experiments.cho_solve",),
    "experiments.cholesky_attempts": ("experiments.cho_factor",),
    "experiments.cholesky_per_step": ("experiments.cho_factor", "experiments.cho_solve"),
    "experiments.census_s": ("experiments.census",),
    "experiments.census_self_s": ("experiments.census",),
    "experiments.census_points": ("experiments.census",),
    "experiments.census_points_per_1k_starts": ("experiments.census",),
    "rmt.bl_distance_s": ("experiments.bl_distance",),
    "rmt.goe_dense_s": ("complexity.goe_eigenvalues",),
    "rmt.goe_tridiagonal_s": ("complexity.goe_eigenvalues", "lrc_hessian.goe_eigenvalues"),
    "rmt.goe_eigenvalues_calls": ("complexity.goe_eigenvalues", "lrc_hessian.goe_eigenvalues"),
    "complexity.expected_crt_mc_s": ("cli.expected_crt_mc",),
    "complexity.expected_crt_mc_self_s": ("cli.expected_crt_mc",),
    "lrc_hessian.sample_g_dense_s": ("lrc_hessian.sample_g",),
    "lrc_hessian.sample_g_secular_s": ("lrc_hessian.sample_g",),
    "lrc_hessian.sample_g_self_s": ("lrc_hessian.sample_g",),
    "lrc_hessian.edge_tail_s": ("cli.edge_tail",),
    "config.parse_config_file_s": ("cli.parse_config_file",),
    "complexity.predictions_s": ("cli.predictions",),
}


def layer_metrics(setup_files: list[dict], pass_files: list[dict]) -> tuple[dict, dict]:
    """Per-layer figures: set-up ones as the median over the traced predict
    runs, the rest from the span files of the one traced pass (one file per
    CLI invocation).

    Returns (values, missing) where missing maps a metric name to the reason
    it could not be measured.
    """
    values = {}
    if setup_files:
        rows = [_setup_layers(f) for f in setup_files]
        values.update({k: statistics.median(r[k] for r in rows) for k in rows[0]})
    joined = []
    for f in pass_files:  # re-base parent indices onto the joined list
        base = len(joined)
        joined.extend([s[0], s[1] + base if s[1] >= 0 else -1, *s[2:]] for s in f["spans"])
    values.update(_pass_layers({"spans": joined}))
    gone = {}
    for f in setup_files + pass_files:
        gone.update(f["missing"])
    missing = {}
    for metric, hooks in METRIC_HOOKS.items():
        lost = [f"trivlab.{h}" for h in hooks if f"trivlab.{h}" in gone]
        if lost:
            missing[metric] = "; ".join(gone[h] for h in lost)
            values.pop(metric, None)
    unsplit = sorted({str(s[4].get("method")) for s in joined
                      if s[0] == "goe_eigenvalues" and s[4].get("method") not in GOE_METHODS})
    if unsplit:
        for metric in ("rmt.goe_dense_s", "rmt.goe_tridiagonal_s"):
            missing.setdefault(metric, f"goe_eigenvalues called with method {', '.join(unsplit)}, "
                                       "which rmt resolves internally")
            values.pop(metric, None)
    return values, missing


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))

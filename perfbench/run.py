"""xi-ineq benchmark: CLI workloads in fresh processes, checked against mpmath.

Usage (from the repository root):

    python3 perfbench/run.py --workload {scan-grid,cross-check,montecarlo} \
        --seed N --seconds S --trace {0,1}

Each repetition runs the workload's ``xi-ineq`` command lines through
``xi_ineq.cli.main`` in a fresh interpreter, because every cache of the library
lives in its process and a CLI user pays for filling them on every call.
Repetitions start while the next one is expected to end within ``--seconds``
(at least one runs).  The outputs are checked against mpmath after the timing,
outside the timed region.

``--trace 0`` times untraced repetitions and reports the end-to-end metrics.
``--trace 1`` alternates an untraced and a traced repetition and reports the
per-layer metrics of the traced ones (see ``tracer.py``) plus the tracing
overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it say what
each repetition did, with the exit status of every CLI call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
from statistics import median, median_low
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 165.0        # the whole run, set-up and checks included
SETUP_SAMPLES = 5           # fresh interpreters timed for setup_s per run
ACCURACY_FLOOR = 1e-14


class BenchError(RuntimeError):
    pass


def _run_worker(spec: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spec = dict(spec, spawned=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise BenchError("worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["module"].startswith(str(SRC)):
        raise BenchError(f"xi_ineq imported from {result['module']}, not {SRC}")
    return result


class Runner:
    def __init__(self, wl: workloads.Workload, seconds: int):
        self.wl = wl
        self.seconds = seconds
        self.run_dir = OUT / f"{wl.name}-{wl.seed}-{os.getpid()}"
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.reps: list = []
        self.setup_s: list = []

    def rep(self, trace: bool) -> dict:
        rep_dir = self.run_dir / f"rep{len(self.reps)}"
        rep_dir.mkdir(parents=True)
        calls = [argv + ["--out", str(rep_dir / f"{label}.json")]
                 for label, argv in self.wl.calls]
        spec = {"calls": calls, "poly": self.wl.poly,
                "poly_out": str(rep_dir / "poly.json"), "trace": int(trace),
                "trace_out": str(OUT / f"trace-{self.wl.name}-{self.wl.seed}.npz")}
        result = _run_worker(spec, self.deadline)
        result["traced"] = trace
        result["reports"] = self._load_reports(rep_dir)
        self.reps.append(result)
        self.setup_s.append(result["setup_s"])
        return result

    def _load_reports(self, rep_dir: Path) -> dict:
        reports = {}
        for label in [label for label, _ in self.wl.calls] + ["poly"]:
            path = rep_dir / f"{label}.json"
            if path.is_file():
                reports[label] = json.loads(path.read_text(encoding="utf-8"))
        return reports

    def measure(self, trace: bool) -> None:
        """Repeat (untraced, or untraced + traced) while the next round is
        expected to end within the run's seconds."""
        t0 = time.monotonic()
        while True:
            r0 = time.monotonic()
            self.rep(False)
            if trace:
                self.rep(True)
            now = time.monotonic()
            if now - t0 + (now - r0) > self.seconds:
                break
        if not trace:
            while len(self.setup_s) < SETUP_SAMPLES:
                spec = {"calls": [], "poly": None, "poly_out": "", "trace": 0,
                        "trace_out": ""}
                self.setup_s.append(_run_worker(spec, self.deadline)["setup_s"])

    def check(self) -> list:
        ref = checks.Reference()
        per_rep = []
        for rep in self.reps:
            per_rep.append(checks.CHECKS[self.wl.name](self.wl, rep["reports"], ref))
        return per_rep


def _tally(ops: list) -> tuple:
    """(attempted, failed) over the ops of every repetition."""
    return sum(len(o) for o in ops), sum(not op.ok for o in ops for op in o)


def end_to_end(runner: Runner, ops: list) -> dict:
    reps = runner.reps
    errs = [op.err for rep_ops in ops for op in rep_ops if op.err is not None]
    attempted, failed = _tally(ops)
    # -log10 of the worst |value - mpmath| / max(xi(sigma)^2, |ref|); errors
    # below 1e-14 are rounding noise and read as 14 digits, and a run in which
    # nothing could be checked has no verified digit
    digits = -math.log10(max(max(errs), ACCURACY_FLOOR)) if errs else 0.0
    return {
        "setup_s": (median(runner.setup_s), "s"),
        "verdict_s": (median([r["verdict_s"] for r in reps]), "s"),
        "ops_per_s": (median([len(o) / r["verdict_s"] for r, o in zip(reps, ops)]), "1/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
        "accuracy_digits": (digits, "digits"),
        "ok_ops_share": ((attempted - failed) / attempted, "1"),
    }


# (metric, unit, source).  Sources: ("calls"|"self_s"|"total_s"|"evals", span)
# read from the tracer's per-span totals, or a named derived counter.
PER_LAYER = [
    ("theta.J_tau.calls", "count", ("calls", "theta.J_tau")),
    ("theta.J_tau.self_s", "s", ("self_s", "theta.J_tau")),
    ("theta.theta_H.calls", "count", ("calls", "theta.theta_H")),
    ("theta.theta_H.self_s", "s", ("self_s", "theta.theta_H")),
    ("theta.theta_R.calls", "count", ("calls", "theta.theta_R")),
    ("theta.theta_R.self_s", "s", ("self_s", "theta.theta_R")),
    ("quadrature.integrate_finite.calls", "count", ("calls", "quadrature.integrate_finite")),
    ("quadrature.integrate_finite.evals", "count", ("evals", "quadrature.integrate_finite")),
    ("quadrature.integrate_finite.self_s", "s", ("self_s", "quadrature.integrate_finite")),
    ("quadrature.integrate_oscillatory_cos.evals", "count",
     ("evals", "quadrature.integrate_oscillatory_cos")),
    ("quadrature.integrate_eta_weighted.evals", "count",
     ("evals", "quadrature.integrate_eta_weighted")),
    ("quadrature.convergence_errors", "count", ("counter", "convergence_errors")),
    ("xi.xi.calls", "count", ("calls", "xi.xi")),
    ("xi.xi.total_s", "s", ("total_s", "xi.xi")),
    ("xi.U_sigma.calls", "count", ("calls", "xi.U_sigma")),
    ("xi.xi_mod_sq_via_U.total_s", "s", ("total_s", "xi.xi_mod_sq_via_U")),
    ("modulus.calG.calls", "count", ("calls", "modulus.calG")),
    ("modulus.calG.evals", "count", ("counter", "calG_evals")),
    ("modulus.calG.total_s", "s", ("total_s", "modulus.calG")),
    ("modulus.w_cos_transform.calls", "count", ("calls", "modulus.w_cos_transform")),
    ("modulus.w_cos_transform.total_s", "s", ("total_s", "modulus.w_cos_transform")),
    ("modulus.w_cos_transform.distinct_ratio", "1", ("derived", "distinct_ratio")),
    ("modulus.W_sigma.calls", "count", ("calls", "modulus.W_sigma")),
    ("modulus.constants.misses", "count", ("cache", "misses")),
    ("modulus.constants.hits", "count", ("cache", "hits")),
    ("modulus.S_T_constants.total_s", "s", ("total_s", "modulus.S_T_constants")),
    ("modulus.modulus_rhs_via_J.total_s", "s", ("total_s", "modulus.modulus_rhs_via_J")),
    ("modulus.a_coeff.total_s", "s", ("total_s", "modulus.a_coeff")),
    ("inequality.scan_inequality.total_s", "s", ("total_s", "inequality.scan_inequality")),
    ("inequality.autocorrelation_A.calls", "count", ("calls", "inequality.autocorrelation_A")),
    ("inequality.K_fourier.calls", "count", ("calls", "inequality.K_fourier")),
    ("inequality.sampler_build.total_s", "s", ("total_s", "inequality.sampler_build")),
    ("inequality.sample_indexed.total_s", "s", ("total_s", "inequality.sample_indexed")),
    ("inequality.sample_indexed.proposals", "count", ("counter", "proposals")),
    ("inequality.sample_indexed.accept_ratio", "1", ("derived", "accept_ratio")),
    ("inequality.check_poly_min_criterion.total_s", "s",
     ("total_s", "inequality.check_poly_min_criterion")),
] + [(f"cli.{c}.total_s", "s", ("total_s", f"cli.{c}"))
     for c in ("scan", "autocorr", "verify-modulus", "constants", "coeffs",
               "selftest", "montecarlo")]


def _layer_value(summary: dict, source: tuple) -> float:
    kind, key = source
    if kind == "counter":
        return summary[key]
    if kind == "cache":
        return summary["cache_info"].get("modulus.constants", {}).get(key, 0)
    if kind == "derived":
        # a ratio whose base is 0 (the layer did not run) reads 0
        if key == "distinct_ratio":
            calls = summary["per_name"]["modulus.w_cos_transform"]["calls"]
            return summary["w_cos_distinct"] / calls if calls else 0.0
        return summary["draws"] / summary["proposals"] if summary["proposals"] else 0.0
    return summary["per_name"][key][kind]


def per_layer(runner: Runner) -> tuple:
    traced = [r for r in runner.reps if r["traced"]]
    plain = [r for r in runner.reps if not r["traced"]]
    summaries = [r["trace"] for r in traced]
    for s in summaries:
        if s["open_spans"] or s["negative_self_spans"]:
            raise BenchError(f"tracer invariant broken: {s['open_spans']} open spans, "
                             f"{s['negative_self_spans']} negative self times")
    metrics, spread = {}, {}
    for name, unit, source in PER_LAYER:
        values = [_layer_value(s, source) for s in summaries]
        if unit == "count":
            metrics[name] = (median_low(values), unit)
            if len(set(values)) > 1:
                spread[name] = values
        else:
            metrics[name] = (median(values), unit)
    untraced = median([r["verdict_s"] for r in plain])
    overhead = median([r["verdict_s"] for r in traced]) - untraced
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced, "1")
    return metrics, spread, sorted(set(summaries[0]["absent"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xi_ineq" / "cli.py").is_file():
        print(f"perfbench: no xi_ineq sources under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(wl, args.seconds)
    try:
        runner.measure(bool(args.trace))
        ops = runner.check()
        attempted, failed = _tally(ops)
        if args.trace:
            metrics, spread, absent = per_layer(runner)
        else:
            metrics, spread, absent = end_to_end(runner, ops), {}, []
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.run_dir, ignore_errors=True)

    print(f"workload {wl.name} seed {wl.seed} params {json.dumps(wl.params)}")
    for i, rep in enumerate(runner.reps):
        exits = [(c["argv"][0], c["exit"] if c["error"] is None else "raised")
                 for c in rep["calls"]]
        print(f"rep {i} traced={int(rep['traced'])} setup_s={rep['setup_s']:.4f} "
              f"verdict_s={rep['verdict_s']:.4f} ops={len(ops[i])} "
              f"failed={_tally([ops[i]])[1]} exits={exits}")
        for c in rep["calls"]:
            if c["error"] is not None:
                print(f"  {c['argv'][0]} raised: {c['error'].strip().splitlines()[-1]}")
    n_plain = sum(not r["traced"] for r in runner.reps)
    print(f"samples: verdict_s n={n_plain}, setup_s n={len(runner.setup_s)}; "
          "no percentile has ten samples beyond it, so medians only")
    if spread:
        print(f"counts that differ between traced repetitions: {json.dumps(spread)}")
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

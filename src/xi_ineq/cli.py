"""Command-line entry point.

Subcommands
    constants          S/T constants per method, sign facts, cross-agreement
    verify-modulus     representation routes vs the theta-integral oracle
    scan               positivity scan of the represented 2|xi|^2
    coeffs             power-series table with sign/bound checks
    montecarlo         E[cos(t X)] sampling vs quadrature and the closed bound
    autocorr           autocorrelation table and first-zero scan
    reproduce-appendix fixed-truncation reproduction of the published constants
    selftest           reduced-grid invariant suite

Exit codes: 0 all checks pass; 1 a mathematical check failed (evidence in the
report); 2 numerical/convergence failure or indeterminate; 3 usage error.
Reports write each float as Python's repr, the shortest string that parses
back to the same binary64, so JSON round-trips exactly (infinities and nan as
Infinity and NaN); repeated runs with one seed are byte-identical up to
`timestamp`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

from . import __version__
from .config import DEFAULT_CONFIG, EvalConfig, config_from_mapping, parse_config_text
from .errors import ConvergenceError, DomainError, EvaluationError
from .inequality import (autocorrelation_A, mc_check, mm_bound, orthogonalization_scan,
                         scan_inequality)
from .modulus import (S_T_constants, a_coeff, modulus_rhs, modulus_rhs_via_J,
                      power_series_coeffs)
from .theta import J_tau, theta_G, theta_H
from .quadrature import integrate_finite
from .xi import xi, xi_mod_sq, xi_mod_sq_via_U, xi_real

_EXIT_PASS, _EXIT_FAIL, _EXIT_NUMERIC, _EXIT_USAGE = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(_EXIT_USAGE)


def render_json(obj) -> str:
    """The report as one line of compact JSON; objects JSON lacks become strings."""
    return json.dumps(obj, separators=(",", ":"), default=str) + "\n"


def render_csv(rows: list) -> str:
    """The rows under a header of the first row's keys."""
    columns = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row[c] for c in columns] for row in rows)
    return buf.getvalue()


def _finish(args, command: str, inputs: dict, outputs: dict, rows: list,
            status: str) -> int:
    """Write the report (or, under --format csv, its rows) to --out or stdout and
    return the exit code of `status`: pass 0, fail 1, anything else 2."""
    report = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "status": status,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "library_version": __version__,
    }
    text = render_csv(rows) if args.format == "csv" else render_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return {"pass": _EXIT_PASS, "fail": _EXIT_FAIL}.get(status, _EXIT_NUMERIC)


def _finite_float(text: str) -> float:
    """The argparse type of every one-number flag: a bad, infinite or nan number
    is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _floats(text: str) -> list:
    """The argparse type of every comma-list flag: a bad list is a usage error."""
    values = [_finite_float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args, cfg: EvalConfig) -> int:
    sigmas = args.sigma
    if args.paper_truncation:
        methods = {"B": ["B_series"], "C": ["C_inversion"]}[args.paper_truncation]
    elif args.method == "all":
        methods = ["A_direct", "B_series", "C_inversion"]
    else:
        methods = [args.method]

    rows = []
    agree_ok = True
    signs_ok = True
    for sigma in sigmas:
        values = {}
        for method in methods:
            rep = S_T_constants(sigma, method, cfg,
                                paper_truncation=bool(args.paper_truncation))
            values[method] = (rep.s_value, rep.t_value)
            rows.append({
                "sigma": sigma, "method": method,
                "paper_truncation": bool(args.paper_truncation),
                "S": rep.s_value, "T": rep.t_value, "err_est": rep.err_est,
                "truncation": json.dumps(rep.truncation),
            })
        if 0.5 < sigma < 1.0 and not args.paper_truncation:
            s_val, t_val = next(iter(values.values()))
            signs_ok &= s_val > 0.0 and t_val < 0.0 and s_val + 0.25 * t_val > 0.0
        if len(values) > 1:
            (s0, t0), *rest = values.values()
            for s1, t1 in rest:
                agree_ok &= abs(s1 - s0) <= 1e-6 * abs(s0)
                agree_ok &= abs(t1 - t0) <= 1e-6 * abs(t0)

    status = "pass" if (agree_ok and signs_ok) else "fail"
    return _finish(args, "constants", {"sigma": sigmas, "methods": methods,
                                       "paper_truncation": args.paper_truncation},
                   {"rows": rows, "sign_facts_ok": signs_ok, "methods_agree": agree_ok},
                   rows, status)


def cmd_verify_modulus(args, cfg: EvalConfig) -> int:
    sigmas, ts = args.sigma, args.t_list

    def one(sigma, t):
        oracle = xi_mod_sq(sigma, t, cfg)
        scale = max(xi_real(sigma, cfg) ** 2, oracle)
        rep = modulus_rhs(sigma, t, cfg)
        j_route = 0.5 * modulus_rhs_via_J(sigma - 0.5, t, cfg)
        return {
            "sigma": sigma, "t": t, "oracle": oracle,
            "representation": rep, "J_eta_route": j_route,
            "rel_err": abs(rep - oracle) / scale,
            "rel_err_J": abs(j_route - oracle) / scale,
        }

    rows = [one(sigma, t) for sigma in sigmas for t in ts]
    worst = max(row["rel_err"] for row in rows)
    worst_j = max(row["rel_err_J"] for row in rows)
    status = "pass" if (worst <= 1e-6 and worst_j <= 1e-5) else "fail"
    return _finish(args, "verify-modulus", {"sigma": sigmas, "t": ts},
                   {"rows": rows, "max_rel_err": worst, "max_rel_err_J": worst_j},
                   rows, status)


def cmd_scan(args, cfg: EvalConfig) -> int:
    sigmas = args.sigma
    rows = []
    status = "pass"
    summaries = []
    for sigma in sigmas:
        rep = scan_inequality(sigma, args.t_max, args.step, args.route, cfg)
        for t, v in zip(rep.grid, rep.values):
            rows.append({"sigma": sigma, "t": t, "value": v})
        summaries.append({
            "sigma": sigma, "min_value": rep.min_value, "min_t": rep.min_t,
            "violations": rep.violations, "indeterminate": rep.indeterminate,
            "err_est": rep.err_est,
        })
        if rep.violations:
            status = "fail"          # a certified nonpositive value is major news
        elif rep.indeterminate and status == "pass":
            status = "indeterminate"
    return _finish(args, "scan", {"sigma": sigmas, "t_max": args.t_max,
                                  "step": args.step, "route": args.route},
                   {"rows": rows, "summaries": summaries}, rows, status)


def cmd_coeffs(args, cfg: EvalConfig) -> int:
    sigma = args.sigma
    tau = sigma - 0.5
    try:
        abs(args.t_check) ** (2 * max(args.kmax, 0))    # the partial sum's largest power
    except OverflowError:
        raise DomainError(f"--t-check {args.t_check!r} to the power {2 * args.kmax} "
                          f"overflows a double") from None
    series = power_series_coeffs(sigma, args.kmax, cfg)
    rows = []
    ok = True
    for k, c in enumerate(series.coeffs):
        sign_ok = (c > 0.0) if k % 2 == 0 else (c < 0.0)
        bound = 48.0 * math.pi ** 8 * (math.exp(15.0) * 3.0 ** (2 * k + 1)
                                       + math.factorial(k)) / math.factorial(2 * k)
        bound_ok = abs(c) <= bound
        a_k = a_coeff(tau, k, cfg)
        ok &= sign_ok and bound_ok and a_k > 0.0
        rows.append({"k": k, "a": a_k, "c": c, "sign_ok": sign_ok,
                     "bound": bound, "bound_ok": bound_ok})
    partial = sum(c * args.t_check ** (2 * k) for k, c in enumerate(series.coeffs))
    oracle = xi_mod_sq(sigma, args.t_check, cfg)
    match = abs(partial - oracle) <= 1e-5 * abs(oracle)
    ok &= match
    status = "pass" if ok else "fail"
    return _finish(args, "coeffs", {"sigma": sigma, "kmax": args.kmax,
                                    "t_check": args.t_check},
                   {"rows": rows, "partial_sum_at_t_check": partial,
                    "oracle_at_t_check": oracle, "partial_sum_matches": match},
                   rows, status)


def cmd_montecarlo(args, cfg: EvalConfig) -> int:
    """As in `scan`, a row is `violated` only when the estimate lies more than
    4 standard errors below the bound, `holds` when it lies more than 4 se
    above it, and `indeterminate` in between."""
    sigma = args.sigma
    rows = []
    for rep in mc_check(sigma, args.t_list, args.samples, args.seed, cfg):
        t = rep.t
        bound = mm_bound(sigma, t, cfg)
        within = abs(rep.estimate - rep.deterministic_value) <= 4.0 * max(rep.std_error, 1e-12)
        margin = 4.0 * rep.std_error
        if rep.estimate - margin > bound:
            verdict = "holds"
        elif rep.estimate + margin < bound:
            verdict = "violated"
        else:
            verdict = "indeterminate"
        rows.append({
            "sigma": sigma, "t": t, "estimate": rep.estimate,
            "std_error": rep.std_error, "deterministic": rep.deterministic_value,
            "bound_rhs": bound, "within_4se": within,
            "inequality_holds": rep.estimate > bound, "verdict": verdict,
            "acceptance_rate": rep.acceptance_rate, "seed": rep.seed,
            "n_samples": rep.n_samples,
        })
    verdicts = {row["verdict"] for row in rows}
    if "violated" in verdicts or not all(row["within_4se"] for row in rows):
        status = "fail"
    elif "indeterminate" in verdicts:
        status = "indeterminate"
    else:
        status = "pass"
    return _finish(args, "montecarlo", {"sigma": sigma, "t": args.t_list,
                                        "samples": args.samples, "seed": args.seed},
                   {"rows": rows}, rows, status)


def cmd_autocorr(args, cfg: EvalConfig) -> int:
    sigma = args.sigma
    scan = orthogonalization_scan(sigma, args.t_max, args.step, cfg)   # rejects bad step, t_max
    # the scan's walk holds A at every grid point but t = 0, where K^(0)/K^(0) is 1.0
    rows = [{"sigma": sigma, "t": t, "A": v} for t, v in [(0.0, 1.0)] + scan.pop("walk")]
    bounded = all(abs(row["A"]) <= 1.0 + 1e-9 for row in rows)
    status = "pass" if (bounded and scan["iota_found"] is None) else "fail"
    return _finish(args, "autocorr", {"sigma": sigma, "t_max": args.t_max,
                                      "step": args.step},
                   {"rows": rows, "zero_scan": scan, "a0_is_one": True,
                    "bounded_by_one": bounded}, rows, status)


_PUBLISHED = {
    "B": {"S": 0.473929, "T": -0.0218449},
    "C": {"S": 0.38952, "T": -0.0232205},
}


def cmd_reproduce_appendix(args, cfg: EvalConfig) -> int:
    rows = []
    ok = True
    for label, method in (("B", "B_series"), ("C", "C_inversion")):
        rep = S_T_constants(0.75, method, cfg, paper_truncation=True)
        for name, got in (("S", rep.s_value), ("T", rep.t_value)):
            want = _PUBLISHED[label][name]
            rel = abs(got - want) / abs(want)
            ok &= rel <= 1e-4
            rows.append({"recipe": label, "constant": name, "computed": got,
                         "published": want, "rel_err": rel,
                         "matches_1e4": rel <= 1e-4,
                         "truncation": json.dumps(rep.truncation)})
    return _finish(args, "reproduce-appendix", {"sigma": 0.75}, {"rows": rows},
                   rows, "pass" if ok else "fail")


def cmd_selftest(args, cfg: EvalConfig) -> int:
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    r = integrate_finite(lambda x: x * x, 0.0, 1.0, cfg)
    check("quad_poly", abs(r.value - 1.0 / 3.0) < 1e-13, r.value)
    r = integrate_finite(math.sin, 0.0, math.pi, cfg)
    check("quad_sin", abs(r.value - 2.0) < 1e-12, r.value)
    # int_0^inf e^{-x} cos 3x dx, in panels no wider than a half period
    x_max = cfg.truncation_point(1.0)
    r = integrate_finite(lambda x: math.exp(-x) * math.cos(3.0 * x), 0.0, x_max, cfg,
                         min_panels=math.ceil(3.0 * x_max / math.pi))
    check("quad_osc", abs(r.value - 0.1) < 1e-11, r.value)

    for y in (0.3, 2.0):
        lhs, rhs = theta_G(y, cfg), theta_G(1.0 / y, cfg) / y
        check(f"theta_G_inversion_{y}", abs(lhs - rhs) <= 1e-12 * abs(lhs), lhs - rhs)
        lhs, rhs = theta_H(y, cfg), theta_H(1.0 / y, cfg) / y
        check(f"theta_H_inversion_{y}", abs(lhs - rhs) <= 1e-12 * abs(lhs), lhs - rhs)

    d = J_tau(0.25, 1.0, 0, cfg) - J_tau(0.25, 1.0, 0, cfg, naive=True)
    check("J_divisor_vs_naive", abs(d) < 1e-13, d)

    reps = {m: S_T_constants(0.75, m, cfg) for m in ("A_direct", "B_series", "C_inversion")}
    s_vals = [r.s_value for r in reps.values()]
    t_vals = [r.t_value for r in reps.values()]
    agree = (max(s_vals) - min(s_vals) <= 1e-6 * abs(s_vals[0])
             and max(t_vals) - min(t_vals) <= 1e-6 * abs(t_vals[0]))
    check("constants_three_way", agree, {"S": s_vals, "T": t_vals})

    oracles = {}
    for t in (0.0, 5.0):
        rep, oracles[t] = modulus_rhs(0.75, t, cfg), xi_mod_sq(0.75, t, cfg)
        scale = max(xi_real(0.75, cfg) ** 2, oracles[t])
        check(f"modulus_identity_t{t}", abs(rep - oracles[t]) <= 1e-6 * scale, rep - oracles[t])
    u_route, oracle = xi_mod_sq_via_U(0.75, 5.0, cfg), oracles[5.0]
    check("correlation_route_t5", abs(u_route - oracle) <= 1e-6 * abs(oracle),
          u_route - oracle)

    check("xi_symmetry", abs(xi(complex(0.3, 2.0), cfg) - xi(complex(0.7, -2.0), cfg)) < 1e-12, None)
    a0 = autocorrelation_A(0.75, 0.0, cfg)
    check("autocorr_at_0", abs(a0 - 1.0) < 1e-12, a0)

    status = "pass" if all(c["ok"] for c in checks) else "fail"
    return _finish(args, "selftest", {}, {"checks": checks}, checks, status)


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _subcommand(subs, name: str, help_text: str, sigma: str | None = None):
    """A subparser with the report flags every subcommand reads, plus a comma
    list --sigma (with this default) for the subcommands that loop over it."""
    sub = subs.add_parser(name, help=help_text)
    if sigma is not None:
        sub.add_argument("--sigma", type=_floats, default=sigma,
                         help="sigma value or comma list")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", default="json", choices=["csv", "json"])
    sub.add_argument("--config", default=None, help="flat key=value config file")
    return sub


def build_parser() -> _Parser:
    parser = _Parser(prog="xi-ineq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(subs, "constants", "S/T constants per method", sigma="0.75")
    p.add_argument("--method", default="all",
                   choices=["A_direct", "B_series", "C_inversion", "all"])
    p.add_argument("--paper-truncation", dest="paper_truncation", default=None,
                   choices=["B", "C"], help="use a published fixed-truncation recipe")
    p = _subcommand(subs, "verify-modulus", "representation vs oracle",
                    sigma="0.6,0.75")
    p.add_argument("--t-list", dest="t_list", type=_floats, default="0,1,5,10")
    p = _subcommand(subs, "scan", "positivity scan", sigma="0.75")
    p.add_argument("--t-max", dest="t_max", type=_finite_float, default=20.0)
    p.add_argument("--step", type=_finite_float, default=0.25)
    p.add_argument("--route", default="representation",
                   choices=["representation", "J_eta"])
    p = _subcommand(subs, "coeffs", "power-series coefficients")
    p.add_argument("--sigma", type=_finite_float, default=0.75, help="one sigma value")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--t-check", dest="t_check", type=_finite_float, default=1.0)
    p = _subcommand(subs, "montecarlo", "expectation inequality, sampled")
    p.add_argument("--sigma", type=_finite_float, default=0.75, help="one sigma value")
    p.add_argument("--t-list", dest="t_list", type=_floats, default="1,5,10")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=12345)
    p = _subcommand(subs, "autocorr", "autocorrelation + zero scan")
    p.add_argument("--sigma", type=_finite_float, default=0.75, help="one sigma value")
    p.add_argument("--t-max", dest="t_max", type=_finite_float, default=30.0)
    p.add_argument("--step", type=_finite_float, default=0.5)
    _subcommand(subs, "reproduce-appendix", "published fixed-truncation constants")
    _subcommand(subs, "selftest", "reduced invariant suite")
    return parser


_COMMANDS = {
    "constants": cmd_constants,
    "verify-modulus": cmd_verify_modulus,
    "scan": cmd_scan,
    "coeffs": cmd_coeffs,
    "montecarlo": cmd_montecarlo,
    "autocorr": cmd_autocorr,
    "reproduce-appendix": cmd_reproduce_appendix,
    "selftest": cmd_selftest,
}


def _load_eval_config(args) -> EvalConfig:
    path = args.config or os.environ.get("XI_INEQ_CONFIG")
    if not path:
        return DEFAULT_CONFIG
    with open(path, "r", encoding="utf-8") as fh:
        mapping = parse_config_text(fh.read())
    return config_from_mapping(mapping)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_eval_config(args)
    except (OSError, ValueError) as exc:
        print(f"xi-ineq: config error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        return _COMMANDS[args.command](args, cfg)
    except (ConvergenceError, EvaluationError) as exc:
        print(f"xi-ineq: numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except DomainError as exc:
        print(f"xi-ineq: domain error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

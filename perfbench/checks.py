"""Correctness checks of workload outputs against an mpmath reference.

The reference is the completed-zeta formula of ``tests/conftest.py`` at 35
digits.  Tolerances are the library's own:

  * 1e-6, scaled by max(xi(sigma)^2, |ref|), for the representation and the
    theta-integral oracle (criterion 3's scaling);
  * 1e-5, same scaling, for the J/eta route and the power-series coefficients;
  * an absolute 1e4 * quad_abs_tol (1e-9 with the default config) for A(t),
    because K(t) cancels to about 1e-23 at t = 30;
  * 4 standard errors for a Monte-Carlo estimate.

Every check yields one ``Op``; ``err`` is its scaled deviation from mpmath when
the op has an mpmath reference, else None.  A report that is missing (the
CLI raised or exited before writing it) yields its expected ops, all failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

import workloads as W

REP_TOL = 1e-6
J_TOL = 1e-5
A_TOL = 1e4 * 1e-13
MC_SE = 4.0
SELFTEST_CHECKS = 14        # checks in ``xi-ineq selftest`` at the time of writing
COEFF_T_CHECK = 1.0         # coefficient errors are weighed at the CLI's --t-check
_CAUCHY_N, _CAUCHY_R = 64, 2.0


@dataclass
class Op:
    ok: bool
    err: float | None = None


class Reference:
    """Cached mpmath values of xi and |xi|^2."""

    def __init__(self, dps: int = 35):
        self.dps = dps
        self._mod_sq: dict = {}
        self._coeffs: dict = {}

    def _xi(self, s):
        return 0.5 * s * (s - 1) * mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)

    def mod_sq(self, sigma: float, t: float) -> float:
        """|xi(sigma - it)|^2."""
        key = (sigma, t)
        if key not in self._mod_sq:
            with mp.workdps(self.dps):
                self._mod_sq[key] = float(abs(self._xi(mp.mpc(sigma, -t))) ** 2)
        return self._mod_sq[key]

    def scale(self, sigma: float, ref: float) -> float:
        return max(self.mod_sq(sigma, 0.0), abs(ref))

    def scaled_err(self, sigma: float, t: float, value: float) -> float:
        ref = self.mod_sq(sigma, t)
        return abs(value - ref) / self.scale(sigma, ref)

    def taylor(self, sigma: float, kmax: int) -> list:
        """Coefficients c_k of |xi(sigma-it)|^2 = sum c_k t^{2k}, from the
        Cauchy integral of xi(sigma-iz) xi(sigma+iz) on |z| = 2."""
        key = (sigma, kmax)
        if key not in self._coeffs:
            with mp.workdps(self.dps):
                zs = [_CAUCHY_R * mp.expjpi(mp.mpf(2 * j) / _CAUCHY_N)
                      for j in range(_CAUCHY_N)]
                fs = [self._xi(sigma - 1j * z) * self._xi(sigma + 1j * z) for z in zs]
                self._coeffs[key] = [
                    float(mp.re(mp.fsum(f * z ** (-2 * k) for f, z in zip(fs, zs))
                                / _CAUCHY_N))
                    for k in range(kmax + 1)]
        return self._coeffs[key]


def _poly(sigma: float, t: float) -> float:
    return (t * t + (1.0 - sigma) ** 2) * (t * t + sigma * sigma)


def _grid(t_max: float, step: float) -> list:
    return [k * step for k in range(int(math.floor(t_max / step + 1e-9)) + 1)]


def _rows(report) -> list:
    return report["outputs"]["rows"] if report else []


def _by_key(rows, *keys) -> dict:
    return {tuple(round(float(r[k]), 9) for k in keys): r for r in rows}


def check_scan_grid(wl: W.Workload, reports: dict, ref: Reference) -> list:
    ops = []
    for i, sigma in enumerate(wl.params["scan_sigmas"]):
        rows = _by_key(_rows(reports.get(f"scan-{i}")), "sigma", "t")
        for t in _grid(W.SCAN_T_MAX, W.SCAN_STEP):
            row = rows.get((round(sigma, 9), round(t, 9)))
            if row is None:
                ops.append(Op(False))
                continue
            err = ref.scaled_err(sigma, t, 0.5 * row["value"])
            ops.append(Op(err <= REP_TOL, err))

    sigma = wl.params["autocorr_sigma"]
    rows = _by_key(_rows(reports.get("autocorr")), "t")
    k0 = ref.mod_sq(sigma, 0.0) / _poly(sigma, 0.0)
    for t in _grid(W.AUTOCORR_T_MAX, W.AUTOCORR_STEP):
        row = rows.get((round(t, 9),))
        if row is None:
            ops.append(Op(False))
            continue
        # A(t) = K(t)/K(0) with K(t) proportional to |xi|^2/poly; A(0) = 1 is
        # the t = 0 value, so |A - A_ref| is already criterion 3's scaling
        err = abs(row["A"] - ref.mod_sq(sigma, t) / _poly(sigma, t) / k0)
        ops.append(Op(err <= A_TOL, err))
    return ops


def check_cross_check(wl: W.Workload, reports: dict, ref: Reference) -> list:
    ops = []
    sigmas = wl.params["sigmas"]

    rows = _by_key(_rows(reports.get("verify-modulus")), "sigma", "t")
    for sigma in sigmas:
        for t in W.VERIFY_T:
            row = rows.get((round(sigma, 9), round(t, 9)))
            if row is None:
                ops.append(Op(False))
                continue
            errs = [ref.scaled_err(sigma, t, row[k])
                    for k in ("representation", "oracle", "J_eta_route")]
            ok = errs[0] <= REP_TOL and errs[1] <= REP_TOL and errs[2] <= J_TOL
            ops.append(Op(ok, max(errs)))

    by_method = {(round(float(r["sigma"]), 9), r["method"]): r
                 for r in _rows(reports.get("constants"))}
    for sigma in sigmas:
        base = by_method.get((round(sigma, 9), "B_series"))
        for method in ("A_direct", "B_series", "C_inversion"):
            row = by_method.get((round(sigma, 9), method))
            if row is None or base is None:
                ops.append(Op(False))
                continue
            s_val, t_val = row["S"], row["T"]
            signs = s_val > 0.0 and t_val < 0.0 and s_val + 0.25 * t_val > 0.0
            agree = (abs(s_val - base["S"]) <= REP_TOL * abs(base["S"])
                     and abs(t_val - base["T"]) <= REP_TOL * abs(base["T"]))
            ops.append(Op(signs and agree))

    sigma = wl.params["coeff_sigma"]
    rows = {int(r["k"]): r for r in _rows(reports.get("coeffs"))}
    want = ref.taylor(sigma, W.COEFFS_KMAX)
    scale = ref.scale(sigma, ref.mod_sq(sigma, COEFF_T_CHECK))
    for k in range(W.COEFFS_KMAX + 1):
        row = rows.get(k)
        if row is None:
            ops.append(Op(False))
            continue
        c = row["c"]
        bound = 48.0 * math.pi ** 8 * (math.exp(15.0) * 3.0 ** (2 * k + 1)
                                       + math.factorial(k)) / math.factorial(2 * k)
        sign_ok = (c > 0.0) if k % 2 == 0 else (c < 0.0)
        err = abs(c - want[k]) * COEFF_T_CHECK ** (2 * k) / scale
        ops.append(Op(sign_ok and abs(c) <= bound and row["a"] > 0.0 and err <= J_TOL, err))

    report = reports.get("selftest")
    checks = report["outputs"]["checks"] if report else []
    ops.extend(Op(bool(c["ok"])) for c in checks)
    ops.extend(Op(False) for _ in range(SELFTEST_CHECKS - len(checks)))

    poly = reports.get("poly")
    if poly is None:
        ops.append(Op(False))
    else:
        sigma = wl.params["poly_sigma"]
        grid = [i * 0.01 for i in range(100 * W.POLY_T + 1)]   # the criterion's grid
        ref_min = min(ref.mod_sq(sigma, t) for t in grid)
        err = abs(0.5 * poly["min_V"] - ref_min) / ref.scale(sigma, ref_min)
        ops.append(Op(poly["passes_threshold"] and err <= REP_TOL, err))
    return ops


def check_montecarlo(wl: W.Workload, reports: dict, ref: Reference) -> list:
    sigma = wl.params["sigma"]
    rows = _by_key(_rows(reports.get("montecarlo")), "t")
    ops = []
    norm = None
    for t in W.MC_T:
        row = rows.get((round(t, 9),))
        if row is None:
            ops.append(Op(False))
            continue
        est, se = row["estimate"], row["std_error"]
        det, bound = row["deterministic"], row["bound_rhs"]
        ok = abs(est - det) <= MC_SE * max(se, 1e-12) and det > bound
        # det - bound = 2|xi(sigma-it)|^2 / (Z poly(t)) with Z = int W e^{-sigma x};
        # the first t fixes Z from mpmath, the others are then checked values
        gap = (det - bound) * _poly(sigma, t)
        err = None
        if norm is None:
            norm = 2.0 * ref.mod_sq(sigma, t) / gap
        else:
            err = ref.scaled_err(sigma, t, 0.5 * norm * gap)
            ok = ok and err <= REP_TOL
        ops.append(Op(ok, err))
    return ops


CHECKS = {"scan-grid": check_scan_grid, "cross-check": check_cross_check,
          "montecarlo": check_montecarlo}

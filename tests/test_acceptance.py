"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion lines.

Criterion 2 checks the inversion recipe's S against the representation at
t = 0, evaluated in mpmath alone: S = 2 xi(sigma)^2 - sigma^2 (1-sigma)^2 z0
with z0 = int W e^{-sigma x} dx.  At sigma = 0.75 that gives 0.4956694956
(2 xi^2 = 0.4956876065, z0 = 5.1515265e-4).  The published companion value
0.38952 is not used as the expectation because it fails that identity: W > 0
forces S < 2 xi(sigma)^2 with a gap of only 1.8e-5, and S = 0.38952 would need
z0 = 3.02, about 5,860 times its value.  The published T, which passes, stays
the expectation for T.
"""

import math
import time
from dataclasses import replace

import pytest
from scipy.stats import kstest

from conftest import s_reference
from xi_ineq.config import DEFAULT_CONFIG
from xi_ineq.inequality import (K_fourier, K_sigma, XSigmaSampler,
                                autocorrelation_A, mc_check,
                                orthogonalization_scan, poly_approx_V,
                                scan_for_zero, truncation_levels,
                                verify_tail_bound)
from xi_ineq.modulus import (S_T_constants, constants, modulus_rhs,
                             modulus_rhs_via_J, power_series_coeffs)
from xi_ineq.quadrature import integrate_finite
from xi_ineq.theta import sup_constant_C
from xi_ineq.xi import U_sigma, xi, xi_mod_sq, xi_mod_sq_via_U, xi_real

CFG = DEFAULT_CONFIG


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {num:>2}: {tag}  {detail}")
    return ok


def test_criterion_01_fixed_truncation_series_recipe():
    t0 = time.time()
    rep = S_T_constants(0.75, "B_series", CFG, paper_truncation=True)
    rel_s = abs(rep.s_value - 0.473929) / 0.473929
    rel_t = abs(rep.t_value - (-0.0218449)) / 0.0218449
    elapsed = time.time() - t0
    ok = rel_s <= 1e-4 and rel_t <= 1e-4 and elapsed < 60.0
    assert report(1, ok,
                  f"S={rep.s_value:.6f} (rel {rel_s:.1e}), T={rep.t_value:.7f} "
                  f"(rel {rel_t:.1e}), {elapsed:.1f}s")


# the recipe's published companion S; it fails the t = 0 identity (module
# docstring) and is only reported, next to its distance from the reference
PUBLISHED_S_INVERSION = 0.38952


def test_criterion_02_fixed_truncation_inversion_recipe():
    s_ref = s_reference(0.75)
    t0 = time.time()
    rep = S_T_constants(0.75, "C_inversion", CFG, paper_truncation=True)
    rel_s = abs(rep.s_value - s_ref) / s_ref
    rel_t = abs(rep.t_value - (-0.0232205)) / 0.0232205
    elapsed = time.time() - t0
    rel_pub = abs(PUBLISHED_S_INVERSION - s_ref) / s_ref
    ok = rel_s <= 1e-4 and rel_t <= 1e-4 and elapsed < 60.0
    report(2, ok,
           f"S={rep.s_value:.10f} vs mpmath t=0 identity {s_ref:.10f} "
           f"(rel {rel_s:.1e}; published {PUBLISHED_S_INVERSION} is rel "
           f"{rel_pub:.2f} off), T={rep.t_value:.7f} (rel {rel_t:.1e}), "
           f"{elapsed:.1f}s")
    assert rel_t <= 1e-4 and elapsed < 60.0, "T or runtime regressed"
    assert rel_s <= 1e-4, (
        f"the recipe's S={rep.s_value:.10f} misses S = 2 xi(0.75)^2 - "
        f"0.75^2 0.25^2 int W e^{{-0.75 x}} dx = {s_ref:.10f} (mpmath); with the "
        "theta series cut at 5 terms and integrals on [1, 10] the truncation "
        "error is ~1e-10 relative, so the recipe should return that value")


def test_criterion_03_modulus_identity_grid():
    t0 = time.time()
    worst = 0.0
    for sigma in (0.55, 0.6, 0.75, 0.9):
        floor = xi_real(sigma, CFG) ** 2
        for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 14.2, 20.0):
            oracle = xi_mod_sq(sigma, t, CFG)
            dev = abs(modulus_rhs(sigma, t, CFG) - oracle) / max(floor, oracle)
            worst = max(worst, dev)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 300.0
    assert report(3, ok, f"max scaled deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_j_eta_route():
    t0 = time.time()
    worst = 0.0
    for tau in (0.1, 0.25):
        for t in (0.0, 1.0, 5.0):
            want = 2.0 * xi_mod_sq(tau + 0.5, t, CFG)
            got = modulus_rhs_via_J(tau, t, CFG)
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 300.0
    assert report(4, ok, f"max rel deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_correlation_route():
    worst = 0.0
    for t in (0.0, 5.0, 12.0):
        oracle = xi_mod_sq(0.75, t, CFG)
        worst = max(worst, abs(xi_mod_sq_via_U(0.75, t, CFG) - oracle) / oracle)
    assert report(5, worst <= 1e-6, f"max rel deviation {worst:.2e}")


def test_criterion_06_three_way_constants_and_signs():
    worst = 0.0
    for sigma in (0.55, 0.6, 0.75, 0.9):
        reps = [S_T_constants(sigma, m, CFG)
                for m in ("A_direct", "B_series", "C_inversion")]
        s0, t0_ = reps[0].s_value, reps[0].t_value
        for rep in reps[1:]:
            worst = max(worst, abs(rep.s_value - s0) / abs(s0),
                        abs(rep.t_value - t0_) / abs(t0_))
    signs_ok = True
    for k in range(20):
        sigma = 0.5 + 0.5 * (k + 0.5) / 20.0
        s_val, t_val = constants(sigma, CFG)
        signs_ok &= s_val > 0.0 and t_val < 0.0 and s_val + 0.25 * t_val > 0.0
    ok = worst <= 1e-6 and signs_ok
    assert report(6, ok, f"max cross-method rel {worst:.2e}, signs_ok={signs_ok}")


def test_criterion_07_power_series():
    series = power_series_coeffs(0.75, 10, CFG)
    signs_ok = all((c > 0.0) if k % 2 == 0 else (c < 0.0)
                   for k, c in enumerate(series.coeffs))
    bound_ok = all(
        abs(c) <= 48.0 * math.pi ** 8
        * (math.exp(15.0) * 3.0 ** (2 * k + 1) + math.factorial(k))
        / math.factorial(2 * k)
        for k, c in enumerate(series.coeffs))
    worst_sum = 0.0
    for t in (-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0):
        partial = sum(c * t ** (2 * k) for k, c in enumerate(series.coeffs[:9]))
        oracle = xi_mod_sq(0.75, t, CFG)
        worst_sum = max(worst_sum, abs(partial - oracle) / oracle)
    worst_moment = 0.0
    for k in range(5):
        moment = integrate_finite(
            lambda y, k=k: U_sigma(0.75, y, CFG, abs_tol=1e-16) * y ** (2 * k),
            0.0, 3.4, replace(CFG, quad_abs_tol=1e-14)).value
        predicted = (-1.0) ** k / (2.0 * math.factorial(2 * k)) * moment
        worst_moment = max(worst_moment,
                           abs(series.coeffs[k] - predicted) / abs(predicted))
    ok = signs_ok and bound_ok and worst_sum <= 1e-5 and worst_moment <= 1e-5
    assert report(7, ok,
                  f"partial-sum rel {worst_sum:.2e}, moment rel {worst_moment:.2e}, "
                  f"signs={signs_ok}, bounds={bound_ok}")


def test_criterion_08_monte_carlo():
    t0 = time.time()
    seed, n = 20240808, 1_000_000
    mc_ok = True
    details = []
    for rep in mc_check(0.75, (1.0, 5.0, 10.0), n, seed, CFG):
        dev = abs(rep.estimate - rep.deterministic_value)
        mc_ok &= dev <= 4.0 * rep.std_error
        details.append(f"t={rep.t}: dev/se={dev / rep.std_error:.2f}")
    # sample(100_000) is a prefix of the million draws above
    sampler = XSigmaSampler(0.75, CFG)
    xs, _ = sampler.sample(100_000, seed)
    ks = kstest(xs, sampler.cdf)
    ks_ok = ks.pvalue > 0.01
    elapsed = time.time() - t0
    ok = mc_ok and ks_ok
    assert report(8, ok,
                  f"{'; '.join(details)}; KS p={ks.pvalue:.3f}; {elapsed:.0f}s")


def test_criterion_09_kernel_suite():
    pos_ok = all(K_sigma(0.75, x, CFG) > 0.0
                 for x in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0))
    worst_fourier = 0.0
    for t in (0.0, 1.0, 5.0, 10.0):
        want = 4.0 * 0.75 * 0.25 * 0.5 * xi_mod_sq(0.75, t, CFG) \
            / ((t * t + 0.0625) * (t * t + 0.5625))
        worst_fourier = max(worst_fourier,
                            abs(K_fourier(0.75, t, CFG) - want) / want)
    a0_ok = abs(autocorrelation_A(0.75, 0.0, CFG) - 1.0) <= 1e-12
    scans_ok = True
    for sigma in (0.6, 0.75, 0.9):
        scan = orthogonalization_scan(sigma, 30.0, 0.5, CFG)
        scans_ok &= scan["iota_found"] is None

    def synthetic_acf(t):
        if t == 0.0:
            return 1.0
        return math.cos(2.0 * t) * 2.0 * (1.0 - math.cos(t)) / (t * t)

    res = scan_for_zero(synthetic_acf, 0.05, 3.0, 0.05)
    synth_ok = res["zero"] is not None and abs(res["zero"] - math.pi / 4.0) <= 1e-9
    ok = pos_ok and worst_fourier <= 1e-6 and a0_ok and scans_ok and synth_ok
    assert report(9, ok,
                  f"positivity={pos_ok}, fourier rel {worst_fourier:.2e}, "
                  f"A(0)-1 ok={a0_ok}, no-zero scans={scans_ok}, "
                  f"synthetic zero ok={synth_ok}")


def test_criterion_10_oracle_sanity():
    ends_ok = (abs(xi(0.0, CFG) - 0.5) <= 1e-12
               and abs(xi(1.0, CFG) - 0.5) <= 1e-12)
    grid = [complex(0.3, 2.0), complex(0.1, -7.5), complex(0.75, 5.0),
            complex(-0.5, 1.0), complex(0.5, 14.0), complex(0.9, -20.0),
            complex(0.55, 0.5), complex(2.0, 3.0), complex(0.6, 11.0),
            complex(0.25, 0.0), complex(1.2, -4.0), complex(0.8, 8.0),
            complex(0.4, -1.5), complex(-1.0, 2.5), complex(0.65, 17.0),
            complex(0.05, 3.3), complex(1.5, -9.0), complex(0.95, 0.1),
            complex(0.5, 21.0), complex(0.7, -13.0)]
    sym_ok = all(abs(xi(s, CFG) - xi(1.0 - s, CFG)) <= 1e-12 * max(1.0, abs(xi(s, CFG)))
                 for s in grid)

    def big_xi_on_line(t):
        return xi(complex(0.5, -t), CFG).real

    lo, hi = big_xi_on_line(14.10), big_xi_on_line(14.20)
    bracket_ok = lo > 0.0 > hi
    zero = None
    if bracket_ok:
        a, b = 14.10, 14.20
        for _ in range(40):
            mid = 0.5 * (a + b)
            if big_xi_on_line(mid) > 0.0:
                a = mid
            else:
                b = mid
        zero = 0.5 * (a + b)
    lit_ok = zero is not None and abs(zero - 14.134725) <= 1e-3
    ok = ends_ok and sym_ok and bracket_ok and lit_ok
    assert report(10, ok,
                  f"endpoints={ends_ok}, symmetry={sym_ok}, "
                  f"first zero at {zero} in (14.10, 14.20)={bracket_ok}")


def test_criterion_11_truncation_machinery():
    C = sup_constant_C(CFG)
    formulas_ok = True
    tails_ok = True
    for epsilon in (0.5, 0.1):
        for sigma in (0.6, 0.75):
            for T in (1, 2):
                lv = truncation_levels(epsilon, sigma, T, CFG)
                base = 8.0 * C * C * (T * T + 1.0) ** 2 / (sigma * epsilon)
                formulas_ok &= lv.N1 == math.ceil(math.log(base) / sigma)
                formulas_ok &= lv.N2 == math.ceil(base * base)
                tails_ok &= verify_tail_bound(lv, CFG)["passes"]
    prop_ok = all(poly_approx_V(0.75, 10, 2, 0.05 * k, CFG) > 0.0
                  for k in range(61))
    ok = formulas_ok and tails_ok and prop_ok
    assert report(11, ok,
                  f"ceiling formulas exact={formulas_ok}, tail bounds={tails_ok}, "
                  f"odd-truncation positivity on [0,3]={prop_ok}")

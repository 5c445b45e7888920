"""Workload inputs, generated from the workload seed.

Each workload is a list of ``xi-ineq`` command lines run in one fresh process
(plus, for cross-check, one library call that has no subcommand).  The seed
picks the sigma values and the sampler seed; the t-grids are fixed.  Only the
flags a subcommand reads are passed, and never ``--threads`` or ``--tau``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# t-grids: the CLI defaults of scan and autocorr, spelled out so that a change
# of default does not change the workload, and the criterion-3 grid
SCAN_T_MAX, SCAN_STEP = 20.0, 0.25
AUTOCORR_T_MAX, AUTOCORR_STEP = 30.0, 0.5
VERIFY_T = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 14.2, 20.0)
COEFFS_KMAX = 10
POLY_T, POLY_EPS = 1, 0.5
MC_T = (1.0, 5.0, 10.0)
MC_SAMPLES = 20_000

SIGMA_RANGE = (0.55, 0.95)
# The sampler's proposal count per draw grows as sigma falls (acceptance rate
# 1.4e-4 at 0.56, 2.4e-4 at 0.94; 50k draws took 14.8 s against 9.9 s on a
# 2.0 GHz Xeon), so the montecarlo sigma is drawn from a narrow band around the
# paper's 0.75 to keep seed-to-seed spread inside the bounds.
MC_SIGMA_RANGE = (0.74, 0.76)


def _fmt(x: float) -> str:
    return repr(float(x))


def _sigma(rng: random.Random, lo_hi=SIGMA_RANGE) -> float:
    return round(rng.uniform(*lo_hi), 3)


@dataclass
class Workload:
    name: str
    seed: int
    calls: list                     # (report name, argv without --out)
    params: dict = field(default_factory=dict)
    poly: tuple | None = None       # check_poly_min_criterion(sigma, T, eps)


def scan_grid(seed: int) -> Workload:
    rng = random.Random(f"scan-grid:{seed}")
    scan_sigmas: set = set()
    while len(scan_sigmas) < 2:
        scan_sigmas.add(_sigma(rng))
    scan_sigmas = sorted(scan_sigmas)
    ac_sigma = _sigma(rng)
    calls = [(f"scan-{i}", ["scan", "--sigma", _fmt(s), "--t-max", _fmt(SCAN_T_MAX),
                            "--step", _fmt(SCAN_STEP)])
             for i, s in enumerate(scan_sigmas)]
    calls.append(("autocorr", ["autocorr", "--sigma", _fmt(ac_sigma),
                               "--t-max", _fmt(AUTOCORR_T_MAX),
                               "--step", _fmt(AUTOCORR_STEP)]))
    return Workload("scan-grid", seed, calls,
                    {"scan_sigmas": scan_sigmas, "autocorr_sigma": ac_sigma})


def cross_check(seed: int) -> Workload:
    rng = random.Random(f"cross-check:{seed}")
    sigmas: set = set()
    while len(sigmas) < 4:
        sigmas.add(_sigma(rng))
    sigmas = sorted(sigmas)
    sigma_arg = ",".join(_fmt(s) for s in sigmas)
    coeff_sigma = sigmas[rng.randrange(4)]
    poly_sigma = sigmas[rng.randrange(4)]
    calls = [
        ("verify-modulus", ["verify-modulus", "--sigma", sigma_arg,
                            "--t-list", ",".join(_fmt(t) for t in VERIFY_T)]),
        ("constants", ["constants", "--sigma", sigma_arg]),
        ("coeffs", ["coeffs", "--sigma", _fmt(coeff_sigma), "--kmax", str(COEFFS_KMAX)]),
        ("selftest", ["selftest"]),
    ]
    return Workload("cross-check", seed, calls,
                    {"sigmas": sigmas, "coeff_sigma": coeff_sigma,
                     "poly_sigma": poly_sigma},
                    poly=(poly_sigma, POLY_T, POLY_EPS))


def montecarlo(seed: int) -> Workload:
    rng = random.Random(f"montecarlo:{seed}")
    sigma = _sigma(rng, MC_SIGMA_RANGE)
    mc_seed = rng.randrange(1, 2 ** 31)
    calls = [("montecarlo", ["montecarlo", "--sigma", _fmt(sigma),
                             "--t-list", ",".join(_fmt(t) for t in MC_T),
                             "--samples", str(MC_SAMPLES), "--seed", str(mc_seed)])]
    return Workload("montecarlo", seed, calls, {"sigma": sigma, "mc_seed": mc_seed})


WORKLOADS = {"scan-grid": scan_grid, "cross-check": cross_check,
             "montecarlo": montecarlo}

from functools import lru_cache

import mpmath as mp
import pytest

from xi_ineq.config import DEFAULT_CONFIG
from xi_ineq.modulus import S_T_constants

mp.mp.dps = 35


@pytest.fixture(scope="session")
def cfg():
    return DEFAULT_CONFIG


@pytest.fixture(scope="session")
def route_b_fixed_truncation():
    """Route B's published fixed-truncation recipe at sigma 0.75: 400 raw
    F-integrals, about 2.5 s, so the tests that read it share one evaluation."""
    return S_T_constants(0.75, "B_series", paper_truncation=True)


def xi_reference(sigma: float, t: float = 0.0) -> complex:
    """Independent completed-zeta evaluation through mpmath's Gamma and zeta."""
    s = mp.mpc(sigma, -t)
    v = 0.5 * s * (s - 1) * mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s)
    return complex(v)


def xi_mod_sq_reference(sigma: float, t: float) -> float:
    return abs(xi_reference(sigma, t)) ** 2


def _theta_R_reference(y):
    """R(y) = 2 sum exp(-pi n^2 y^2) through mpmath's jtheta.

    jtheta rejects q = exp(-pi y^2) near 1, so y < 1 goes through the theta
    inversion 1 + R(y) = (1 + R(1/y)) / y.
    """
    if y >= 1:
        return mp.jtheta(3, 0, mp.exp(-mp.pi * y * y)) - 1
    return (1 + _theta_R_reference(1 / y)) / y - 1


@lru_cache(maxsize=None)
def w_moment_reference(sigma: float) -> float:
    """z0 = int_0^inf W_sigma(x) e^{-sigma x} dx from W's convolution form alone.

    With y1 = e^u, y2 = e^{x-u} the convolution
    W_sigma(x) = int R(e^u) R(e^{x-u}) e^{x+(2 sigma-1) u} du turns z0 into

        int int_{y1 y2 >= 1} R(y1) R(y2) y1^{sigma-1} y2^{-sigma} dy1 dy2,

    evaluated by nested mp.quad.  12 digits take a few seconds; the result
    agrees with 15 digits to about 1e-13 relative.
    """
    with mp.workdps(12):
        s = mp.mpf(sigma)

        def inner(y1):
            return mp.quad(lambda y2: _theta_R_reference(y2) * y2 ** (-s),
                           [1 / y1, mp.inf])

        return float(mp.quad(
            lambda y1: _theta_R_reference(y1) * y1 ** (s - 1) * inner(y1),
            [0, 1, mp.inf]))


def s_reference(sigma: float) -> float:
    """S_sigma from the representation at t = 0, mpmath only:
    S = 2 xi(sigma)^2 - sigma^2 (1-sigma)^2 z0(sigma)."""
    two_xi_sq = 2.0 * xi_reference(sigma).real ** 2
    return two_xi_sq - sigma ** 2 * (1.0 - sigma) ** 2 * w_moment_reference(sigma)


def _gcal_reference(s, lam, term):
    """sum_p sigma_{2s-1}(p) p^{-s-1/2} term(pi p lam), summed in mpmath until a
    term is below 1e-25 of the sum in modulus."""
    total, p = mp.mpf(0), 1
    while True:
        divisors = sum(mp.mpf(d) ** (2 * s - 1) for d in range(1, p + 1) if p % d == 0)
        value = divisors * mp.mpf(p) ** (-s - 0.5) * term(mp.pi * p * lam)
        total += value
        if abs(value) < mp.mpf(10) ** -25 * abs(total):
            return total
        p += 1


def w_exp_reference(sigma: float, x: float) -> float:
    """W_sigma(x) e^{-sigma x} = 2^{sigma+3/2} pi^{-1} Gcal_sigma(e^x) e^{-x/2} from
    F's Bessel form F_sigma(lam) = 2^{1/2-sigma} lam K_{sigma-1/2}(2 lam), mpmath
    only: Gcal(lam) = sum_p sigma_{2 sigma-1}(p) p^{-sigma-1/2} F(pi p lam), summed
    until a term is below 1e-25 of the sum."""
    with mp.workdps(25):
        s, lam = mp.mpf(sigma), mp.exp(x)
        total = _gcal_reference(s, lam, lambda mu: mu * mp.besselk(s - 0.5, 2 * mu))
        return float(2 ** (s + 1.5) / mp.pi * 2 ** (0.5 - s) * total * mp.exp(-x / 2))


def t_reference(sigma: float) -> float:
    """T_sigma = 2^{sigma+3/2} pi^{-1} Hcal_sigma'(0) from F's Bessel form, as
    `w_exp_reference` builds Hcal, mpmath only.  Hcal(x) = Gcal(e^x) e^{-x/2} gives
    Hcal'(0) = sum_p sigma_{2 sigma-1}(p) p^{-sigma-1/2} (mu F'(mu) - F(mu)/2) at
    mu = pi p, and with nu = sigma - 1/2 and K_nu'(z) = -K_{nu-1}(z) - (nu/z) K_nu(z),
    mu F'(mu) - F(mu)/2 = 2^{-nu} ((1 - sigma) mu K_nu(2 mu) - 2 mu^2 K_{nu-1}(2 mu))."""
    with mp.workdps(25):
        s = mp.mpf(sigma)
        nu = s - 0.5
        total = _gcal_reference(s, mp.mpf(1), lambda mu: (1 - s) * mu * mp.besselk(nu, 2 * mu)
                                - 2 * mu * mu * mp.besselk(nu - 1, 2 * mu))
        return float(2 ** (s + 1.5) / mp.pi * 2 ** (-nu) * total)

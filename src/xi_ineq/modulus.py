"""Modulus representation of the completed zeta function.

The central identity evaluated here, for real sigma and t, is

    2|xi(sigma-it)|^2 = S_sigma + T_sigma t^2
        + (t^2+(1-sigma)^2)(t^2+sigma^2) int_0^inf W_sigma(x) e^{-sigma x} cos(tx) dx

with W_sigma an exponential-twisted self-convolution of the theta series R.
S_sigma and T_sigma are computed by three independent routes: B, the F-series,
is Hcal's derivatives at 0 (four Gcal integrals at 1); A and C share one
R-integral expansion on (1, inf) and differ on (0,1), which A integrates through
the inversion-stable combinations and C folds to (1, inf) by theta inversion.
Converged values of the three routes must agree, and two published
fixed-truncation recipes of routes B and C are implemented bit-faithfully for
reproduction purposes.

W has the closed form W_sigma(x) = 2^{sigma+3/2} pi^{-1} Hcal_sigma(x) e^{sigma x},
where Hcal_sigma(x) = Gcal_sigma(e^x) e^{-x/2} and

    Gcal_sigma(lam) = sum_{m,n} m^{-sigma-1/2} n^{sigma-3/2} F_sigma(pi m n lam),
    F_sigma(lam)    = 2^{1/2-sigma} * lam * int_0^inf e^{-2 lam cosh u}
                                               cosh((sigma-1/2) u) du.

The same objects reappear in the J/eta parametrization.  In the coordinate
x -> 2 ln x, W e^{-sigma x} = 2 e^{x/2} int_1^inf J_tau(e^x y) eta_tau(y) dy, so
the moments a(k) behind the power-series coefficients c(k) of |xi|^2 in t^2, and
the double integral of the J/eta route, are integrals of W e^{-sigma x} too.

Each sigma has one read-only record, `_w_table`: W e^{-sigma x} at fixed nodes
(values from Hcal), the masses of a fixed Fejer rule, and route B's converged
result (S, T, error estimate and truncation).  Every reader of the cosine
transform (`w_cos_fixed`), of the moments (`_scaled_moments`), of the sampler's
density, of `constants` and of `S_T_constants(sigma, "B_series")` takes it from
there, so route B runs once per sigma.  The J/eta route, a(k) and c(k) read one
record per tau, `_jeta_table`: the same rule's masses with values from J and eta
alone, and the route's two t-independent integrals.  Every Gcal value and
eta-weighted integral is one row of a trapezoid sum in u, and each table values
its nodes in one batched engine call (the W table's 64 nodes and 57 probes are
one `calH` call, the J table's 128 nodes one `integrate_eta_weighted` call), so
neither table runs the adaptive engine or loops over nodes in Python; the
adaptive `w_cos_transform`, which calls `calH` one abscissa at a time, stays as
the cross-check of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig, config_cache
from .errors import ConvergenceError, DomainError, EvaluationError
from .quadrature import (RELATIVE_ONLY, barycentric, chebyshev_fejer,
                         integrate_eta_weighted, integrate_finite, integrate_trapezoid, libm)
from .theta import (J_tau, divisor_sigma, stable_combo_A, stable_combo_B,
                    theta_R, theta_R_prime, theta_R_prime_truncated,
                    theta_R_truncated)

_EXP_UNDERFLOW = 745.0


@dataclass
class ConstantsReport:
    sigma: float
    s_value: float
    t_value: float
    method: str                      # A_direct | B_series | C_inversion
    truncation: dict = field(default_factory=dict)
    err_est: float = 0.0


@dataclass
class PowerSeriesCoeffs:
    sigma: float
    coeffs: list                     # c_{sigma-1/2}(k), k = 0..K
    K: int


# ---------------------------------------------------------------------------
# F and its first three derivatives
# ---------------------------------------------------------------------------

def _f_poly(d: int, lam: float, c: float) -> float:
    """Polynomial factor of the d-th derivative integrand at cosh(u) = c."""
    if d == 0:
        return lam
    if d == 1:
        return 1.0 - 2.0 * lam * c
    if d == 2:
        return -2.0 * c * (2.0 - 2.0 * lam * c)
    return 4.0 * c * c * (3.0 - 2.0 * lam * c)


def _f_cosh_cutoff(lam: float, cfg: EvalConfig) -> float:
    # 2 lam (cosh u - 1) beyond the working tolerance, with polynomial margin
    target = math.log(40.0 * max(lam, 1.0) / cfg.quad_abs_tol) + 8.0
    return math.acosh(1.0 + target / (2.0 * lam)) + 0.25


def F_sigma(sigma: float, lam: float, deriv: int = 0, form: str = "direct",
            cfg: EvalConfig = DEFAULT_CONFIG, bounds: tuple = (0.001, 20.0)) -> float:
    """F_sigma(lam) (and d/dlam derivatives up to order 3).

    form="direct": the singular-kernel integral with the endpoint singularity
    removed by y = 2(cosh u - 1), valid for every deriv.
    form="raw": the untransformed y-integral on `bounds`, integrable because the
    lower bound stays off the singularity; used by fixed-truncation reproduction.
    """
    if lam <= 0.0:
        raise DomainError(f"F_sigma needs lam > 0, got {lam!r}")
    if deriv not in (0, 1, 2, 3):
        raise DomainError(f"deriv must be in 0..3, got {deriv!r}")
    tau = sigma - 0.5

    if form == "direct":
        if 2.0 * lam > _EXP_UNDERFLOW:
            return 0.0

        def integrand(u):
            c = math.cosh(u)
            return (2.0 ** (-tau) * _f_poly(deriv, lam, c)
                    * math.exp(-2.0 * lam * c) * math.cosh(tau * u))

        # F spans e^{-2 lam} scales; only relative acceptance keeps large lam honest
        return integrate_finite(integrand, 0.0, _f_cosh_cutoff(lam, cfg),
                                replace(cfg, quad_abs_tol=RELATIVE_ONLY)).value

    if form == "raw":
        a, b = bounds

        def integrand(y):
            s = math.sqrt(y * y + 4.0 * y)
            arg = lam * (y + 2.0)
            if arg > _EXP_UNDERFLOW:
                return 0.0
            bracket = (y + 2.0 + s) ** (-tau) + (y + 2.0 - s) ** (-tau)
            return _f_poly(deriv, lam, 0.5 * (y + 2.0)) * math.exp(-arg) * bracket / (2.0 * s)

        return integrate_finite(integrand, a, b, replace(cfg, quad_abs_tol=RELATIVE_ONLY)).value

    raise ValueError(f"unknown F_sigma form {form!r}")


# ---------------------------------------------------------------------------
# The G-series, its log-variable version Hcal, and W
# ---------------------------------------------------------------------------

def _g_weights(sigma: float, lam: float, deriv: int, cfg: EvalConfig):
    """Per-product weights of the collapsed series
    sum_p sigma_{2 sigma - 1}(p) p^{-sigma-1/2} (pi p)^deriv F^{(deriv)}(pi p lam)."""
    out = []
    for p in range(1, cfg.series_max_terms + 1):
        mu = math.pi * p * lam
        if 2.0 * mu > _EXP_UNDERFLOW:
            break
        w = divisor_sigma(p, 2.0 * sigma - 1.0) * float(p) ** (-sigma - 0.5) * (math.pi * p) ** deriv
        out.append((mu, w))
        # geometric decay e^{-2 pi lam} per step makes a fixed small cap safe
        if p >= 6 and math.exp(-2.0 * (mu - math.pi * lam)) < cfg.series_tol:
            break
    else:
        raise ConvergenceError(f"Gcal product-sum cap {cfg.series_max_terms} reached")
    return out


def _gcal(sigma: float, lam: np.ndarray, deriv: int, cfg: EvalConfig) -> np.ndarray:
    """deriv-th derivative of Gcal_sigma at every element of the 1-d array lam, one
    trapezoid row each, all rows in one engine call.

    With mu_p = pi p lam, each term's factor exp(-2 mu_p cosh u) is E^p for
    E = exp(-2 pi lam cosh u), so the product sum at an abscissa is a polynomial in
    E, taken by Horner's rule from the highest product down: one exp per abscissa.
    A row with fewer products than the batch's longest starts its Horner sum on
    exact zeros, so its bits are those of its one-row call; a row whose product
    sum is empty (2 pi lam past exp's underflow) is exactly 0.0.
    """
    terms = [_g_weights(sigma, v, deriv, cfg) for v in lam.tolist()]
    out = np.zeros(len(terms))
    filled = [i for i, products in enumerate(terms) if products]
    if not filled:
        return out
    n_terms = max(len(terms[i]) for i in filled)
    mu = np.zeros((len(filled), n_terms))
    coef = np.zeros((len(filled), n_terms))
    for r, i in enumerate(filled):
        for p, (mu_p, w) in enumerate(terms[i]):
            # w * _f_poly(0, mu, c) is w * mu: for deriv 0 (every Hcal and W value)
            # the whole coefficient is one constant per term
            mu[r, p], coef[r, p] = mu_p, w * mu_p if deriv == 0 else w
    two_mu = 2.0 * mu[:, :1]
    tau = sigma - 0.5
    scale = 2.0 ** (-tau)

    def integrand(u, rows):
        c = libm(math.cosh, u)
        e = libm(math.exp, -(two_mu[rows] * c))
        a, m = coef[rows], mu[rows]
        acc = np.zeros_like(c)
        for p in range(n_terms - 1, -1, -1):
            acc *= e
            acc += a[:, p, None] * _f_poly(deriv, m[:, p, None], c) if deriv else a[:, p, None]
        acc *= e
        return scale * acc * libm(math.cosh, tau * u)

    u_max = np.array([_f_cosh_cutoff(mu_1, cfg) for mu_1 in mu[:, 0].tolist()])
    out[filled] = integrate_trapezoid(integrand, u_max,
                                      replace(cfg, quad_abs_tol=RELATIVE_ONLY)).value
    return out


def calG(sigma: float, lam, deriv: int = 0, cfg: EvalConfig = DEFAULT_CONFIG):
    """deriv-th derivative of Gcal_sigma(lam) = sum_{m,n} m^{-sigma-1/2}
    n^{sigma-3/2} F_sigma(pi m n lam), at a float lam (a float back) or at every
    element of a 1-d array (an array back, one engine call for all).

    The (m, n) sum collapses over the product p = mn with divisor-sum weights,
    and the remaining p-sum, a polynomial in exp(-2 pi lam cosh u), is folded
    inside a single cosh-substituted integral, even and analytic in u and
    negligible past its cutoff, so each value is one `integrate_trapezoid` row.
    Acceptance is relative (values span e^{-2 pi lam} scales): the engine gets the
    absolute target RELATIVE_ONLY.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lams <= 0.0):
        raise DomainError(f"calG needs lam > 0, got {lam!r}")
    values = _gcal(sigma, lams, deriv, cfg)
    return float(values[0]) if np.ndim(lam) == 0 else values


def calH(sigma: float, x, cfg: EvalConfig = DEFAULT_CONFIG):
    """Hcal_sigma(x) = Gcal_sigma(e^x) e^{-x/2}, at a float x or at every element of
    a 1-d array, as `calG`; decays like exp(-2 pi e^x)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    values = _gcal(sigma, libm(math.exp, xs), 0, cfg) * libm(math.exp, -0.5 * xs)
    return float(values[0]) if np.ndim(x) == 0 else values


def calH_derivs_at_0(sigma: float, cfg: EvalConfig = DEFAULT_CONFIG) -> dict:
    """Hcal(0), Hcal'(0) and Hcal'''(0) via the chain rule through Gcal at 1:

        h0 = G(1)
        h1 = G'(1) - G(1)/2
        h3 = G'''(1) + (3/2) G''(1) + (1/4) G'(1) - (1/8) G(1)
    """
    g = [calG(sigma, 1.0, d, cfg) for d in range(4)]
    return {
        "h0": g[0],
        "h1": g[1] - 0.5 * g[0],
        "h3": g[3] + 1.5 * g[2] + 0.25 * g[1] - 0.125 * g[0],
    }


def W_sigma(sigma: float, x: float, form: str = "closed",
            cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Twisted self-convolution of R.

    closed:       2^{sigma+3/2} pi^{-1} Hcal_sigma(x) e^{sigma x}
    convolution:  int_-inf^inf R(e^u) R(e^{x-u}) e^{x+(2 sigma-1) u} du, with
                  both tails killed doubly exponentially; the support lies in
                  |u - x/2| < 3.5, which is the window integrated.
    """
    if x < 0.0:
        raise DomainError(f"W_sigma needs x >= 0, got {x!r}")
    if form == "closed":
        return 2.0 ** (sigma + 1.5) / math.pi * calH(sigma, x, cfg) * math.exp(sigma * x)
    if form == "convolution":
        def integrand(u):
            return (theta_R(math.exp(u), cfg) * theta_R(math.exp(x - u), cfg)
                    * math.exp(x + (2.0 * sigma - 1.0) * u))

        # positive integrand far below quad_abs_tol for x >~ 2: force the
        # relative criterion so tiny values keep relative accuracy
        half = 3.5
        return integrate_finite(integrand, 0.5 * x - half, 0.5 * x + half,
                                replace(cfg, quad_abs_tol=RELATIVE_ONLY)).value
    raise ValueError(f"unknown W_sigma form {form!r}")


# ---------------------------------------------------------------------------
# The W table: W e^{-sigma x} at fixed nodes, once per sigma, and its cosine
# transform by a fixed rule
# ---------------------------------------------------------------------------

_W_CUT = 2.4        # W's support cut: the mass of W e^{-sigma x} beyond is < 1e-25
_NODES = 64         # Hcal is analytic on [0, _W_CUT]: 64 nodes resolve it to rounding
_T_NODES = 128      # the transform's rule: 64 nodes are 5e-11 off at t = 30, 128 are 5e-14

_X, _FEJER, _BARY = chebyshev_fejer(_NODES, _W_CUT)
_PROBES = np.concatenate([(0.5 * (_X[1:] + _X[:-1]))[::4],
                          np.linspace(1.7e-3, _W_CUT - 1e-3, 41)])
_XT, _FEJER_T, _ = chebyshev_fejer(_T_NODES, _W_CUT)
_WEIGHTS_T = _W_CUT / _T_NODES * _FEJER_T      # the transform's rule at _XT


@dataclass(frozen=True)
class WTable:
    """One sigma's record: W e^{-sigma x} `values` at the nodes _X, which `density`
    reads; the Fejer masses w_j W e^{-sigma x_j} at the nodes _XT, so that
    int_0^inf W e^{-sigma x} cos(tx) dx is fsum(cos(t _XT) * masses); and route B's
    converged result: S_sigma (`s`), T_sigma (`t`), its `err_est` and its
    `truncation` record.  All read-only."""
    values: np.ndarray
    masses: np.ndarray
    s: float
    t: float
    err_est: float
    truncation: MappingProxyType

    def density(self, x: np.ndarray) -> np.ndarray:
        """The polynomial through `values` at the nodes _X, at the points x (1-d), by the
        barycentric form, which keeps its accuracy where the density is tiny.  Its readers
        ask for at most a few hundred points; the sampler takes the Chebyshev series of
        this polynomial from `values` and sums that on its many points."""
        return barycentric(self.values, _X, _BARY, x)


@config_cache(maxsize=32)
def _w_table(sigma: float, cfg: EvalConfig = DEFAULT_CONFIG) -> WTable:
    """W e^{-sigma x} = 2^{sigma+3/2} pi^{-1} Hcal_sigma at the nodes _X, and route B's
    converged S and T.  The polynomial through the node values is the density that the
    transform, the moments and the sampler read.  It is certified, to 1e-8 absolute in
    W, at the 57 _PROBES against the same Hcal: nodes and probes are the 121 rows of
    one `calH` call, each row a trapezoid sum settled to relative accuracy by its own
    halving difference and bit for bit its one-row value, so the check measures the
    interpolant alone.  ConvergenceError (partial: the worst deviation) is raised when
    it misses."""
    pref = 2.0 ** (sigma + 1.5) / math.pi
    hcal = pref * calH(sigma, np.concatenate([_X, _PROBES]), cfg)
    values, probes = hcal[:_NODES], hcal[_NODES:]
    worst = float(np.max(np.abs(barycentric(values, _X, _BARY, _PROBES) - probes)
                         * np.exp(sigma * _PROBES)))
    if worst > 1e-8:
        raise ConvergenceError(
            f"W table certification failed at sigma={sigma!r}: err {worst:.2e} > 1e-8", worst)
    masses = _WEIGHTS_T * barycentric(values, _X, _BARY, _XT)
    values.flags.writeable = masses.flags.writeable = False
    s_value, t_value, err, trunc = _st_method_B(sigma, cfg, False)
    return WTable(values, masses, s_value, t_value, err, MappingProxyType(trunc))


def w_cos_fixed(sigma: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """int_0^inf W_sigma(x) e^{-sigma x} cos(tx) dx by the fixed 128-node Fejer rule
    on `_w_table`'s certified density: one exactly summed (math.fsum) product per t."""
    return math.fsum((np.cos(t * _XT) * _w_table(sigma, cfg).masses).tolist())


def _cos_taylor_terms(sigma: float, N1: int, n_hi: int, t: float, cfg: EvalConfig):
    """int_0^N1 W e^{-sigma x} (tx)^{2n}/(2n)! dx, n = 0..n_hi, by one Fejer rule on
    [0, min(N1, _W_CUT)]; running products keep each (tx)^{2n}/(2n)! < e^{tx}."""
    b = min(float(N1), _W_CUT)
    xs = b / _W_CUT * _X
    table = _w_table(sigma, cfg)
    dens = table.values if b == _W_CUT else table.density(xs)   # at b = _W_CUT, xs is _X
    k = np.arange(1, n_hi + 1)
    steps = np.outer(1.0 / ((2 * k - 1) * (2 * k)), (t * xs) ** 2)
    powers = np.vstack([np.ones_like(xs), np.cumprod(steps, axis=0)])
    # numpy's pairwise sum, not a BLAS product, whose rounding depends on the kernel
    return (powers * (b / _NODES * _FEJER * dens)).sum(axis=1)


def _scaled_moments(sigma: float, N1: int, n_hi: int, cfg: EvalConfig = DEFAULT_CONFIG) -> tuple:
    """mu_n = int_0^N1 W e^{-sigma x} x^{2n}/(2n)! dx for n = 0..n_hi: one product
    with `_w_table`'s density."""
    return tuple(float(m) for m in _cos_taylor_terms(sigma, N1, n_hi, 1.0, cfg))


def _w_exp_cutoff(cfg: EvalConfig) -> float:
    # Hcal(x) ~ exp(-2 pi (e^x - 1)); cut when that passes working tolerance
    target = math.log(20.0 / cfg.quad_abs_tol) + 6.0
    return math.log(1.0 + target / (2.0 * math.pi))


def w_cos_transform(sigma: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """int_0^inf W_sigma(x) e^{-sigma x} cos(tx) dx, adaptively through the closed
    form (the integrand is 2^{sigma+3/2} pi^{-1} Hcal_sigma(x), each value a
    relative-target `calH`) on [0, _w_exp_cutoff], presplit so that no panel is
    wider than a half period: the independent cross-check of `w_cos_fixed`, which
    the library itself reads."""
    pref = 2.0 ** (sigma + 1.5) / math.pi
    x_max = _w_exp_cutoff(cfg)
    return integrate_finite(lambda x: pref * calH(sigma, x, cfg) * math.cos(t * x),
                            0.0, x_max, cfg,
                            min_panels=max(1, math.ceil(x_max * abs(t) / math.pi))).value


# ---------------------------------------------------------------------------
# The constants S_sigma and T_sigma, three ways
# ---------------------------------------------------------------------------

_R_DECAY = math.pi           # R(y) <= 2 e^{-pi y^2} <= 2 e^{-pi y} for y >= 1
_R_SCALE = 300.0             # safe envelope for the R'^2-type integrands


def _r_quad(cfg: EvalConfig, errs: list, lo: float, hi: float = None):
    """Integration of the R-integrands over (lo, hi), or from lo up to R's
    truncation point when hi is None: the value alone, with its err_est appended
    to `errs`."""
    hi = cfg.truncation_point(_R_DECAY, _R_SCALE) if hi is None else hi

    def value(f):
        r = integrate_finite(f, lo, hi, cfg)
        errs.append(r.err_est)
        return r.value
    return value


def _r_expansion(s: float, R, Rp, iq, a, b):
    """The R-integral expansion that routes A and C share, with R, R' as given and
    `iq` integrating from 1 upwards.  a(y) = y R(y) + y - 1 and b(y) = y^2 R'(y) + 1
    come in the form the route passes.

    Returns S's boundary terms at y = 1 plus its four R-integrals, and the
    combination integrand y^{2s-2} R(y) (coef a(y) + b(y)) as a function of coef
    (1 - s for S, s for T).  The routes differ only in how they cover (0,1).
    """
    R1, R1p = R(1.0), Rp(1.0)
    head = (
        -s * R1 - R1p + (1.0 - 2.0 * s) * (0.5 * R1 * R1 + R1 * R1p)
        + 2.0 * s * (1.0 - s) * (2.0 * s - 1.0)
        * (iq(lambda y: y ** (-2.0 * s) * R(y)) - iq(lambda y: y ** (1.0 - 2.0 * s) * R(y)))
        - s * (1.0 - s) * (2.0 * s - 1.0)
        * (iq(lambda y: y ** (1.0 - 2.0 * s) * R(y) ** 2)
           + iq(lambda y: y ** (2.0 * s - 1.0) * R(y) ** 2))
    )

    def combo(coef):
        return lambda y: y ** (2.0 * s - 2.0) * R(y) * (coef * a(y) + b(y))

    return head, combo


def _st_method_A(sigma: float, cfg: EvalConfig, paper_truncation: bool):
    """R-integral route: the shared expansion, with the combination integrals
    split at 1 and their (0,1) parts evaluated with the inversion-stable
    combinations.  It has no published recipe and rejects `paper_truncation`."""
    if paper_truncation:
        raise ValueError("A_direct has no fixed-truncation recipe")
    s = sigma
    errs = []
    semi, low = _r_quad(cfg, errs, 1.0), _r_quad(cfg, errs, 0.0, 1.0)
    head, combo = _r_expansion(s, lambda y: theta_R(y, cfg), lambda y: theta_R_prime(y, cfg),
                               semi, lambda y: stable_combo_A(y, cfg),
                               lambda y: stable_combo_B(y, cfg))
    s_value = head - s * (1.0 - s) * (low(combo(1.0 - s)) + semi(combo(1.0 - s)))
    t_value = -(low(combo(s)) + semi(combo(s)))
    trunc = {"integral_bounds": "adaptive, split at 1"}
    if not 0.0 < sigma < 1.0:
        # best-effort value: the half-line integral's convergence is only
        # guaranteed inside the strip
        trunc["domain_warning"] = f"sigma={sigma} outside (0,1)"
    return s_value, t_value, sum(errs), trunc


def _st_method_B(sigma: float, cfg: EvalConfig, paper_truncation: bool):
    """F-series route.

    With lam_p = pi p the product sums sum_p sigma_{2s-1}(p) p^{-s-1/2} lam_p^d
    F^{(d)}(lam_p) are Gcal^{(d)}(1), so the converged mode reads Hcal's
    derivatives at 0: T = pref h1 and S = pref ((s^2 + (1-s)^2) h1 - h3).
    Fixed-truncation mode follows the published recipe bit-faithfully: the
    literal double sum m, n <= 10 with every F-integral forced onto [0.001, 20]
    (no substitution, no adaptivity past the bounds), each of the 42 distinct
    floats lam = pi m n integrated once.
    """
    s = sigma
    if paper_truncation:
        coef = s * s + (1.0 - s) ** 2 - 0.25
        s_sum = t_sum = 0.0
        f_at = {}
        for m in range(1, 11):
            for n in range(1, 11):
                lam = math.pi * m * n
                w = float(m) ** (-s - 0.5) * float(n) ** (s - 1.5)
                if lam not in f_at:
                    f_at[lam] = [F_sigma(s, lam, d, "raw", cfg) for d in range(4)]
                F0, F1, F2, F3 = f_at[lam]
                t_part = F1 * lam - 0.5 * F0
                s_sum += w * (-F3 * lam ** 3 - 1.5 * F2 * lam ** 2 + coef * t_part)
                t_sum += w * t_part
        trunc = {"double_sum_cap": 10, "f_integral_bounds": [0.001, 20.0]}
    else:
        h = calH_derivs_at_0(s, cfg)
        t_sum = h["h1"]
        s_sum = (s * s + (1.0 - s) ** 2) * h["h1"] - h["h3"]
        trunc = {"product_sum_terms": len(_g_weights(s, 1.0, 0, cfg)),
                 "f_integral_bounds": "trapezoid"}

    pref = 2.0 ** (s + 1.5) / math.pi
    err = cfg.quad_rel_tol * (abs(s_sum) + abs(t_sum)) * pref * 10.0
    return pref * s_sum, pref * t_sum, err, trunc


def _st_method_C(sigma: float, cfg: EvalConfig, paper_truncation: bool):
    """Inversion route: the shared expansion, with the (0,1) parts of the
    combination integrals folded to (1, inf) by theta inversion, so every
    integral lives on the half-line above 1.

    Fixed-truncation mode clamps R to its first 5 series terms (no inversion)
    and every integral to [1, 10], per the published recipe.
    """
    s = sigma
    errs = []
    if paper_truncation:
        R = lambda y: theta_R_truncated(y, 5)
        Rp = lambda y: theta_R_prime_truncated(y, 5)
        hi = 10.0
        trunc = {"theta_terms": 5, "integral_bounds": [1.0, 10.0]}
    else:
        R = lambda y: theta_R(y, cfg)
        Rp = lambda y: theta_R_prime(y, cfg)
        hi = None
        trunc = {"theta_terms": "adaptive", "integral_bounds": "adaptive"}
    iq = _r_quad(cfg, errs, 1.0, hi)
    head, combo = _r_expansion(s, R, Rp, iq, lambda y: y * R(y) + y - 1.0,
                               lambda y: y * y * Rp(y) + 1.0)

    def fold(coef):
        return lambda y: y ** (-2.0 * s) * R(1.0 / y) * (coef * R(y) + y * Rp(y))

    s_value = head - s * (1.0 - s) * iq(combo(1.0 - s)) + s * (1.0 - s) * iq(fold(s))
    t_value = -iq(combo(s)) + iq(fold(1.0 - s))
    return s_value, t_value, sum(errs), trunc


def S_T_constants(sigma: float, method: str = "B_series",
                  cfg: EvalConfig = DEFAULT_CONFIG,
                  paper_truncation: bool = False) -> ConstantsReport:
    """The pair (S_sigma, T_sigma) by the requested route.

    Converged tolerances make the three routes agree; `paper_truncation`
    switches routes B and C to their published fixed-truncation recipes (route
    A has no published recipe and rejects the flag).  For sigma in (0, 1), the
    strip of every W-table reader, converged route B is the one `_w_table` runs
    for its record, read from there, so it runs once per sigma; a call without
    the table cached builds it.  Outside the strip, where the table's absolute
    certification need not hold, route B runs on its own.
    """
    routes = {"A_direct": _st_method_A, "B_series": _st_method_B, "C_inversion": _st_method_C}
    if method not in routes:
        raise ValueError(f"unknown method {method!r}")
    if method == "B_series" and not paper_truncation and 0.0 < sigma < 1.0:
        table = _w_table(sigma, cfg)
        return ConstantsReport(sigma, table.s, table.t, method, dict(table.truncation),
                               table.err_est)
    s_value, t_value, err, trunc = routes[method](sigma, cfg, paper_truncation)
    return ConstantsReport(sigma, s_value, t_value, method, trunc, err)


def constants(sigma: float, cfg: EvalConfig = DEFAULT_CONFIG):
    """The converged (S_sigma, T_sigma) of `_w_table`'s record: route B, the cheapest."""
    table = _w_table(sigma, cfg)
    return table.s, table.t


# ---------------------------------------------------------------------------
# |xi|^2 via the representation, two parametrizations
# ---------------------------------------------------------------------------

def _finite(value: float, what: str, t: float) -> float:
    """value, or EvaluationError (abscissa t) when it is inf or nan, as it is once
    the quartic in t overflows (from t about 1e77)."""
    if not math.isfinite(value):
        raise EvaluationError(f"{what} returned {value!r} at t={t!r}", abscissa=t)
    return value


def modulus_rhs(sigma: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """|xi(sigma-it)|^2 as the representation gives it (half the displayed sum);
    EvaluationError when that is not finite."""
    if not 0.0 < sigma < 1.0:
        raise DomainError(f"modulus_rhs needs sigma in (0,1), got {sigma!r}")
    s_val, t_val = constants(sigma, cfg)
    poly = (t * t + (1.0 - sigma) ** 2) * (t * t + sigma * sigma)
    return _finite(0.5 * (s_val + t_val * t * t + poly * w_cos_fixed(sigma, t, cfg)),
                   "modulus_rhs", t)


@dataclass(frozen=True)
class JTable:
    """One tau's J/eta record, sigma = tau + 1/2: the Fejer masses of W e^{-sigma x}
    at the nodes _XT valued from J and eta alone (read-only), and the J/eta route's
    t-independent integrals lin = int [2y J' + J] eta dy and
    cub = int y [2y^2 J''' + 9y J'' + 6 J'] eta dy."""
    masses: np.ndarray
    lin: float
    cub: float


@config_cache(maxsize=32)
def _jeta_table(tau: float, cfg: EvalConfig = DEFAULT_CONFIG) -> JTable:
    """W(x) e^{-sigma x} = 2 e^{x/2} K(e^x), K(s) = int_1^inf J_tau(s y) eta_tau(y) dy,
    at the nodes _XT, times the rule's weights: the same rule as `WTable.masses`,
    whose values come from Hcal instead.  The 128 K(s) are the rows of one
    `integrate_eta_weighted` call at the transform's absolute target 0.1 quad_abs_tol,
    each row with its own cutoff for decay 2 pi s, and each level of all rows one
    array `J_tau` call.  Then lin and cub, one call each."""
    node_cfg = replace(cfg, quad_abs_tol=0.1 * cfg.quad_abs_tol)
    s = libm(math.exp, _XT)     # row i is K(s_i), s_i = e^{x_i}
    k = integrate_eta_weighted(lambda y, rows: J_tau(tau, s[rows, None] * y, 0, cfg),
                               tau, node_cfg, decay_rate=2.0 * math.pi * s).value
    masses = _WEIGHTS_T * (2.0 * libm(math.exp, 0.5 * _XT) * k)
    masses.flags.writeable = False

    lin = integrate_eta_weighted(
        lambda y, rows: 2.0 * y * J_tau(tau, y, 1, cfg) + J_tau(tau, y, 0, cfg),
        tau, cfg, decay_rate=2.0 * math.pi, scale=30.0).value
    cub = integrate_eta_weighted(
        lambda y, rows: y * (2.0 * y * y * J_tau(tau, y, 3, cfg)
                             + 9.0 * y * J_tau(tau, y, 2, cfg)
                             + 6.0 * J_tau(tau, y, 1, cfg)),
        tau, cfg, decay_rate=2.0 * math.pi, scale=2e4).value
    return JTable(masses, lin, cub)


def modulus_rhs_via_J(tau: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """2|xi(tau+1/2-it)|^2 straight from the J/eta parametrization:

        4[(t^2+tau^2+1/4)^2 - tau^2] * int int cos(2t ln x) J(x^2 y) eta(y) dx dy
      + (t^2+2 tau^2+1/4) * int [2y J' + J] eta dy
      - int y [2y^2 J''' + 9y J'' + 6 J'] eta dy

    With x -> 2 ln x the double integral is a quarter of the cosine transform of
    W e^{-sigma x}, which the fixed rule reads from `_jeta_table`'s masses.
    EvaluationError when the sum is not finite.
    """
    table = _jeta_table(tau, cfg)
    dbl = 0.25 * math.fsum((np.cos(t * _XT) * table.masses).tolist())
    try:
        quartic = 4.0 * ((t * t + tau * tau + 0.25) ** 2 - tau * tau)
    except OverflowError:       # float ** raises where float * returns inf
        quartic = math.inf
    return _finite(quartic * dbl + (t * t + 2.0 * tau * tau + 0.25) * table.lin - table.cub,
                   "modulus_rhs_via_J", t)


# ---------------------------------------------------------------------------
# Power-series coefficients of |xi(sigma-it)|^2 in t^2
# ---------------------------------------------------------------------------

def a_coeff(tau: float, k: int, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """a_tau(k) = 2^{2k+1} int int (ln x)^{2k} J_tau(x^2 y) eta_tau(y) dx dy, which is
    half the moment int x^{2k} W e^{-sigma x} dx: one exactly summed (math.fsum)
    product with `_jeta_table`'s masses."""
    if k < 0:
        raise DomainError(f"a_coeff needs k >= 0, got {k!r}")
    return 0.5 * math.fsum((_XT ** (2 * k) * _jeta_table(tau, cfg).masses).tolist())


_K_MAX = 85     # (2k)! is a finite double up to k = 85: 170! ~ 7.3e306


def c_coeff(tau: float, k: int, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Coefficient of t^{2k} in |xi(tau+1/2-it)|^2; alternates in sign.  k = 0 and
    k = 1 read the J/eta route's t-independent integrals from `_jeta_table`.  k is
    at most _K_MAX, past which (2k)! does not convert to a double."""
    if not 0 <= k <= _K_MAX:
        raise DomainError(f"c_coeff needs 0 <= k <= {_K_MAX}, got {k!r}")
    q = (tau * tau - 0.25) ** 2
    if k == 0:
        table = _jeta_table(tau, cfg)
        return -0.5 * table.cub + (tau * tau + 0.125) * table.lin + q * a_coeff(tau, 0, cfg)
    if k == 1:
        return (0.5 * _jeta_table(tau, cfg).lin - 0.5 * q * a_coeff(tau, 1, cfg)
                + 2.0 * (tau * tau + 0.25) * a_coeff(tau, 0, cfg))
    sign = -1.0 if k % 2 else 1.0
    return sign / math.factorial(2 * k) * (
        q * a_coeff(tau, k, cfg)
        - 4.0 * k * (2.0 * k - 1.0) * (tau * tau + 0.25) * a_coeff(tau, k - 1, cfg)
        + 2.0 * k * (2.0 * k - 1.0) * (2.0 * k - 2.0) * (2.0 * k - 3.0) * a_coeff(tau, k - 2, cfg))


def power_series_coeffs(sigma: float, K: int,
                        cfg: EvalConfig = DEFAULT_CONFIG) -> PowerSeriesCoeffs:
    """First K+1 coefficients of |xi(sigma-it)|^2 = sum_k c(k) t^{2k}, K <= _K_MAX."""
    if not 0 <= K <= _K_MAX:
        raise DomainError(f"power series needs K >= 0 and K <= {_K_MAX}, got {K!r}")
    tau = sigma - 0.5
    return PowerSeriesCoeffs(sigma, [c_coeff(tau, k, cfg) for k in range(K + 1)], K)

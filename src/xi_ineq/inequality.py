"""Verification programs built on the modulus representation.

Positivity of the represented 2|xi(sigma-it)|^2 over every (sigma, t) with
sigma in (1/2, 1) is the target statement, so this module hosts the scanners
and the probabilistic rereadings of it:

  * grid scans of the representation (either parametrization), with sign
    violations reported only when a value clears its error estimate;
  * truncated polynomial approximations of the cosine transform with the
    explicit ceiling-formula truncation levels and their tail bound;
  * the Monte-Carlo reading (E[cos(t X_sigma)] against a closed bound) with a
    rejection sampler whose proposal is exponential and whose envelope is the
    uniform bound W_sigma < 2 C^2: one draw per call serves every t;
  * the positive kernel K_sigma, its Fourier transform (the representation
    over the quartic poly(t), read from `modulus_rhs`), the normalized
    autocorrelation A_sigma(t), and the search for its first zero, which
    values A once at each grid point.

Every per-sigma object they read (S and T, the density of W e^{-sigma x}, its
moments and its cosine transform) comes from the one record `modulus._w_table`;
this module keeps no cache of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Chebyshev
from numpy.polynomial.chebyshev import chebvander

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import ConvergenceError, DomainError
from .modulus import (_W_CUT, _X, _cos_taylor_terms, _scaled_moments, _w_table, constants,
                      modulus_rhs, modulus_rhs_via_J, w_cos_fixed, W_sigma)
from .quadrature import _row_fsums, integrate_finite, libm
from .theta import sup_constant_C, sup_constant_Cn


MAX_GRID_POINTS = 10 ** 6   # a t-grid past this is a mistyped step, not a scan
# a draw past this is a mistyped count: it would hold 8 bytes a sample at once, and
# t = 10 needs only about 2e7 draws to certify at sigma 0.75
MAX_SAMPLES = 10 ** 8


def grid_indices(t_lo: float, t_max: float, step: float, what: str) -> range:
    """The k with k * step in [t_lo, t_max] (1e-9 of a step of slack at both ends),
    the grid of the scans and the CLI.  DomainError, before anything is allocated,
    when [t_lo, t_max] spans MAX_GRID_POINTS steps or more."""
    if not t_max / step - t_lo / step < MAX_GRID_POINTS:    # also inf, nan on overflow
        raise DomainError(f"{what} grid of step {step!r} on [{t_lo!r}, {t_max!r}] has "
                          f"more than {MAX_GRID_POINTS} points")
    return range(math.ceil(t_lo / step - 1e-9), math.floor(t_max / step + 1e-9) + 1)


@dataclass
class ScanReport:
    sigma: float
    grid: list
    values: list
    min_value: float
    min_t: float
    violations: list            # t where value + err_est < 0
    err_est: float              # largest per-point error estimate

    @property
    def indeterminate(self) -> list:
        """Grid points whose value is nonpositive but within error of zero."""
        return [t for t, v in zip(self.grid, self.values)
                if v <= 0.0 and v + self.err_est >= 0.0]


@dataclass
class MCReport:
    sigma: float
    t: float
    estimate: float
    std_error: float
    n_samples: int
    acceptance_rate: float
    seed: int
    deterministic_value: float


@dataclass
class TruncationLevels:
    N1: int
    N2: int
    epsilon: float
    sigma: float
    T: int


# ---------------------------------------------------------------------------
# Inequality scans
# ---------------------------------------------------------------------------

def scan_inequality(sigma: float, t_max: float, step: float,
                    route: str = "representation",
                    cfg: EvalConfig = DEFAULT_CONFIG) -> ScanReport:
    """Evaluate the positivity target (= 2|xi(sigma-it)|^2) on a t-grid.

    A genuine nonpositive value would be a major find, so a violation is
    declared only when value + err_est < 0; nonpositive values inside the
    error band land in `indeterminate` instead of being clamped or hidden.
    """
    if not 0.5 < sigma < 1.0:
        raise DomainError(f"scan needs sigma in (1/2,1), got {sigma!r}")
    if step <= 0.0 or t_max < 0.0:
        raise DomainError(f"scan needs step > 0 and t_max >= 0, got {step!r}, {t_max!r}")
    grid = [k * step for k in grid_indices(0.0, t_max, step, "scan")]

    if route == "representation":
        def value_err(t):
            poly = (t * t + (1.0 - sigma) ** 2) * (t * t + sigma * sigma)
            v = 2.0 * modulus_rhs(sigma, t, cfg)
            e = 20.0 * cfg.quad_abs_tol * max(poly, 1.0) + 1e-12 * abs(v)
            return v, e
    elif route == "J_eta":
        tau = sigma - 0.5

        def value_err(t):
            v = modulus_rhs_via_J(tau, t, cfg)
            poly = 4.0 * ((t * t + tau * tau + 0.25) ** 2 - tau * tau)
            e = 40.0 * cfg.quad_abs_tol * max(poly, 1.0) + 1e-11 * abs(v)
            return v, e
    else:
        raise ValueError(f"unknown route {route!r}")

    values, errs = [], []
    for t in grid:
        v, e = value_err(t)
        values.append(v)
        errs.append(e)
    i_min = min(range(len(grid)), key=values.__getitem__)
    err_est = max(errs)
    violations = [t for t, v, e in zip(grid, values, errs) if v + e < 0.0]
    return ScanReport(sigma, grid, values, values[i_min], grid[i_min],
                      violations, err_est)


# ---------------------------------------------------------------------------
# Polynomial approximations of the cosine transform
# ---------------------------------------------------------------------------

_MOMENT_CAP = 200   # (2n)! growth makes terms vanish far below this in practice
_POLY_STEP = 0.01   # the t-grid of check_poly_min_criterion


def poly_approx_V(sigma: float, N1: int, N2: int, t: float,
                  cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Truncated-polynomial stand-in for the representation:

        S + T t^2 + (t^2+(1-sigma)^2)(t^2+sigma^2)
            * sum_{n=0}^{N2} (-1)^n t^{2n} int_0^{N1} W e^{-sigma x} x^{2n}/(2n)! dx

    N2 beyond the point where terms underflow is silently capped (the ceiling
    formulas produce astronomically large N2; see check_poly_min_criterion).
    The alternating sum cancels as t grows: DomainError is raised once the
    rounding estimate eps (poly sum |term_n| + |S| + |T| t^2) reaches |value|.
    """
    if N1 < 1 or N2 < 1:
        raise ValueError("N1 and N2 must be >= 1")
    terms = _cos_taylor_terms(sigma, N1, min(N2, _MOMENT_CAP), t, cfg)
    s_val, t_val = constants(sigma, cfg)
    poly = (t * t + (1.0 - sigma) ** 2) * (t * t + sigma * sigma)
    value = s_val + t_val * t * t + poly * float(terms[::2].sum() - terms[1::2].sum())
    rounding = np.finfo(float).eps * (poly * np.abs(terms).sum() + abs(s_val) + abs(t_val) * t * t)
    if rounding >= abs(value):
        raise DomainError(f"cancellation at t={t!r}: rounding {rounding:.1e} >= |value|")
    return value


def truncation_levels(epsilon: float, sigma: float, T: int,
                      cfg: EvalConfig = DEFAULT_CONFIG) -> TruncationLevels:
    """Exact ceiling-formula truncation levels:

        N1 = ceil( ln(8 C^2 (T^2+1)^2 / (sigma eps)) / sigma )
        N2 = ceil( (8 C^2 (T^2+1)^2 / (sigma eps))^2 )
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon!r}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T!r}")
    C = sup_constant_C(cfg)
    base = 8.0 * C * C * (T * T + 1.0) ** 2 / (sigma * epsilon)
    return TruncationLevels(
        N1=math.ceil(math.log(base) / sigma),
        N2=math.ceil(base * base),
        epsilon=epsilon, sigma=sigma, T=T)


def verify_tail_bound(levels: TruncationLevels,
                      cfg: EvalConfig = DEFAULT_CONFIG) -> dict:
    """Check (T^2+1)^2 int_{N1}^inf W e^{-sigma x} dx < eps/4 numerically."""
    sigma, N1 = levels.sigma, levels.N1
    if N1 >= 3.0:
        tail = 0.0    # past W's double-exponential support
    else:
        tail = integrate_finite(
            lambda x: W_sigma(sigma, x, "closed", cfg) * math.exp(-sigma * x),
            float(N1), 3.5, cfg).value
    value = (levels.T ** 2 + 1.0) ** 2 * tail
    limit = levels.epsilon / 4.0
    return {"tail": value, "limit": limit, "passes": value < limit}


def check_poly_min_criterion(sigma: float, T: int, epsilon: float,
                             cfg: EvalConfig = DEFAULT_CONFIG) -> dict:
    """Minimize the truncated polynomial over the grid of step _POLY_STEP on [0, T]
    and test it against eps/2.

    The formula's N2 is usually computationally absurd; the polynomial degree
    is capped at _MOMENT_CAP, where additional terms have underflowed, and the
    substitution is reported rather than looped on.
    """
    levels = truncation_levels(epsilon, sigma, T, cfg)
    n2_used = min(levels.N2, _MOMENT_CAP)
    n_pts = int(round(T / _POLY_STEP))
    min_v, min_t = math.inf, 0.0
    for i in range(n_pts + 1):
        t = i * _POLY_STEP
        v = poly_approx_V(sigma, levels.N1, n2_used, t, cfg)
        if v < min_v:
            min_v, min_t = v, t
    return {
        "levels": levels,
        "n2_used": n2_used,
        "substituted": n2_used < levels.N2,
        "min_V": min_v,
        "min_t": min_t,
        "passes_threshold": min_v >= epsilon / 2.0,
    }


def lemb_moment_bound(sigma: float, T: int, n: int,
                      cfg: EvalConfig = DEFAULT_CONFIG) -> dict:
    """Compare T^{2n}/(2n)! int W e^{-sigma x} x^{2n} dx against the closed
    envelope (C_1 + C_{4T+3}) C_{2T+3} T^{2n} / [2(T+1)]^{2n+1}."""
    moments = _scaled_moments(sigma, 20, max(n, 1), cfg)
    lhs = T ** (2 * n) * moments[n]
    c_env = (sup_constant_Cn(1, cfg) + sup_constant_Cn(4 * T + 3, cfg)) \
        * sup_constant_Cn(2 * T + 3, cfg)
    rhs = c_env * T ** (2 * n) / (2.0 * (T + 1.0)) ** (2 * n + 1)
    return {"lhs": lhs, "rhs": rhs, "passes": lhs < rhs}


# ---------------------------------------------------------------------------
# Monte-Carlo reading
# ---------------------------------------------------------------------------

class XSigmaSampler:
    """Rejection sampler for the density rho_sigma(x) ~ W_sigma(x) e^{-sigma x}
    on x >= 0.

    Proposal: Exponential(sigma).  Acceptance: u < W_sigma(x) / (2 C^2), valid
    because W_sigma < 2 C^2 uniformly; W is e^{sigma x} times the Chebyshev
    series through `_w_table`'s node values (an exactly summed transform of
    them, so no coefficient depends on the BLAS kernel), summed by Clenshaw's
    recurrence in O(len(x)) memory, clamped at 0 and cut at _W_CUT.  The
    ceiling grid, the acceptance test, the slope bound and the CDF read that
    one series.  On each bin of a
    uniform grid W is at most its larger end value plus half the step times a
    bound on |W'|.
    Proposals with u at or above the ceiling p = (largest bin bound) / (2 C^2)
    are skipped by geometric thinning (Devroye, Non-Uniform Random Variate
    Generation, 1986, II.3): only candidates, u < p, are generated, each after
    a Geometric(p) gap on {1, 2, ...} with u uniform on [0, p).  A candidate at
    or above its bin's bound is rejected without evaluating W (a squeeze).  So
    the accepted draws and their proposal indices have exactly the plain
    loop's distribution.  The bit generator is Philox keyed by the seed, each
    candidate consumes three uniforms, and chunk sizes are fixed, so sample(m)
    is a prefix of sample(n) for m < n.
    """

    _CHUNK = 1 << 16   # candidates per block of uniforms; fixes which uniforms a draw reads
    _GRID = 1 << 13    # points of the ceiling grid, whose bins are the squeeze

    def __init__(self, sigma: float, cfg: EvalConfig = DEFAULT_CONFIG):
        if not 0.5 < sigma < 1.0:
            raise DomainError(f"sampler needs sigma in (1/2,1), got {sigma!r}")
        self.sigma = sigma
        self.envelope = 2.0 * sup_constant_C(cfg) ** 2
        # the interpolant's coefficients are the node values' discrete cosine
        # transform; they bound |W'| = |(dens' + sigma dens) e^{sigma x}|
        values = _w_table(sigma, cfg).values
        coef = (_row_fsums(chebvander(2.0 * _X / _W_CUT - 1.0, values.size - 1).T * values)
                * (2.0 / values.size))
        coef[0] *= 0.5
        self._dens = dens = Chebyshev(coef, [0.0, _W_CUT])
        slope = (np.abs(dens.deriv().coef).sum()
                 + sigma * np.abs(dens.coef).sum()) * math.exp(sigma * _W_CUT)
        ws = self.w_table(np.linspace(0.0, _W_CUT, self._GRID))
        bins = np.maximum(ws[1:], ws[:-1]) + 0.5 * _W_CUT / (self._GRID - 1) * slope
        # x just below _W_CUT may round into bin _GRID - 1; W is 0 from _W_CUT on
        self._bin_bound = np.append(bins, [bins[-1], 0.0])
        self._accept_ceiling = float(self._bin_bound.max()) / self.envelope
        if self._accept_ceiling >= 1.0:
            excess = float(self._bin_bound.max()) - self.envelope
            raise ConvergenceError(f"envelope 2C^2 violated by the W table by {excess:.2e}", excess)
        self._cum = dens.integ(lbnd=0.0)
        self._norm = float(self._cum(_W_CUT))

    def w_table(self, x: np.ndarray) -> np.ndarray:
        """W at the points x >= 0 (1-d), 0 beyond the support cut."""
        w = np.maximum(self._dens(x), 0.0) * np.exp(self.sigma * np.minimum(x, _W_CUT))
        return np.where(x >= _W_CUT, 0.0, w)

    def _squeeze(self, x: np.ndarray) -> np.ndarray:
        """The bound of the bin holding each x: at least w_table(x)."""
        return self._bin_bound[np.minimum(x * ((self._GRID - 1) / _W_CUT), self._GRID).astype(int)]

    def cdf(self, x) -> np.ndarray:
        return self._cum(np.clip(x, 0.0, _W_CUT)) / self._norm

    def sample_indexed(self, n: int, seed: int):
        """n draws plus each draw's global proposal index (for exact rates).

        Each candidate reads one row (u0, u1, u2) of uniforms: its gap to the
        previous candidate floor(log1p(-u0) / log1p(-p)) + 1, its proposal
        x = -log1p(-u1) / sigma, and its acceptance variate p u2.  An accepted x
        takes libm's log1p, whose bits, unlike numpy's, do not depend on the CPU.
        """
        rng = np.random.Generator(np.random.Philox(key=seed))
        p = self._accept_ceiling
        log_q = math.log1p(-p)
        out = np.empty(n)
        idx = np.empty(n, dtype=np.int64)
        got = 0
        last = -1                  # proposal index of the previous candidate
        while got < n:
            u = rng.random((self._CHUNK, 3))
            gaps = np.floor(np.log1p(-u[:, 0]) / log_q).astype(np.int64) + 1
            cand_idx = last + np.cumsum(gaps)
            x = -np.log1p(-u[:, 1]) / self.sigma
            level = p * u[:, 2] * self.envelope
            maybe = np.nonzero(level < self._squeeze(x))[0]
            pos = maybe[level[maybe] < self.w_table(x[maybe])]
            take = min(n - got, pos.size)
            out[got:got + take] = -libm(math.log1p, -u[pos[:take], 1]) / self.sigma
            idx[got:got + take] = cand_idx[pos[:take]]
            got += take
            last = int(cand_idx[-1])
        return out, idx

    def sample(self, n: int, seed: int):
        """n draws plus the realized acceptance rate, reproducible per seed;
        sample(m, seed) returns a prefix of sample(n, seed) for m < n."""
        out, idx = self.sample_indexed(n, seed)
        return out, n / float(idx[-1] + 1)


def mm_bound(sigma: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Right side of the expectation inequality:
    -(S + T t^2) / (Z (t^2+(1-sigma)^2)(t^2+sigma^2)), Z = int W e^{-sigma x} dx."""
    s_val, t_val = constants(sigma, cfg)
    z = w_cos_fixed(sigma, 0.0, cfg)
    poly = (t * t + (1.0 - sigma) ** 2) * (t * t + sigma * sigma)
    return -(s_val + t_val * t * t) / (z * poly)


def mc_check(sigma: float, ts, n_samples: int, seed: int,
             cfg: EvalConfig = DEFAULT_CONFIG) -> list:
    """Monte-Carlo estimates of E[cos(t X_sigma)] with their quadrature twins, one
    MCReport per t of the sequence `ts`: one sampler and one draw of n_samples
    serve every t.  DomainError, before the sampler is built, unless
    1000 <= n_samples <= MAX_SAMPLES."""
    if n_samples < 1000:
        raise DomainError(f"Monte-Carlo needs n_samples >= 1000, got {n_samples!r}")
    if n_samples > MAX_SAMPLES:
        raise DomainError(f"Monte-Carlo takes at most {MAX_SAMPLES} samples, got {n_samples!r}")
    if not 0 <= seed < 2 ** 128:
        raise DomainError(f"Monte-Carlo needs a seed in [0, 2**128), got {seed!r}")
    xs, acc_rate = XSigmaSampler(sigma, cfg).sample(n_samples, seed)
    z = w_cos_fixed(sigma, 0.0, cfg)
    reports = []
    for t in ts:
        cos_vals = np.cos(t * xs)
        estimate = float(np.mean(cos_vals))
        std_error = float(np.std(cos_vals, ddof=1) / math.sqrt(n_samples))
        reports.append(MCReport(sigma, t, estimate, std_error, n_samples, acc_rate, seed,
                                w_cos_fixed(sigma, t, cfg) / z))
    return reports


# ---------------------------------------------------------------------------
# The positive kernel, its transform, and the autocorrelation
# ---------------------------------------------------------------------------

def K_sigma(sigma: float, x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """K_sigma(x) = 2^{sigma+3/2} pi^{-1} sigma(1-sigma)(2 sigma-1) Hcal_sigma(x)
    + sigma [S - T(1-sigma)^2] e^{(sigma-1)x} - (1-sigma) [S - T sigma^2] e^{-sigma x};
    positive on x >= 0 for sigma in (1/2, 1).  2^{sigma+3/2} pi^{-1} Hcal_sigma is
    W e^{-sigma x}, read from `_w_table`'s density and 0 from _W_CUT on."""
    if not 0.5 < sigma < 1.0:
        raise DomainError(f"K_sigma needs sigma in (1/2,1), got {sigma!r}")
    if x < 0.0:
        raise DomainError(f"K_sigma needs x >= 0, got {x!r}")
    s_val, t_val = constants(sigma, cfg)
    w_exp = float(_w_table(sigma, cfg).density(np.array([x]))[0]) if x < _W_CUT else 0.0
    return (sigma * (1.0 - sigma) * (2.0 * sigma - 1.0) * w_exp
            + sigma * (s_val - t_val * (1.0 - sigma) ** 2) * math.exp((sigma - 1.0) * x)
            - (1.0 - sigma) * (s_val - t_val * sigma * sigma) * math.exp(-sigma * x))


def K_fourier(sigma: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """2 int_0^inf K_sigma(x) cos(tx) dx = 4 sigma(1-sigma)(2 sigma-1) |xi(sigma-it)|^2 / poly(t),
    poly(t) = (t^2+(1-sigma)^2)(t^2+sigma^2).

    The exponential tails of K_sigma transform to 2a/(a^2+t^2), and their partial
    fractions sum to 2 sigma(1-sigma)(2 sigma-1)(S + T t^2)/poly(t); with the Hcal
    part's transform this is the representation over poly, so K^ reads `modulus_rhs`.
    DomainError outside sigma in (1/2, 1), where K_sigma is not the positive kernel.
    """
    if not 0.5 < sigma < 1.0:
        raise DomainError(f"K_fourier needs sigma in (1/2,1), got {sigma!r}")
    poly = (t * t + (1.0 - sigma) ** 2) * (t * t + sigma * sigma)
    return 4.0 * sigma * (1.0 - sigma) * (2.0 * sigma - 1.0) * modulus_rhs(sigma, t, cfg) / poly


def autocorrelation_A(sigma: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """A_sigma(t) = int_0^inf K cos(tx) dx / int_0^inf K dx, in [-1, 1], A(0)=1."""
    return K_fourier(sigma, t, cfg) / K_fourier(sigma, 0.0, cfg)


def bisect_zero(f: Callable[[float], float], a: float, b: float,
                fa: Optional[float] = None, fb: Optional[float] = None,
                xtol: float = 1e-10) -> float:
    """Plain bisection for a bracketed sign change, to xtol or to the float spacing
    of the bracket, whichever is wider."""
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("endpoints do not bracket a sign change")
    m = 0.5 * (a + b)
    while b - a > xtol and a < m < b:
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
        m = 0.5 * (a + b)
    return m


def scan_for_zero(f: Callable[[float], float], t_lo: float, t_max: float,
                  step: float, noise_floor: float = 0.0) -> dict:
    """Walk the floats k * step in [t_lo, t_max], the grid of `scan_inequality`
    and the CLI, valuing f once at each; bisect the first sign change to 1e-10.

    A change is trusted only when both endpoints clear `noise_floor` in
    magnitude (10x the local error estimate, for quadrature-backed f).
    Returns {'zero': t or None, 'min_value': .., 'min_t': .., 'walk': [(t, f(t)), ..]}
    with the minimum and the walk over the whole grid; DomainError, before f is
    called, when step is not positive or [t_lo, t_max] holds no grid point, or
    more than MAX_GRID_POINTS.
    """
    if step <= 0.0:
        raise DomainError(f"zero scan needs step > 0, got {step!r}")
    ks = grid_indices(t_lo, t_max, step, "zero scan")
    if not ks:
        raise DomainError(f"zero scan has no grid point k * {step!r} in [{t_lo!r}, {t_max!r}]")
    walk = [(k * step, f(k * step)) for k in ks]
    zero = next((bisect_zero(f, a, b, fa, fb) for (a, fa), (b, fb) in zip(walk, walk[1:])
                 if fa * fb < 0.0 and abs(fa) > noise_floor and abs(fb) > noise_floor), None)
    min_t, min_value = min(walk, key=lambda point: point[1])
    return {"zero": zero, "min_value": min_value, "min_t": min_t, "walk": walk}


def orthogonalization_scan(sigma: float, t_max: float, step: float = 0.5,
                           cfg: EvalConfig = DEFAULT_CONFIG) -> dict:
    """Scan A_sigma over (0, t_max] for its first zero, reading K^(0) once.

    Returns {'iota_found': t or None, 'min_A': .., 'min_t': .., 'walk': [(t, A(t)), ..]},
    the walk holding A at each grid point k * step in (0, t_max].  No zero on
    the scanned range is the expected outcome for sigma in (1/2, 1).
    """
    if t_max < 0.0:
        raise DomainError(f"autocorrelation scan needs t_max >= 0, got {t_max!r}")
    k0 = K_fourier(sigma, 0.0, cfg)
    noise = 1e4 * cfg.quad_abs_tol   # conservative 10x error floor for A values
    result = scan_for_zero(lambda t: K_fourier(sigma, t, cfg) / k0,
                           step, t_max, step, noise_floor=noise)
    return {"iota_found": result["zero"], "min_A": result["min_value"],
            "min_t": result["min_t"], "walk": result["walk"]}

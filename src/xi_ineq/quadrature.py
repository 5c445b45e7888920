"""Integration engines: an adaptive one, a trapezoid sum, and the fixed rule of
the node tables.

One adaptive entry point:

  integrate_finite          adaptive Gauss-Kronrod 7/15 on [a, b] of a real or
                            complex integrand, its accepted panels summed
                            exactly (math.fsum, part by part); a caller on a
                            decaying integrand passes the upper limit
                            (cfg.truncation_point), and one on an oscillating
                            integrand presplits with `min_panels` so that no
                            first panel is wider than a half period

The cosh-substituted integrals of the W and J tables share one equispaced engine,
batched by rows: one call integrates m rows, each on its own interval, and values
a whole level of every running row in one integrand call.  The integrands take
exp and cosh from libm (`libm`), numpy does only adds and multiplies, and each
row's sums are exact (math.fsum), so a row's value depends neither on the CPU's
vector instructions nor on the rows beside it:

  integrate_trapezoid       int_0^u_max_i f(u) du for rows of f even, analytic
                            and negligible at u_max_i, by the trapezoid rule with
                            each row's step halved until two sums agree
  integrate_eta_weighted    int_1^inf g(y) eta_tau(y) dy via y = cosh(u), which
                            removes the (y-1)^{-1/2} endpoint singularity, by
                            integrate_trapezoid, one row per integral
  cosh_cutoff               the cutoff of every cosh-substituted integral (Gcal,
                            F_sigma, the eta-weighted rows): the closed form
                            acosh(1 + target/rate) + 0.25, each caller with
                            its own target

All engines report value, error estimate and evaluation count.  Each takes its
targets from the caller's config alone; a caller that wants relative
acceptance only passes a copy whose quad_abs_tol is RELATIVE_ONLY.

The node tables (the W table and the J/eta table in `modulus`, the U table in
`xi`) share one fixed rule: `chebyshev_fejer` gives the Chebyshev points of the
first kind on [0, b] with their Fejer type-1 and barycentric weights, and
`barycentric` reads the polynomial through values at a few hundred such points
at most (the sampler sums its own Chebyshev series instead).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import EvalConfig
from .errors import ConvergenceError, EvaluationError

# an absolute target below every integral's rounding: a config with this
# quad_abs_tol makes an engine's acceptance relative only
RELATIVE_ONLY = 1e-300

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].  Even-indexed nodes are
# Kronrod-only; odd-indexed nodes (and the centre) carry the embedded Gauss rule.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@dataclass
class QuadResult:
    """One integral's result, or a batch's: a batched `integrate_trapezoid` gives
    value and err_est as arrays with one entry a row, and evals for all rows; a
    complex integrand a complex value."""
    value: float | complex
    err_est: float
    evals: int
    converged: bool = True


def _eval(f: Callable[[float], float | complex], x: float) -> float | complex:
    fx = f(x)
    if not cmath.isfinite(fx):
        raise EvaluationError(f"integrand returned {fx!r} at x={x!r}", abscissa=x)
    return fx


def _gk15(f, a, b):
    """One 15-point Kronrod panel: (value, err_est, 15 evals)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = _eval(f, c)
    resg = fc * _WG[3]
    resk = fc * _WGK[7]
    resabs = abs(fc) * _WGK[7]
    fv = [0.0] * 14
    for j in range(7):
        x = h * _XGK[j]
        f1 = _eval(f, c - x)
        f2 = _eval(f, c + x)
        fv[j] = f1
        fv[7 + j] = f2
        fsum = f1 + f2
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * fsum
    reskh = resk * 0.5
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(fv[j] - reskh) + abs(fv[7 + j] - reskh))
    value = resk * h
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # guard against error estimates below attainable rounding
    err = max(err, 50.0 * 2.220446049250313e-16 * resabs * abs(h))
    return value, err, 15


def integrate_finite(
    f: Callable[[float], float | complex],
    a: float,
    b: float,
    cfg: EvalConfig,
    min_panels: int = 1,
) -> QuadResult:
    """Adaptive bisection with the embedded 7/15 pair; the accepted panels'
    values are summed exactly (math.fsum), so the order they settle in does not
    matter.  A complex f (error estimates by modulus) gives a complex value, whose
    real and imaginary parts are summed exactly each on its own.

    The first panel samples 15 abscissae, so a feature much narrower than
    (b-a)/15 can hide between nodes; callers integrating a wide window around
    a localized integrand, or an oscillating one, should pass `min_panels` to
    presplit it into equal panels, each with an equal share of cfg.quad_abs_tol.

    Raises ConvergenceError (carrying the best QuadResult) if some panel still
    misses its tolerance share at depth cfg.quad_max_depth.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    abs_tol, rel_tol = cfg.quad_abs_tol, cfg.quad_rel_tol

    values = []
    err_total = 0.0
    evals = 0
    exhausted = False
    if min_panels > 1:
        edges = [a + (b - a) * k / min_panels for k in range(min_panels + 1)]
        share = abs_tol / min_panels
        stack = [(lo, hi, share, 0) for lo, hi in zip(edges[-2::-1], edges[:0:-1])]
    else:
        stack = [(a, b, abs_tol, 0)]
    while stack:
        lo, hi, budget, depth = stack.pop()
        value, err, n = _gk15(f, lo, hi)
        evals += n
        settled = (err <= max(budget, rel_tol * abs(value))
                   or (hi - lo) <= 1e-15 * max(abs(lo), abs(hi), 1.0))
        if settled or depth >= cfg.quad_max_depth:
            values.append(value)
            err_total += err
            exhausted |= not settled
            continue
        mid = 0.5 * (lo + hi)
        half = 0.5 * budget
        stack.append((mid, hi, half, depth + 1))
        stack.append((lo, mid, half, depth + 1))

    value = math.fsum(v.real for v in values)
    if any(isinstance(v, complex) for v in values):
        value = complex(value, math.fsum(v.imag for v in values))
    result = QuadResult(value, err_total, evals, converged=not exhausted)
    if exhausted:
        raise ConvergenceError(
            f"depth {cfg.quad_max_depth} exhausted on [{a}, {b}]; "
            f"best estimate {result.value!r} +- {result.err_est:.3e}",
            partial=result,
        )
    return result


def cosh_cutoff(rate, target):
    """The u past which exp(-rate (cosh u - 1)) is below exp(-target):
    acosh(1 + target/rate) from libm, plus 0.25, the margin that covers the
    integrand's slower factors.  For a float rate (a float back) or for each of an
    array of them (an array back, each element with the bits of its float call)."""
    u = libm(math.acosh, 1.0 + target / np.asarray(rate, dtype=float)) + 0.25
    return float(u) if np.ndim(u) == 0 else u


def integrate_eta_weighted(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    tau: float,
    cfg: EvalConfig,
    decay_rate: float = 2.0 * math.pi,
    scale: float = 1.0,
) -> QuadResult:
    """int_1^inf g(y) eta_tau(y) dy with eta's inverse-square-root singularity
    removed by y = cosh(u):

        int_0^inf g(cosh u) * 2 cosh(tau u) du

    by `integrate_trapezoid`: the integrand is even in u, and analytic where g
    is.  `decay_rate` bounds g as |g(y)| <= scale*exp(-decay_rate*y), which sets
    the cutoff: `cosh_cutoff` at the target log(20*max(scale,1)/quad_abs_tol), past
    which the transformed integrand's bound exp(-decay_rate (cosh u - 1) + |tau| u)
    is below exp(-target) for every decay_rate >= 2 pi and |tau| <= 1/2.  An array
    of decay rates makes a batch, one row (one integral) each, in one engine call.
    g(y, rows) maps an (r, n) array of y to the (r, n) array of values, `rows`
    holding the batch indices of its r rows, as in `integrate_trapezoid`; a batch
    gives arrays back.
    """
    u_max = cosh_cutoff(decay_rate, math.log(20.0 * max(scale, 1.0) / cfg.quad_abs_tol))

    def integrand(u, rows):
        return g(libm(math.cosh, u), rows) * 2.0 * libm(math.cosh, tau * u)

    return integrate_trapezoid(integrand, u_max, cfg)


TRAPEZOID_HALVINGS = 10   # 8 * 2^10 panels at most


def libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn (math.exp, math.cosh, ...) at every element of x: libm's values, which
    do not depend on the CPU, where numpy's vectorized exp may differ in the last
    bit from one instruction set to the next."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _row_fsums(values: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(row) for row in values.tolist()])


def integrate_trapezoid(f: Callable[[np.ndarray, np.ndarray], np.ndarray], u_max,
                        cfg: EvalConfig) -> QuadResult:
    """int_0^u_max_i f(u) du for a batch of rows i, each f even, analytic in a strip
    about the real axis and negligible at u_max_i, by the composite trapezoid rule.
    For such f the rule converges exponentially in 1/step (Trefethen & Weideman,
    SIAM Review 56, 2014): the odd derivatives vanish at 0 and f is gone at
    u_max_i, so the Euler-Maclaurin correction has no terms.

    `u_max` is a float (one row) or a 1-d array of m cutoffs.  f(u, rows) maps an
    (r, n) array of abscissae to the (r, n) array of values, where `rows` holds
    the batch indices of u's r rows and row i of the batch lies on [0, u_max_i]:
    one call values a whole level of every row still running.  Each row's step
    starts at u_max_i/8 and is halved, each sum reusing every abscissa of the one
    before, until two successive sums differ by at most max(cfg.quad_abs_tol,
    cfg.quad_rel_tol |sum|); that level's sum is the row's `value` and the
    difference its `err_est`, and the row drops out of the later levels.  Each
    level's new values are summed exactly (math.fsum) row by row, so a row's bits
    do not depend on the batch it rides in.  A float u_max gives a value and an
    err_est that are floats, an array gives arrays; `evals` counts the integrand
    values of all rows.

    Raises ConvergenceError (carrying the rows' last sums) when some row has not
    settled after TRAPEZOID_HALVINGS halvings.
    """
    one_row = np.ndim(u_max) == 0
    u_max = np.atleast_1d(np.asarray(u_max, dtype=float))
    if u_max.ndim != 1 or not u_max.size or not np.all(u_max > 0.0):
        raise ValueError(f"need u_max > 0, got {u_max!r}")
    result = QuadResult(np.empty(len(u_max)), np.empty(len(u_max)), 0)

    def level(u, rows):
        fu = f(u, rows)
        bad = ~np.isfinite(fu)
        if bad.any():
            i = np.flatnonzero(bad)[0]
            x = float(u.flat[i])
            raise EvaluationError(f"integrand returned {fu.flat[i]!r} at x={x!r}", abscissa=x)
        result.evals += u.size
        return fu

    # the running rows: their batch indices, steps, end terms, inner sums, last sums
    n = 8
    live = np.arange(len(u_max))
    h = u_max / n
    fu = level(h[:, None] * np.arange(n + 1), live)
    ends = 0.5 * (fu[:, 0] + fu[:, n])
    inner = _row_fsums(fu[:, 1:n])
    value = h * (ends + inner)
    for _ in range(TRAPEZOID_HALVINGS):
        h = 0.5 * h
        inner = inner + _row_fsums(level(h[:, None] * np.arange(1, 2 * n, 2), live))
        n *= 2
        value, previous = h * (ends + inner), value
        err = np.abs(value - previous)
        done = err <= np.maximum(cfg.quad_abs_tol, cfg.quad_rel_tol * np.abs(value))
        if done.any():
            settled = live[done]
            result.value[settled], result.err_est[settled] = value[done], err[done]
            keep = ~done
            live, h, ends, inner, value, err = (a[keep] for a in (live, h, ends, inner, value, err))
            if not live.size:
                break
    else:
        result.value[live], result.err_est[live] = value, err
        result.converged = False
        message = (f"trapezoid sums on [0, {u_max.max()}] unsettled after "
                   f"{TRAPEZOID_HALVINGS} halvings in {live.size} of {len(u_max)} rows; "
                   f"last difference {err.max():.3e}")
    if one_row:
        result.value, result.err_est = float(result.value[0]), float(result.err_est[0])
    if not result.converged:
        raise ConvergenceError(message, partial=result)
    return result


# ---------------------------------------------------------------------------
# The fixed rule of the node tables
# ---------------------------------------------------------------------------

def chebyshev_fejer(n: int, b: float) -> tuple:
    """The n Chebyshev points of the first kind on [0, b], their Fejer type-1
    weights (Waldvogel, BIT 46, 2006), which sum to n, so that b/n times them is
    the rule on [0, b], and their barycentric weights (-1)^j sin(theta_j)."""
    theta = (2 * np.arange(n) + 1) * math.pi / (2 * n)
    k = np.arange(1, n // 2 + 1)
    fejer = 1.0 - 2.0 * (np.cos(2.0 * np.outer(theta, k)) / (4 * k * k - 1)).sum(axis=1)
    return 0.5 * b * (1.0 - np.cos(theta)), fejer, (-1.0) ** np.arange(n) * np.sin(theta)


def barycentric(values: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
                x: np.ndarray) -> np.ndarray:
    """The polynomial through `values` at `nodes`, whose barycentric weights are
    `weights`, at the points x (1-d), by the barycentric second form (Berrut &
    Trefethen, SIAM Review 46, 2004), with len(x) * len(nodes) floats of temporaries.
    Each point's two sums are exact (math.fsum), so no value depends on the CPU."""
    d = np.subtract.outer(x, nodes)
    d[d == 0.0] = 1e-300   # x on a node: that node's term decides alone
    r = np.reciprocal(d, out=d)
    return _row_fsums(r * (weights * values)) / _row_fsums(r * weights)

"""Theta series and friends.

The base object is R(y) = 2 sum_{n>=1} exp(-pi n^2 y^2).  With G = 1 + R and
H(y) = y*[y*G(y)]'' the classical inversion identities

    G(y) = G(1/y)/y        H(y) = H(1/y)/y        (y > 0)

make small arguments exactly reducible to large ones; every routine here routes
y < 1 through them, because the direct series converges slowly near 0 and the
combinations yR(y)+y-1 and y^2 R'(y)+1 cancel catastrophically there.

R and R' are memoized in bounded lru_caches (2,048 and 512 entries, more
than the distinct arguments of a cross-check run).  R does not depend on sigma,
and the adaptive quadratures on [1, x_max] sample the same abscissae at every
sigma and t, so the oracle xi(), S/T routes A and C, the stable combinations
and the convolution form of W compute each series value once; a hit returns
the double the series gave, so every result is bit-identical.  H and J_tau are
not memoized: H's arguments barely repeat (about 3,800 distinct in 6,250
calls of a cross-check run) and J_tau's never do, so a table would cost
memory for little or no reuse.

H and the double series J_tau with its derivatives (divisor-sum accelerated)
take a float or a whole array (the J table's trapezoid levels, the U table's
line sum).  An array runs one element-wise loop, `_elementwise_series`, with
libm's exp, so each element has the bits of its float call on every CPU; H's
float call stays `_series`, which the adaptive U_sigma integrands call thousands
of times a run.  Also here: the weight eta_tau, and the sup-constants used in
the tail bounds.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig
from .errors import ConvergenceError, DomainError
from .quadrature import libm

_EXP_UNDERFLOW = 745.0  # exp(-746) underflows to 0 in binary64
_MIN_TERMS = 6


def _series(term, cfg: EvalConfig) -> float:
    """Sum term(1), term(2), ... with relative-tail stopping (floor 6 terms)."""
    total = 0.0
    for n in range(1, cfg.series_max_terms + 1):
        t = term(n)
        total += t
        if n >= _MIN_TERMS and abs(t) <= cfg.series_tol * abs(total):
            return total
    raise ConvergenceError(
        f"series cap {cfg.series_max_terms} reached", partial=total)


def _elementwise_series(y: np.ndarray, exponent, factor, cfg: EvalConfig):
    """`_series` at every element of the array y, of the terms factor(n, y) *
    exp(-a), a = exponent(n, y), by libm and exactly 0.0 past a = _EXP_UNDERFLOW,
    as the float terms give.  The callbacks see the 1-d array of the elements
    still running (factor only those below the cut), and each element stops by
    `_series`' rule, so it has the bits of its float call whatever array it rides
    in.  A 0-d y gives a float back, any other an array of its shape;
    ConvergenceError (partial: the sums so far, shaped alike) at the cap."""
    y_live = y.ravel()
    live = np.arange(y.size)             # the elements whose sums go on
    total = np.zeros(y.size)
    acc = total.copy()                   # their running sums
    for n in range(1, cfg.series_max_terms + 1):
        a = exponent(n, y_live)
        on = a <= _EXP_UNDERFLOW
        term = np.zeros(len(a))
        term[on] = factor(n, y_live[on]) * libm(math.exp, -a[on])
        acc += term
        if n >= _MIN_TERMS:
            done = np.abs(term) <= cfg.series_tol * np.abs(acc)
            total[live[done]] = acc[done]
            live, y_live, acc = live[~done], y_live[~done], acc[~done]
            if not live.size:
                break
    else:
        total[live] = acc
    out = float(total[0]) if y.ndim == 0 else total.reshape(y.shape)
    if live.size:
        raise ConvergenceError(f"series cap {cfg.series_max_terms} reached", partial=out)
    return out


@lru_cache(maxsize=2048)   # a cross-check run asks for about 1,560 distinct arguments
def theta_R(y: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """R(y) = 2 sum exp(-pi n^2 y^2); y < 1 via R(y) = (1 - y + R(1/y))/y."""
    if not y > 0.0:
        raise DomainError(f"theta_R needs y > 0, got {y!r}")
    if y < 1.0:
        return (1.0 - y + theta_R(1.0 / y, cfg)) / y

    def term(n):
        a = math.pi * n * n * y * y
        return 0.0 if a > _EXP_UNDERFLOW else 2.0 * math.exp(-a)

    return _series(term, cfg)


@lru_cache(maxsize=512)    # and for about 390 distinct arguments of R'
def theta_R_prime(y: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """R'(y) = -4 pi y sum n^2 exp(-pi n^2 y^2), inversion-stable for y < 1."""
    if not y > 0.0:
        raise DomainError(f"theta_R_prime needs y > 0, got {y!r}")
    if y < 1.0:
        inv = 1.0 / y
        return -theta_R_prime(inv, cfg) * inv ** 3 - (1.0 + theta_R(inv, cfg)) * inv ** 2

    def term(n):
        a = math.pi * n * n * y * y
        return 0.0 if a > _EXP_UNDERFLOW else -4.0 * math.pi * y * n * n * math.exp(-a)

    return _series(term, cfg)


def theta_G(y: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    return 1.0 + theta_R(y, cfg)


def theta_H(y, cfg: EvalConfig = DEFAULT_CONFIG):
    """H(y) = 4 pi sum [2 pi (ny)^4 - 3 (ny)^2] exp(-pi n^2 y^2), at a float y (a
    float back) or at every element of an array y (an array back, each element
    with the bits of its float call)."""
    if isinstance(y, np.ndarray):
        if not np.all(y > 0.0):
            raise DomainError(f"theta_H needs y > 0, got {y!r}")
        small = y < 1.0
        h = _elementwise_series(np.where(small, 1.0 / y, y),
                                lambda n, y: math.pi * n * n * y * y, _h_factor, cfg)
        return np.where(small, h / y, h)
    if not y > 0.0:
        raise DomainError(f"theta_H needs y > 0, got {y!r}")
    if y < 1.0:
        return theta_H(1.0 / y, cfg) / y

    def term(n):
        a = math.pi * n * n * y * y
        return 0.0 if a > _EXP_UNDERFLOW else _h_factor(n, y) * math.exp(-a)

    return _series(term, cfg)


def _h_factor(n: int, y):
    """4 pi [2 pi (ny)^4 - 3 (ny)^2], the factor of exp(-pi (ny)^2) in H's n-th term,
    at a float y or elementwise over an array, with the same bits."""
    ny2 = (n * y) * (n * y)
    return 4.0 * math.pi * (2.0 * math.pi * ny2 * ny2 - 3.0 * ny2)


def stable_combo_A(y: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """y*R(y) + y - 1, which equals R(1/y); the identity is used for y < 1
    where the direct form is a difference of near-equal quantities."""
    if not y > 0.0:
        raise DomainError(f"stable_combo_A needs y > 0, got {y!r}")
    if y < 1.0:
        return theta_R(1.0 / y, cfg)
    return y * theta_R(y, cfg) + y - 1.0


def stable_combo_B(y: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """y^2*R'(y) + 1, computed as -R'(1/y)/y - R(1/y) for y < 1."""
    if not y > 0.0:
        raise DomainError(f"stable_combo_B needs y > 0, got {y!r}")
    if y < 1.0:
        inv = 1.0 / y
        return -theta_R_prime(inv, cfg) * inv - theta_R(inv, cfg)
    return y * y * theta_R_prime(y, cfg) + 1.0


def theta_R_truncated(y: float, n_terms: int) -> float:
    """Plain partial sum 2 sum_{n<=n_terms} exp(-pi n^2 y^2), no inversion.

    Reproduction aid for fixed-truncation recipes; not accuracy-controlled.
    """
    return 2.0 * sum(math.exp(-a) for n in range(1, n_terms + 1)
                     if (a := math.pi * n * n * y * y) <= _EXP_UNDERFLOW)


def theta_R_prime_truncated(y: float, n_terms: int) -> float:
    """Derivative of the plain partial sum; see theta_R_truncated."""
    return -4.0 * math.pi * y * sum(
        n * n * math.exp(-a) for n in range(1, n_terms + 1)
        if (a := math.pi * n * n * y * y) <= _EXP_UNDERFLOW)


@lru_cache(maxsize=4096)
def divisor_sigma(k: int, a: float) -> float:
    """sum_{d | k} d^a by trial division."""
    if k < 1:
        raise DomainError(f"divisor_sigma needs k >= 1, got {k!r}")
    total = 0.0
    d = 1
    while d * d <= k:
        if k % d == 0:
            total += float(d) ** a
            q = k // d
            if q != d:
                total += float(q) ** a
        d += 1
    return total


def J_tau(tau: float, y, deriv: int = 0,
          cfg: EvalConfig = DEFAULT_CONFIG, naive: bool = False):
    """deriv-th derivative of J_tau(y) = sum_{m,n} (n/m)^tau exp(-2 pi m n y), at a
    float y (a float back) or at every element of an array y (an array back).

    Default path collapses the double sum over the product k = m*n:

        J_tau(y) = sum_k sigma_{2tau}(k) k^{-tau} exp(-2 pi k y)

    so each y-derivative just brings down (-2 pi k)^deriv.  The k-th term is the
    constant sigma_{2tau}(k) k^{-tau} (-2 pi k)^deriv times libm's exp(-2 pi k y),
    summed by `_elementwise_series`, so each element has the bits of its float
    call whatever array it rides in.  `naive=True` keeps the raw double sum at a
    float y (test oracle; both indices capped by series_max_terms).
    """
    ys = np.asarray(y, dtype=float)
    if not np.all(ys > 0.0):
        raise DomainError(f"J_tau needs y > 0, got {y!r}")
    if deriv not in (0, 1, 2, 3):
        raise DomainError(f"deriv must be in 0..3, got {deriv!r}")

    if naive:
        total = 0.0
        cap = min(cfg.series_max_terms, 400)
        for m in range(1, cap + 1):
            row = 0.0
            for n in range(1, cap + 1):
                a = 2.0 * math.pi * m * n * y
                if a > _EXP_UNDERFLOW:
                    break
                row += (n / m) ** tau * (-2.0 * math.pi * m * n) ** deriv * math.exp(-a)
            total += row
            if 2.0 * math.pi * m * y > _EXP_UNDERFLOW:
                break
        return total

    def coef(k, y):
        return divisor_sigma(k, 2.0 * tau) * float(k) ** (-tau) * (-2.0 * math.pi * k) ** deriv

    return _elementwise_series(ys, lambda k, y: 2.0 * math.pi * k * y, coef, cfg)


def eta_tau(tau: float, y: float) -> float:
    """eta_tau(y) = [(y+sqrt(y^2-1))^tau + (y+sqrt(y^2-1))^{-tau}] / sqrt(y^2-1).

    Defined for y > 1 only; it blows up like (y-1)^{-1/2} at 1, so integrals
    against it must go through integrate_eta_weighted's cosh substitution.
    """
    if not y > 1.0:
        raise DomainError(f"eta_tau needs y > 1, got {y!r}")
    s = math.sqrt(y * y - 1.0)
    w = y + s
    return (w ** tau + w ** (-tau)) / s


def _golden_max(f, a: float, b: float, tol: float = 1e-10):
    """Golden-section maximization; returns (x, f(x)) on the final bracket."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def _sup_on_log_grid(f, lo: float = 1e-4, hi: float = 1e2, points: int = 256) -> float:
    """Coarse log-grid scan + golden-section refinement around the best point."""
    log_lo, log_hi = math.log(lo), math.log(hi)
    xs = [math.exp(log_lo + (log_hi - log_lo) * i / (points - 1)) for i in range(points)]
    vals = [f(x) for x in xs]
    i = max(range(points), key=vals.__getitem__)
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, points - 1)]
    _, fmax = _golden_max(f, a, b)
    return max(fmax, vals[i])


def sup_constant_Cn(n: int, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """sup_{y>0} y^n R(y).

    Diverges for n = 0 (R(y) ~ 1/y as y -> 0): returns +inf as the divergence
    flag.  For n = 1 the supremum is the y->0 limit, exactly 1 by inversion
    (yR(y) = 1 - y + R(1/y)); for n >= 2 it is an interior maximum.
    """
    if n < 0:
        raise DomainError(f"sup_constant_Cn needs n >= 0, got {n!r}")
    if n == 0:
        return math.inf
    boundary_limit = 1.0 if n == 1 else 0.0
    found = _sup_on_log_grid(lambda y: y ** n * theta_R(y, cfg))
    return max(boundary_limit, found)


def sup_constant_C(cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """sup_{y>0} (y^3 + y) R(y); at least 1, since (y^3+y)R(y) -> 1 as y -> 0."""
    found = _sup_on_log_grid(lambda y: (y ** 3 + y) * theta_R(y, cfg))
    return max(1.0, found)

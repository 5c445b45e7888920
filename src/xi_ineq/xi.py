"""Independent ground truth for the completed zeta function.

xi(s) is evaluated from the classical theta-integral representation

    xi(s) = 1/2 + s(s-1)/2 * int_1^inf (x^{s/2-1} + x^{-(s+1)/2}) psi(x) dx,
    psi(x) = sum_{n>=1} exp(-pi n^2 x) = R(sqrt(x)) / 2,

which is entire and manifestly symmetric under s <-> 1-s.  Everything else in
the library is checked against this route; it shares only the theta series R
with the representation code, none of the downstream machinery.

The module also provides the probabilistic objects attached to xi: the density
P_sigma whose characteristic function is xi(sigma-it)/xi(sigma), the symmetric
correlation kernel U_sigma, and the cosine-transform route to |xi|^2 through it.

That route, |xi(sigma-it)|^2 = (1/2) int_0^inf U_sigma(y) cos(ty) dy, reads one
certified table per sigma (`_u_table`): U_sigma at the 96 Chebyshev points of
the first kind on [0, 3.4], read with their Fejer type-1 weights by the route
and by the barycentric formula by density_Pbar.  Past 3.4 U's
doubly exponential decay has taken it below 1e-30 of U(0), so the support is cut
there; the rule stays on the half line, because U's even extension is not
smooth at y = 0.  The node values come from the full-line form
U_sigma(y) = int g(x) g(x+y) dx, g(x) = H(e^x) e^{(1-sigma)x}, as one uniform
trapezoid sum (`_u_line_sum`): g is analytic in a strip and exactly 0.0 in
double precision outside |x| <= 2.73, so the sum converges exponentially in its
step.  g on the sum's grid is one array call of `_g`, so of theta_H's array
form, and each value has the bits of its float call on every CPU.  The
polynomial through the node values is checked against U_sigma, a different
quadrature, at 12 probes between the nodes before the table is used, and each
t is one exactly summed product with the masses.  U_sigma and the line
sum are computed here from H alone, so the route shares only the rule with the
Hcal, Gcal and J/eta tables of `modulus`.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .config import DEFAULT_CONFIG, EvalConfig, config_cache
from .errors import ConvergenceError, DomainError
from .quadrature import RELATIVE_ONLY, barycentric, chebyshev_fejer, integrate_finite, libm
from .theta import theta_H, theta_R

# where exp(-pi x) alone is below any double-precision tolerance
_PSI_DECAY = math.pi


def psi_theta(x: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """psi(x) = sum exp(-pi n^2 x), reusing the inversion-stable R."""
    return 0.5 * theta_R(math.sqrt(x), cfg)


def xi(s: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Entire completed-zeta evaluation; satisfies xi(s) = xi(1-s).

    One adaptive integral of the complex integrand on [1, cfg.truncation_point(pi, 2)],
    its real and imaginary parts summed exactly each on their own."""
    s = complex(s)
    x_max = cfg.truncation_point(_PSI_DECAY, 2.0)
    integral = integrate_finite(
        lambda x: (x ** (0.5 * s - 1.0) + x ** (-0.5 * (s + 1.0))) * psi_theta(x, cfg),
        1.0, x_max, cfg).value
    return 0.5 + 0.5 * s * (s - 1.0) * integral


@config_cache(maxsize=256)
def xi_real(sigma: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """xi at a real point (real-valued there; cached, it normalizes densities)."""
    return xi(complex(sigma, 0.0), cfg).real


def xi_mod_sq(sigma: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """|xi(sigma - it)|^2, even in t."""
    value = xi(complex(sigma, -t), cfg)
    return abs(value) ** 2


def char_fn_Xi(sigma: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """xi(sigma - it) / xi(sigma): a characteristic function, so == 1 at t = 0."""
    return xi(complex(sigma, -t), cfg) / xi_real(sigma, cfg)


def density_P(sigma: float, y: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Density of the law whose characteristic function is char_fn_Xi:

        P_sigma(y) = H(e^{-y}) e^{-sigma y} / (2 xi(sigma))      y <= 0
                     H(e^{y}) e^{(1-sigma) y} / (2 xi(sigma))    y > 0
    """
    return _g(sigma, y, cfg) / (2.0 * xi_real(sigma, cfg))


def _g(sigma: float, x, cfg: EvalConfig = DEFAULT_CONFIG):
    """g(x) = H(e^x) e^{(1-sigma)x}, which equals H(e^{-x}) e^{-sigma x} by
    H(1/w) = w H(w): the density_P numerator, analytic in |Im x| < pi/4.  At a
    float x (a float back) or at every element of an array x (an array back, each
    element with the bits of its float call): there g is exactly 0.0 past
    _H_LOG_CUT, and the rest is one array `theta_H` call."""
    if isinstance(x, np.ndarray):
        out = np.zeros_like(x)
        on = np.abs(x) <= _H_LOG_CUT
        x = x[on]
        twist = np.where(x <= 0.0, -sigma * x, (1.0 - sigma) * x)
        out[on] = theta_H(libm(math.exp, np.abs(x)), cfg) * libm(math.exp, twist)
        return out
    if x <= 0.0:
        return theta_H(math.exp(-x), cfg) * math.exp(-sigma * x)
    return theta_H(math.exp(x), cfg) * math.exp((1.0 - sigma) * x)


# H(e^z) dies like exp(-pi e^{2z}); beyond this z every H factor underflows
_H_LOG_CUT = 0.5 * math.log(745.0 / math.pi)
# w-range carrying all the mass of H(w)-weighted integrals on [1, inf)
_H_W_CUT = 6.0


def U_sigma(sigma: float, y: float, form: str = "two_term",
            cfg: EvalConfig = DEFAULT_CONFIG, abs_tol: float = None) -> float:
    """Symmetric correlation kernel of density_P.

    two_term:
        e^{sigma y}   int_1^inf H(w) H(e^{y} w)  w^{2 sigma - 1} dw
      + e^{(sigma-1)y} int_1^inf H(w) H(e^{-y} w) w^{1 - 2 sigma} dw

    three_term (the defining split along the real line):
        e^{(1-sigma)y} int_0^inf H(e^{y+z}) H(e^z) e^{2(1-sigma)z} dz
      + e^{(1-sigma)y} int_0^y   H(e^{y-z}) H(e^z) e^{(2 sigma-1)z} dz
      + e^{sigma y}    int_0^inf H(e^{y+z}) H(e^z) e^{2 sigma z} dz

    Both decay like exp(-2 e^y) up to polynomial factors, so acceptance is
    relative by default.  Only the U table's certification probes pass an
    absolute target (its tolerance is set by the transform, not by U's tiny
    tail); the table's node values come from `_u_line_sum`.
    """
    if y < 0.0:
        raise DomainError(f"U_sigma needs y >= 0, got {y!r}")
    # the engine's target; the integrands keep cfg, the key of the theta tables
    quad = replace(cfg, quad_abs_tol=RELATIVE_ONLY if abs_tol is None else abs_tol)
    if form == "two_term":
        ey = math.exp(y)
        p = 2.0 * sigma - 1.0
        one = integrate_finite(
            lambda w: theta_H(w, cfg) * theta_H(ey * w, cfg) * w ** p, 1.0, _H_W_CUT, quad)
        two = integrate_finite(
            lambda w: theta_H(w, cfg) * theta_H(w / ey, cfg) * w ** (-p), 1.0, _H_W_CUT, quad)
        return math.exp(sigma * y) * one.value + math.exp((sigma - 1.0) * y) * two.value
    if form == "three_term":
        z_cut = _H_LOG_CUT + 0.2

        def pair(z, shift, weight):
            return theta_H(math.exp(z + shift), cfg) * theta_H(math.exp(z), cfg) * math.exp(weight * z)

        one = integrate_finite(lambda z: pair(z, y, 2.0 * (1.0 - sigma)), 0.0, z_cut, quad)
        three = integrate_finite(lambda z: pair(z, y, 2.0 * sigma), 0.0, z_cut, quad)
        mid = 0.0
        if y > 0.0:
            mid = integrate_finite(
                lambda z: theta_H(math.exp(y - z), cfg) * theta_H(math.exp(z), cfg)
                * math.exp((2.0 * sigma - 1.0) * z), 0.0, y, quad).value
        return (math.exp((1.0 - sigma) * y) * (one.value + mid)
                + math.exp(sigma * y) * three.value)
    raise ValueError(f"unknown U_sigma form {form!r}")


# U_sigma(y) is below 1e-30 of its y=0 value beyond this point (its decay is
# doubly exponential; the analytic envelope 96 pi^8 e^{5y-2e^y} is far looser)
_U_SUPPORT = 3.4
_U_NODES = 96       # the U rule: 64 nodes are 7e-10 off at t = 25 (scaled), 96 are at rounding
_U_X, _U_FEJER, _U_BARY = chebyshev_fejer(_U_NODES, _U_SUPPORT)
_U_WEIGHTS = _U_SUPPORT / _U_NODES * _U_FEJER
_U_PROBES = (0.5 * (_U_X[1:] + _U_X[:-1]))[::8]     # 12 midpoints between nodes
# the line sum's step: its aliasing error falls like exp(-2 pi d / h) for g analytic
# in |Im x| < d = pi/4; against U_sigma at the table's target the node values are
# 7e-6 off (absolute, U(0) ~ 1.28) at h = 0.2, 5e-15 at 0.1 and 4.4e-16 at 1/16
_U_STEP = 1.0 / 16.0


def _u_line_sum(sigma: float, ys, cfg: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """U_sigma(y) = int_{-inf}^{inf} g(x) g(x+y) dx at each y >= 0 in ys, by the
    trapezoid rule of step _U_STEP on the whole line (Trefethen & Weideman, SIAM
    Review 56, 2014): h * fsum_k g(kh) g(kh + y).  g is exactly 0.0 in double
    precision for |x| > _H_LOG_CUT, so the window truncates nothing and the
    shifted factors past it add exact zeros.  g comes from one array `_g` call on
    the whole shifted grid (96 x 87 points for the table), so every product is
    that of the float calls, bit for bit.  Accurate in absolute terms only (8e-8 relative
    at y = 2.5), so U_sigma keeps its relative-accuracy integrals."""
    k_max = int(_H_LOG_CUT / _U_STEP)
    xs = _U_STEP * np.arange(-k_max, k_max + 1)
    products = _g(sigma, xs, cfg) * _g(sigma, np.add.outer(ys, xs), cfg)
    return _U_STEP * np.array([math.fsum(row) for row in products.tolist()])


@config_cache(maxsize=32)
def _u_table(sigma: float, cfg: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """U_sigma at the nodes _U_X, from `_u_line_sum`; read-only.  The polynomial
    through these values is certified against U_sigma(..., "two_term",
    abs_tol=0.1 quad_abs_tol), a different quadrature, at the 12 _U_PROBES, to
    100 quad_abs_tol absolute in U, so the check covers the line sum and the
    interpolation together; ConvergenceError (partial: the worst deviation) is
    raised when it misses."""
    values = _u_line_sum(sigma, _U_X, cfg)
    abs_tol = 0.1 * cfg.quad_abs_tol
    probes = np.array([U_sigma(sigma, float(y), "two_term", cfg, abs_tol=abs_tol)
                       for y in _U_PROBES])
    worst = float(np.max(np.abs(barycentric(values, _U_X, _U_BARY, _U_PROBES) - probes)))
    limit = 100.0 * cfg.quad_abs_tol
    if worst > limit:
        raise ConvergenceError(
            f"U table certification failed at sigma={sigma!r}: err {worst:.2e} > {limit:.0e}",
            worst)
    values.flags.writeable = False
    return values


def xi_mod_sq_via_U(sigma: float, t: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """|xi(sigma-it)|^2 = (1/2) int_0^inf U_sigma(y) cos(ty) dy, by the fixed 96-node
    Fejer rule on [0, _U_SUPPORT] over `_u_table`'s certified node values: one
    exactly summed (math.fsum) product per t.  Past the cut U is below 1e-30 of
    U(0)."""
    return 0.5 * math.fsum((np.cos(t * _U_X) * (_U_WEIGHTS * _u_table(sigma, cfg))).tolist())


def density_Pbar(sigma: float, y: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Density of the difference of two independent draws from density_P:
    U_sigma(|y|) / (4 xi(sigma)^2), U read from `_u_table`'s certified
    interpolant (0.0 past _U_SUPPORT, where U is below 1e-30 of U(0));
    symmetric and integrates to 1."""
    y = abs(y)
    if y >= _U_SUPPORT:
        return 0.0
    u = barycentric(_u_table(sigma, cfg), _U_X, _U_BARY, np.array([y]))[0]
    return float(u) / (4.0 * xi_real(sigma, cfg) ** 2)

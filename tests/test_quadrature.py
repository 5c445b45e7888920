import cmath
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.special import kv

from xi_ineq import quadrature
from xi_ineq.config import DEFAULT_CONFIG, EvalConfig, config_cache, config_from_mapping
from xi_ineq.errors import ConvergenceError, EvaluationError
from xi_ineq.modulus import _XT
from xi_ineq.quadrature import (TRAPEZOID_HALVINGS, barycentric, chebyshev_fejer,
                                cosh_cutoff, integrate_eta_weighted, integrate_finite,
                                integrate_trapezoid, libm)


def cos_transform(f, t, cfg):
    """int_0^inf f(x) cos(tx) dx for f decaying like e^{-x}: integrate_finite up to
    the truncation point, presplit into panels no wider than a half period."""
    x_max = cfg.truncation_point(1.0)
    return integrate_finite(lambda x: f(x) * math.cos(t * x), 0.0, x_max, cfg,
                            min_panels=max(1, math.ceil(x_max * abs(t) / math.pi)))


class TestFinite:
    def test_polynomial(self, cfg):
        r = integrate_finite(lambda x: x * x, 0.0, 1.0, cfg)
        assert type(r.value) is float and abs(r.value - 1.0 / 3.0) < 1e-13
        assert r.err_est >= 0.0 and r.evals >= 15 and r.converged

    def test_sine(self, cfg):
        r = integrate_finite(math.sin, 0.0, math.pi, cfg)
        assert abs(r.value - 2.0) < 1e-12

    def test_needs_subdivision(self, cfg):
        r = integrate_finite(lambda x: 1.0 / math.sqrt(x), 1e-8, 1.0, cfg)
        assert abs(r.value - 2.0 * (1.0 - 1e-4)) < 1e-9
        assert r.evals > 15

    def test_error_estimate_covers_truth(self, cfg):
        r = integrate_finite(lambda x: math.exp(-x * x), 0.0, 5.0, cfg)
        truth = 0.5 * math.sqrt(math.pi) * math.erf(5.0)
        assert abs(r.value - truth) <= max(r.err_est, 1e-14)

    def test_tightening_stays_within_err_est(self, cfg):
        f = lambda x: math.cos(3.0 * x) * math.exp(-x)
        base = integrate_finite(f, 0.0, 4.0, cfg)
        tight_cfg = replace(cfg, quad_rel_tol=cfg.quad_rel_tol / 100.0,
                            quad_abs_tol=cfg.quad_abs_tol / 100.0)
        tight = integrate_finite(f, 0.0, 4.0, tight_cfg)
        deeper = integrate_finite(f, 0.0, 4.0,
                                  EvalConfig(quad_max_depth=2 * cfg.quad_max_depth))
        assert abs(base.value - tight.value) <= base.err_est + tight.err_est
        assert abs(base.value - deeper.value) <= base.err_est + deeper.err_est

    def test_nonfinite_integrand_reports_abscissa(self, cfg):
        with pytest.raises(EvaluationError) as err:
            integrate_finite(lambda x: float("nan") if x > 0.5 else 1.0, 0.0, 1.0, cfg)
        assert 0.5 <= err.value.abscissa <= 1.0

    def test_depth_exhaustion_carries_partial(self):
        shallow = EvalConfig(quad_max_depth=2, quad_rel_tol=1e-15, quad_abs_tol=1e-16)
        with pytest.raises(ConvergenceError) as err:
            integrate_finite(lambda x: abs(x - 1.0 / 3.0) ** 0.2, 0.0, 1.0, shallow)
        partial = err.value.partial
        assert partial is not None and not partial.converged
        assert abs(partial.value - 0.77083) < 0.05

    def test_bad_interval(self, cfg):
        with pytest.raises(ValueError):
            integrate_finite(math.sin, 1.0, 1.0, cfg)

    @pytest.mark.parametrize("a", [1.0, 7.5])
    def test_complex_integrand(self, cfg, a):
        r = integrate_finite(lambda x: cmath.exp(1j * a * x), 0.0, 1.0, cfg)
        assert isinstance(r.value, complex)
        assert abs(r.value - (cmath.exp(1j * a) - 1.0) / (1j * a)) < 1e-13

    def test_nonfinite_complex_integrand_raises(self, cfg):
        with pytest.raises(EvaluationError):
            integrate_finite(lambda x: complex(1.0, float("nan")) if x > 0.5 else 1j,
                             0.0, 1.0, cfg)

    def test_panel_values_are_summed_exactly(self, cfg):
        # four constant panels 1e16, 1, -1e16, 1: a plain running sum loses a 1
        values = [1e16, 1.0, -1e16, 1.0]
        r = integrate_finite(lambda x: values[min(int(x), 3)], 0.0, 4.0, cfg, min_panels=4)
        assert r.value == 2.0


class TestSemiInfinite:
    def test_exponential(self, cfg):
        x_max = cfg.truncation_point(1.0)
        r = integrate_finite(lambda x: math.exp(-x), 0.0, x_max, cfg)
        assert abs(r.value - 1.0) < 1e-12
        assert math.exp(-x_max) <= cfg.quad_abs_tol

    def test_gamma_moment(self, cfg):
        # int_0^inf e^{-2(T+1)x} x^{2n} dx = (2n)!/(2(T+1))^{2n+1}, T=1, n=2;
        # the polynomial factor is folded into the decay hint: x^4 e^{-4x} <= 5 e^{-3x}
        r = integrate_finite(lambda x: math.exp(-4.0 * x) * x ** 4,
                             0.0, cfg.truncation_point(3.0, scale=5.0), cfg)
        assert abs(r.value - math.factorial(4) / 4.0 ** 5) < 1e-12

    def test_inverse_square(self, cfg):
        # 1/y^2 is not exponentially decaying; integrate via u = 1/y instead
        r = integrate_finite(lambda u: 1.0, 0.0, 1.0, cfg)
        assert abs(r.value - 1.0) < 1e-13
        # and the direct finite-cut route converges to 1 as the cut grows
        near = integrate_finite(lambda y: y ** -2.0, 1.0, 1e6, cfg)
        assert abs(near.value - (1.0 - 1e-6)) < 1e-9


class TestEtaWeighted:
    def test_decaying_integrand_vs_offset_route(self, cfg):
        # eta_0(y) = 2/sqrt(y^2-1); the naive epsilon-offset route walks
        # geometric rings toward the singular edge and misses
        # ~ 2 e^{-2 pi} sqrt(2 eps) of mass, which bounds the comparison
        r = integrate_eta_weighted(lambda y, rows: np.exp(-2.0 * math.pi * y), 0.0, cfg)
        f = lambda y: math.exp(-2.0 * math.pi * y) * 2.0 / math.sqrt(y * y - 1.0)
        eps = 1e-12
        edges = [1.0 + eps * 10.0 ** k for k in range(13)] + [5.0]
        offset = sum(integrate_finite(f, lo, hi, replace(cfg, quad_abs_tol=1e-13)).value
                     for lo, hi in zip(edges, edges[1:]))
        bias = 2.0 * math.exp(-2.0 * math.pi) * math.sqrt(2.0 * eps)
        assert abs(r.value - offset) <= bias + r.err_est + 1e-10
        assert abs(r.value - offset) <= 1e-7

    @pytest.mark.parametrize("tau", [0.0, 0.25])
    @pytest.mark.parametrize("a", [1.0, 3.0])
    def test_bessel_k_closed_form(self, cfg, tau, a):
        # int_1^inf e^{-a y} eta_tau(y) dy = 2 int_0^inf e^{-a cosh u} cosh(tau u) du
        # = 2 K_tau(a)
        r = integrate_eta_weighted(lambda y, rows: libm(math.exp, -a * y), tau, cfg,
                                   decay_rate=a)
        assert abs(r.value - 2.0 * kv(tau, a)) <= 1e-13 * 2.0 * kv(tau, a)

    def test_linearity(self, cfg):
        g = lambda y, rows: np.exp(-3.0 * y)
        one = integrate_eta_weighted(g, 0.25, cfg, decay_rate=3.0)
        five = integrate_eta_weighted(lambda y, rows: 5.0 * g(y, rows), 0.25, cfg,
                                      decay_rate=3.0)
        assert abs(five.value - 5.0 * one.value) <= 1e-13 * abs(five.value) + 1e-15

    def test_cutoffs_of_an_array_equal_the_float_calls(self):
        rates = np.array([1e-3, 1.0, 2.0 * math.pi, 70.0])
        assert cosh_cutoff(rates, 12.5).tolist() == [cosh_cutoff(r, 12.5) for r in rates.tolist()]

    @pytest.mark.parametrize("tau", [-0.45, 0.0, 0.45])
    @pytest.mark.parametrize("abs_tol", [DEFAULT_CONFIG.quad_abs_tol, 1e-3, 1e-14])
    def test_cutoff_clears_the_integrand_bound(self, monkeypatch, tau, abs_tol):
        # past its cutoff U the transformed integrand is at most
        # scale exp(-rate (cosh U - 1) + |tau| U), which must be below the target there:
        # for the J table's 128 rates 2 pi e^{x_i} at scale 1, and for the 2 pi of its
        # lin and cub integrals at scales 30 and 2e4
        cutoffs = []
        monkeypatch.setattr(quadrature, "integrate_trapezoid",
                            lambda f, u_max, cfg: cutoffs.append(np.asarray(u_max)))
        cfg = replace(DEFAULT_CONFIG, quad_abs_tol=abs_tol)
        for rate, scale in ((2.0 * math.pi * libm(math.exp, _XT), 1.0),
                            (2.0 * math.pi, 30.0), (2.0 * math.pi, 2e4)):
            integrate_eta_weighted(None, tau, cfg, decay_rate=rate, scale=scale)
            u = cutoffs.pop()
            target = math.log(20.0 * scale / abs_tol)
            assert np.all(rate * (libm(math.cosh, u) - 1.0) - abs(tau) * u >= target)

    def test_symmetry_in_tau(self, cfg):
        g = lambda y, rows: np.exp(-2.0 * y)
        plus = integrate_eta_weighted(g, 0.3, cfg, decay_rate=2.0)
        minus = integrate_eta_weighted(g, -0.3, cfg, decay_rate=2.0)
        assert abs(plus.value - minus.value) <= 1e-13 * abs(plus.value)


class TestOscillatory:
    @pytest.mark.parametrize("t", [0.5, 3.0, 20.0])
    def test_lorentzian_closed_form(self, cfg, t):
        r = cos_transform(lambda x: math.exp(-x), t, cfg)
        assert abs(r.value - 1.0 / (1.0 + t * t)) < 1e-11

    def test_t_zero_matches_semi_infinite(self, cfg):
        a = cos_transform(lambda x: math.exp(-x), 0.0, cfg)
        b = integrate_finite(lambda x: math.exp(-x), 0.0, cfg.truncation_point(1.0), cfg)
        assert abs(a.value - b.value) < 1e-13


class TestFixedRule:
    @pytest.mark.parametrize("n, b", [(64, 2.4), (96, 3.4), (128, 2.4)])
    def test_fejer_rule_integrates_monomials(self, n, b):
        x, fejer, _ = chebyshev_fejer(n, b)
        assert np.all((0.0 < x) & (x < b))
        for k in (0, 1, 7, n - 1):
            exact = b ** (k + 1) / (k + 1)
            assert abs(b / n * fejer @ (x ** k) - exact) <= 1e-13 * exact

    def test_barycentric_reproduces_a_polynomial(self):
        x, _, bary = chebyshev_fejer(12, 3.4)
        poly = np.polynomial.Polynomial([1.0, -2.0, 0.5, 0.25, -0.125])
        points = np.linspace(0.0, 3.4, 101)
        got = barycentric(poly(x), x, bary, points)
        assert np.max(np.abs(got - poly(points))) <= 1e-13
        on_node = barycentric(poly(x), x, bary, x[3:4])[0]   # the node's term decides alone
        assert on_node == pytest.approx(poly(x[3]), rel=1e-15)


class TestTrapezoid:
    @pytest.mark.parametrize("z, nu", [(1.0, 0.0), (2.5, 0.25), (0.4, 1.5)])
    def test_bessel_k_closed_form(self, cfg, z, nu):
        # int_0^inf e^{-z cosh u} cosh(nu u) du = K_nu(z); the integrand is
        # below e^{-40} of its peak past u_max
        u_max = math.acosh(1.0 + 40.0 / z)
        r = integrate_trapezoid(lambda u, rows: np.exp(-z * np.cosh(u)) * np.cosh(nu * u),
                                u_max, cfg)
        want = float(mp.besselk(nu, z))
        assert abs(r.value - want) <= 1e-14 * want
        assert r.converged and r.err_est <= max(cfg.quad_abs_tol, cfg.quad_rel_tol * want)

    def test_halvings_reuse_every_abscissa(self, cfg):
        xs = []

        def f(u, rows):
            xs.extend(u.ravel().tolist())
            return np.exp(-np.cosh(u))

        r = integrate_trapezoid(f, math.acosh(41.0), cfg)
        assert len(xs) == len(set(xs)) == r.evals
        assert (r.evals - 1) % 8 == 0 and r.evals > 9

    def test_unsettled_sums_raise(self, cfg):
        # sqrt|u| is even but not analytic at 0: the sums converge like step^1.5
        with pytest.raises(ConvergenceError, match="unsettled") as exc:
            integrate_trapezoid(lambda u, rows: np.sqrt(np.abs(u)), 1.0, cfg)
        partial = exc.value.partial
        assert not partial.converged
        assert partial.evals == 8 * 2 ** TRAPEZOID_HALVINGS + 1
        assert abs(partial.value - 2.0 / 3.0) < 1e-5

    def test_bad_interval(self, cfg):
        with pytest.raises(ValueError):
            integrate_trapezoid(math.exp, 0.0, cfg)

    def test_batch_rows_keep_their_one_row_bits(self, cfg):
        # rows of K_nu(z) at different z settle at different levels; each row's
        # value, difference and count are those of its one-row call
        z = np.array([0.4, 1.0, 2.5, 30.0])
        u_max = np.arccosh(1.0 + 40.0 / z)

        def f(u, rows):
            return libm(math.exp, -z[rows, None] * libm(math.cosh, u)) * libm(math.cosh, 0.25 * u)

        batch = integrate_trapezoid(f, u_max, cfg)
        ones = [integrate_trapezoid(lambda u, rows: f(u, rows + i), float(u_max[i]), cfg)
                for i in range(len(z))]
        assert len({one.evals for one in ones}) > 1
        assert batch.evals == sum(one.evals for one in ones)
        for i, one in enumerate(ones):
            assert (batch.value[i], batch.err_est[i]) == (one.value, one.err_est)
            assert abs(one.value - float(mp.besselk(0.25, z[i]))) <= 1e-14 * one.value

    def test_settled_rows_drop_out(self, cfg):
        seen = []

        def f(u, rows):
            seen.append(rows.tolist())
            return np.exp(-np.array([1.0, 30.0])[rows, None] * np.cosh(u))

        r = integrate_trapezoid(f, np.array([4.0, 1.0]), cfg)
        assert seen == [[0, 1], [0, 1], [0]]
        assert r.evals == 33 + 17

    def test_one_unsettled_row_raises_with_every_rows_partial(self, cfg):
        # row 0 is analytic and settles; row 1 is sqrt|u|, which does not
        def f(u, rows):
            return np.where(rows[:, None] == 0, np.exp(-np.cosh(u)), np.sqrt(np.abs(u)))

        with pytest.raises(ConvergenceError, match="1 of 2 rows") as exc:
            integrate_trapezoid(f, np.array([math.acosh(41.0), 1.0]), cfg)
        partial = exc.value.partial
        settled = integrate_trapezoid(f, math.acosh(41.0), cfg)
        assert not partial.converged
        assert partial.value[0] == settled.value
        assert partial.evals == settled.evals + 8 * 2 ** TRAPEZOID_HALVINGS + 1
        assert abs(partial.value[1] - 2.0 / 3.0) < 1e-5

    def test_nonfinite_value_reports_abscissa(self, cfg):
        with pytest.raises(EvaluationError) as err:
            integrate_trapezoid(lambda u, rows: np.where(u > 0.5, np.nan, 1.0), 1.0, cfg)
        assert 0.5 < err.value.abscissa <= 1.0

    def test_libm_is_maths_value_elementwise(self):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        for fn in (math.exp, math.cosh):
            got = libm(fn, x)
            assert got.shape == x.shape
            assert got.ravel().tolist() == [fn(v) for v in x.ravel().tolist()]


def test_equal_configs_hash_equal_and_share_cache_entries():
    built = [EvalConfig(), DEFAULT_CONFIG, replace(DEFAULT_CONFIG, quad_abs_tol=1e-13),
             config_from_mapping({"quad_abs_tol": "1e-13", "series_max_terms": "100000"})]
    assert all(c == DEFAULT_CONFIG and hash(c) == hash(DEFAULT_CONFIG) for c in built)
    other = replace(DEFAULT_CONFIG, quad_abs_tol=1e-12)
    assert other != DEFAULT_CONFIG and replace(other, quad_abs_tol=1e-13) == DEFAULT_CONFIG

    @config_cache(maxsize=8)
    def keyed(x, cfg=DEFAULT_CONFIG):
        return x

    for c in built:
        keyed(1.0)
        keyed(1.0, c)
        keyed(x=1.0, cfg=c)
    keyed(1.0, other)
    # twelve lookups of one key (one miss) and one of another
    assert (keyed.cache_info().hits, keyed.cache_info().misses) == (11, 2)


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(series_tol=0.0)
    with pytest.raises(ValueError):
        EvalConfig(quad_max_depth=0)
    assert EvalConfig().truncation_point(1.0) > 0.0


@pytest.mark.parametrize("name", ["series_tol", "quad_rel_tol", "quad_abs_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
def test_config_rejects_non_finite_tolerances(name, value):
    with pytest.raises(ValueError, match=name):
        EvalConfig(**{name: value})

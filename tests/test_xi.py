import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import xi_mod_sq_reference, xi_reference
from xi_ineq.errors import ConvergenceError
from xi_ineq.quadrature import integrate_finite
from xi_ineq.xi import (_H_LOG_CUT, _U_PROBES, _U_STEP, _U_X, U_sigma, _g, _u_line_sum,
                        _u_table, char_fn_Xi, density_P, density_Pbar, xi, xi_mod_sq,
                        xi_mod_sq_via_U, xi_real)

# the package exports the function xi, which hides the module of the same name
xi_module = importlib.import_module("xi_ineq.xi")

# this oracle at tightened tolerance, cross-checked against the Gamma*zeta route
XI_HALF = 0.49712077818831411
XI_3_4 = 0.49783913388588071

SYMMETRY_GRID = [complex(0.3, 2.0), complex(0.1, -7.5), complex(0.75, 5.0),
                 complex(-0.5, 1.0), complex(0.5, 14.0), complex(0.9, -20.0),
                 complex(0.55, 0.5), complex(2.0, 3.0), complex(0.6, 11.0),
                 complex(0.25, 0.0)]


class TestXi:
    def test_endpoint_values(self, cfg):
        assert abs(xi(0.0, cfg) - 0.5) < 1e-12
        assert abs(xi(1.0, cfg) - 0.5) < 1e-12

    def test_half_line_regression(self, cfg):
        assert abs(xi(0.5, cfg).real - XI_HALF) < 1e-12
        assert abs(xi(0.75, cfg).real - XI_3_4) < 1e-12

    @pytest.mark.parametrize("s", SYMMETRY_GRID)
    def test_functional_symmetry(self, cfg, s):
        lhs, rhs = xi(s, cfg), xi(1.0 - s, cfg)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("s", SYMMETRY_GRID)
    def test_against_gamma_zeta_route(self, cfg, s):
        mine = xi(s, cfg)
        ref = xi_reference(s.real, -s.imag)
        assert abs(mine - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_real_positive_on_unit_segment(self, cfg):
        for sigma in (0.0, 0.2, 0.5, 0.8, 1.0):
            v = xi(complex(sigma, 0.0), cfg)
            assert abs(v.imag) < 1e-14 and v.real > 0.0

    def test_first_zero_bracketed(self, cfg):
        # Xi(1/2 - it) is real; its smallest positive zero sits near 14.1347
        lo, hi = xi(complex(0.5, -14.10), cfg).real, xi(complex(0.5, -14.20), cfg).real
        assert lo > 0.0 > hi


    @pytest.mark.parametrize("s", [complex(0.75, -5.0), complex(0.6, 14.2)])
    def test_one_integrand_value_per_abscissa(self, cfg, monkeypatch, s):
        # one pass over the complex integrand values each abscissa once
        xs = []
        psi = xi_module.psi_theta

        def counted(x, cfg=cfg):
            xs.append(x)
            return psi(x, cfg)

        monkeypatch.setattr(xi_module, "psi_theta", counted)
        xi(s, cfg)
        assert len(xs) == len(set(xs)) > 0


    @pytest.mark.parametrize("s", [complex(0.75, -5.0), 0.75])
    def test_one_adaptive_integral_per_call(self, cfg, monkeypatch, s):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate_finite(*args, **kwargs)

        monkeypatch.setattr(xi_module, "integrate_finite", counted)
        xi(s, cfg)
        assert len(calls) == 1


class TestModSq:
    def test_t_zero_is_square(self, cfg):
        assert xi_mod_sq(0.75, 0.0, cfg) == pytest.approx(XI_3_4 ** 2, rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 3.0, 14.2])
    def test_even_in_t(self, cfg, t):
        a, b = xi_mod_sq(0.6, t, cfg), xi_mod_sq(0.6, -t, cfg)
        assert abs(a - b) <= 1e-13 * abs(a)

    def test_dip_near_first_zero_on_the_line(self, cfg):
        dip = min(xi_mod_sq(0.5, 14.1 + 0.005 * k, cfg) for k in range(15))
        assert dip < 1e-6 * xi_mod_sq(0.5, 0.0, cfg)


class TestCharFn:
    def test_unit_at_zero(self, cfg):
        assert abs(char_fn_Xi(0.75, 0.0, cfg) - 1.0) < 1e-13

    @pytest.mark.parametrize("t", list(range(1, 11)))
    def test_bounded_by_one(self, cfg, t):
        assert abs(char_fn_Xi(0.75, float(t), cfg)) <= 1.0 + 1e-12

    def test_hermitian(self, cfg):
        a = char_fn_Xi(0.6, 2.5, cfg)
        b = char_fn_Xi(0.6, -2.5, cfg)
        assert abs(a - b.conjugate()) < 1e-13


class TestDensityP:
    def test_normalization(self, cfg):
        total = integrate_finite(lambda y: density_P(0.75, y, cfg), -8.0, 8.0,
                                 replace(cfg, quad_abs_tol=1e-11), min_panels=16).value
        assert abs(total - 1.0) < 1e-8

    def test_characteristic_function_match(self, cfg):
        t = 2.0
        re = integrate_finite(lambda y: math.cos(t * y) * density_P(0.75, y, cfg),
                              -8.0, 8.0, replace(cfg, quad_abs_tol=1e-11), min_panels=16).value
        im = integrate_finite(lambda y: math.sin(t * y) * density_P(0.75, y, cfg),
                              -8.0, 8.0, replace(cfg, quad_abs_tol=1e-11), min_panels=16).value
        assert abs(complex(re, im) - char_fn_Xi(0.75, t, cfg)) < 1e-8

    def test_nonnegative_on_grid(self, cfg):
        for k in range(81):
            y = -10.0 + 0.25 * k
            assert density_P(0.75, y, cfg) >= 0.0


class TestUSigma:
    @pytest.mark.parametrize("y", [0.0, 0.5, 1.0, 2.0])
    def test_forms_cross_check(self, cfg, y):
        two = U_sigma(0.75, y, "two_term", cfg)
        three = U_sigma(0.75, y, "three_term", cfg)
        assert abs(two - three) <= 1e-8 * abs(two)
        assert two > 0.0

    @pytest.mark.parametrize("sigma", [0.55, 0.75, 0.9])
    @pytest.mark.parametrize("y", [0.0, 0.5, 1.0, 2.0])
    def test_envelope_bound(self, cfg, sigma, y):
        bound = 96.0 * math.pi ** 8 * math.exp(5.0 * y - 2.0 * math.exp(y))
        assert U_sigma(sigma, y, "two_term", cfg) < bound

    @pytest.mark.parametrize("sigma", [0.55, 0.6, 0.75, 0.9])
    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_cosine_route_equals_oracle(self, cfg, sigma, t):
        route = xi_mod_sq_via_U(sigma, t, cfg)
        oracle = xi_mod_sq(sigma, t, cfg)
        assert abs(route - oracle) <= 1e-6 * abs(oracle)


class TestUTable:
    """The correlation route's fixed rule: one certified table of U_sigma per sigma."""

    @pytest.mark.parametrize("sigma", [0.55, 0.6, 0.75, 0.9, 0.95])
    def test_route_matches_mpmath(self, cfg, sigma):
        floor = xi_real(sigma, cfg) ** 2
        for t in (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 25.0):
            want = xi_mod_sq_reference(sigma, t)
            assert abs(xi_mod_sq_via_U(sigma, t, cfg) - want) <= 1e-14 * max(floor, want), t

    @pytest.mark.parametrize("sigma", [0.55, 0.95])
    def test_line_sum_matches_U_sigma_at_the_nodes(self, cfg, sigma):
        ys = _U_X[::8]
        line = _u_line_sum(sigma, ys, cfg)
        for y, value in zip(ys, line):
            want = U_sigma(sigma, float(y), "two_term", cfg, abs_tol=0.1 * cfg.quad_abs_tol)
            assert abs(value - want) <= 1e-14, y

    @pytest.mark.parametrize("sigma", [0.55, 0.95])
    def test_line_sum_window_truncates_nothing(self, cfg, sigma):
        edge = _H_LOG_CUT + _U_STEP
        assert _g(sigma, edge, cfg) == 0.0
        assert _g(sigma, -edge, cfg) == 0.0
        assert _g(sigma, 0.0, cfg) > 0.0

    @pytest.mark.parametrize("sigma", [0.55, 0.75, 0.95])
    def test_array_g_matches_scalar_g(self, cfg, sigma):
        xs = np.linspace(-_H_LOG_CUT, _H_LOG_CUT, 1001)
        want = np.array([_g(sigma, float(x), cfg) for x in xs])
        assert _g(sigma, xs, cfg).tolist() == want.tolist()

    @pytest.mark.parametrize("sigma", [0.55, 0.95])
    def test_line_sum_is_the_sum_of_float_g_products(self, cfg, sigma):
        # bit for bit, shifted factors past the cut included, on every CPU
        k_max = int(_H_LOG_CUT / _U_STEP)
        xs = [_U_STEP * k for k in range(-k_max, k_max + 1)]
        ys = _U_X[[30, 60]]
        want = [_U_STEP * math.fsum(_g(sigma, x, cfg) * _g(sigma, x + y, cfg) for x in xs)
                for y in ys.tolist()]
        assert _u_line_sum(sigma, ys, cfg).tolist() == want

    def test_build_calls_U_sigma_only_at_the_probes(self, cfg, monkeypatch):
        ys = []

        def counted(sigma, y, form="two_term", cfg=cfg, abs_tol=None):
            ys.append(y)
            return U_sigma(sigma, y, form, cfg, abs_tol)

        monkeypatch.setattr(xi_module, "U_sigma", counted)
        _u_table.cache_clear()
        _u_table(0.75, cfg)
        assert len(ys) == len(_U_PROBES)

    def test_certification_rejects_a_node_off_by_1e7(self, cfg, monkeypatch):
        # the node next to the second probe
        bad_node = float(_U_X[8])
        assert _U_X[8] < _U_PROBES[1] < _U_X[9]

        def off(sigma, ys, cfg=cfg):
            return _u_line_sum(sigma, ys, cfg) + np.where(ys == bad_node, 1e-7, 0.0)

        monkeypatch.setattr(xi_module, "_u_line_sum", off)
        _u_table.cache_clear()
        with pytest.raises(ConvergenceError, match="certification") as exc:
            _u_table(0.75, cfg)
        assert exc.value.partial > 1e-8

    def test_certification_rejects_a_probe_off_by_1e7(self, cfg, monkeypatch):
        bad_probe = float(_U_PROBES[1])

        def off(sigma, y, form="two_term", cfg=cfg, abs_tol=None):
            return U_sigma(sigma, y, form, cfg, abs_tol) + (1e-7 if y == bad_probe else 0.0)

        monkeypatch.setattr(xi_module, "U_sigma", off)
        _u_table.cache_clear()
        with pytest.raises(ConvergenceError, match="certification") as exc:
            _u_table(0.75, cfg)
        assert exc.value.partial > 1e-8

    def test_masses_are_read_only(self, cfg):
        masses = _u_table(0.75, cfg)
        with pytest.raises(ValueError):
            masses[0] = 0.0

    def test_cache_is_bounded(self):
        assert isinstance(_u_table.cache_info().maxsize, int)


class TestDensityPbar:
    def test_symmetry(self, cfg):
        assert density_Pbar(0.75, 0.7, cfg) == density_Pbar(0.75, -0.7, cfg)

    def test_normalization(self, cfg):
        half = integrate_finite(lambda y: density_Pbar(0.75, y, cfg), 0.0, 3.4,
                                replace(cfg, quad_abs_tol=1e-10)).value
        assert abs(2.0 * half - 1.0) < 1e-7

    def test_is_self_convolution_of_P(self, cfg):
        y0 = 0.5
        conv = integrate_finite(
            lambda z: density_P(0.75, y0 + z, cfg) * density_P(0.75, z, cfg),
            -8.0, 8.0, replace(cfg, quad_abs_tol=1e-10), min_panels=16).value
        assert abs(conv - density_Pbar(0.75, y0, cfg)) < 1e-6

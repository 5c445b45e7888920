import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import kv

from conftest import (s_reference, t_reference, w_exp_reference, w_moment_reference,
                      xi_mod_sq_reference)
from xi_ineq import modulus, quadrature
from xi_ineq.config import EvalConfig
from xi_ineq.errors import ConvergenceError, DomainError, EvaluationError
from xi_ineq.modulus import (F_sigma, S_T_constants, W_sigma, _PROBES, _X, _gcal, _jeta_table,
                             _scaled_moments, _w_table, a_coeff, c_coeff, calG, calH,
                             constants, modulus_rhs, modulus_rhs_via_J,
                             power_series_coeffs, w_cos_fixed, w_cos_transform)
from xi_ineq.quadrature import integrate_finite
from xi_ineq.theta import sup_constant_C
from xi_ineq.xi import U_sigma, xi_mod_sq, xi_real

SIGMAS = [0.55, 0.6, 0.75, 0.9]


class TestF:
    @pytest.mark.parametrize("lam", [math.pi, 4.0, 23.0])
    def test_against_bessel(self, cfg, lam):
        # F_sigma(lam) = 2^{1/2-sigma} lam K_{sigma-1/2}(2 lam)
        for sigma in (0.6, 0.75):
            tau = sigma - 0.5
            ref = 2.0 ** (-tau) * lam * kv(tau, 2.0 * lam)
            assert F_sigma(sigma, lam, 0, "direct", cfg) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("lam", [math.pi, 2.0 * math.pi])
    def test_sign_pattern(self, cfg, lam):
        signs = [F_sigma(0.75, lam, d, "direct", cfg) for d in range(4)]
        assert signs[0] > 0 and signs[1] < 0 and signs[2] > 0 and signs[3] < 0

    @pytest.mark.parametrize("deriv", [1, 2, 3])
    def test_derivatives_match_central_differences(self, cfg, deriv):
        lam, h = 4.0, 1e-5
        fd = (F_sigma(0.75, lam + h, deriv - 1, "direct", cfg)
              - F_sigma(0.75, lam - h, deriv - 1, "direct", cfg)) / (2.0 * h)
        exact = F_sigma(0.75, lam, deriv, "direct", cfg)
        assert abs(exact - fd) <= 1e-6 * abs(exact)

    def test_raw_form_approaches_direct_as_bounds_widen(self, cfg):
        full = F_sigma(0.75, math.pi, 0, "direct", cfg)
        raw = F_sigma(0.75, math.pi, 0, "raw", cfg, bounds=(1e-9, 40.0))
        assert abs(raw - full) <= 1e-4 * abs(full)


class TestCalG:
    def test_positive(self, cfg):
        assert calG(0.75, 1.0, cfg) > 0.0

    def test_equals_raw_double_sum(self, cfg):
        got = calG(0.75, 1.0, cfg)
        want = sum(m ** -1.25 * n ** -0.75
                   * F_sigma(0.75, math.pi * m * n, 0, "direct", cfg)
                   for m in range(1, 9) for n in range(1, 9))
        assert abs(got - want) <= 1e-11 * abs(got)

    def test_first_product_dominates_at_3(self, cfg):
        total = calG(0.75, 3.0, cfg)
        first = F_sigma(0.75, 3.0 * math.pi, 0, "direct", cfg)
        assert abs(total - first) <= 1e-3 * abs(total)

    def test_chain_rule_derivative(self, cfg):
        # Gcal'(1) is the Gcal-type row b = (1, -2): d/dlam of mu e^{-2 mu c} at
        # lam = 1 is mu - 2 mu^2 c
        h = 1e-6
        fd = (calG(0.75, 1.0 + h, cfg) - calG(0.75, 1.0 - h, cfg)) / (2.0 * h)
        got = _gcal(0.75, np.ones(1), [(1.0, -2.0)], cfg)[0]
        assert abs(got - fd) <= 1e-6 * abs(fd)


class TestCalHDerivs:
    # Hcal's derivatives at 0 as Gcal-type rows at 1, by the chain rule:
    # h1 = G' - G/2 and h3 = G''' + 3/2 G'' + G'/4 - G/8
    ROWS = [(0.5, -2.0), (0.125, -6.5, 18.0, -8.0)]

    def test_h1_matches_finite_difference(self, cfg):
        h1 = _gcal(0.75, np.ones(1), self.ROWS[:1], cfg)[0]
        h = 1e-5
        fd = (calH(0.75, h, cfg) - calH(0.75, -h, cfg)) / (2.0 * h)
        assert abs(h1 - fd) <= 1e-8 * abs(fd) + 10.0 * h * h

    def test_identities_deliver_constants(self, cfg):
        # route B reads these identities itself; route A's R-integrals are independent
        for sigma in (0.6, 0.75, 0.9):
            h1, h3 = _gcal(sigma, np.ones(2), self.ROWS, cfg).tolist()
            pref = 2.0 ** (sigma + 1.5) / math.pi
            rep = S_T_constants(sigma, "A_direct", cfg)
            s_val, t_val = rep.s_value, rep.t_value
            assert pref * h1 == pytest.approx(t_val, rel=1e-6)
            s_from_h = pref * ((sigma ** 2 + (1 - sigma) ** 2) * h1 - h3)
            assert s_from_h == pytest.approx(s_val, rel=1e-6)


class TestW:
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0])
    def test_forms_cross_check(self, cfg, x):
        closed = W_sigma(0.75, x, "closed", cfg)
        conv = W_sigma(0.75, x, "convolution", cfg)
        assert closed > 0.0
        assert abs(closed - conv) <= 1e-8 * abs(closed)

    def test_uniform_envelope(self, cfg):
        bound = 2.0 * sup_constant_C(cfg) ** 2
        for k in range(40):
            assert W_sigma(0.75, 0.1 * k, "closed", cfg) < bound

    def test_exponential_decay_bound(self, cfg):
        # with ceil(|sigma|) = 1: W(x) <= (C_1 + C_7) C_5 e^{-4x}
        from xi_ineq.theta import sup_constant_Cn
        envelope = (sup_constant_Cn(1, cfg) + sup_constant_Cn(7, cfg)) \
            * sup_constant_Cn(5, cfg)
        for x in (0.0, 0.5, 1.0, 1.5):
            assert W_sigma(0.75, x, "closed", cfg) <= envelope * math.exp(-4.0 * x)


class TestConstants:
    def test_three_way_agreement(self, cfg):
        for sigma in SIGMAS:
            reps = [S_T_constants(sigma, m, cfg)
                    for m in ("A_direct", "B_series", "C_inversion")]
            s0, t0 = reps[0].s_value, reps[0].t_value
            for rep in reps[1:]:
                assert abs(rep.s_value - s0) <= 1e-6 * abs(s0)
                assert abs(rep.t_value - t0) <= 1e-6 * abs(t0)

    def test_sign_facts_across_strip(self, cfg):
        for k in range(20):
            sigma = 0.5 + 0.5 * (k + 0.5) / 20.0
            s_val, t_val = constants(sigma, cfg)
            assert s_val > 0.0
            assert t_val < 0.0
            assert s_val + 0.25 * t_val > 0.0

    def test_published_fixed_truncation_series_route(self, route_b_fixed_truncation):
        rep = route_b_fixed_truncation
        assert abs(rep.s_value - 0.473929) <= 1e-4 * 0.473929
        assert abs(rep.t_value - (-0.0218449)) <= 1e-4 * 0.0218449

    def test_published_fixed_truncation_inversion_route_t_only(self, cfg):
        # the published S companion value fails the t = 0 identity; the
        # acceptance suite (criterion 2) checks this recipe's S against that
        # identity evaluated in mpmath
        rep = S_T_constants(0.75, "C_inversion", cfg, paper_truncation=True)
        assert abs(rep.t_value - (-0.0232205)) <= 1e-4 * 0.0232205

    def test_t_equals_zero_identity(self, cfg):
        # 2 xi(sigma)^2 = S + sigma^2 (1-sigma)^2 * int W e^{-sigma x} dx
        for sigma in (0.6, 0.75):
            s_val, _ = constants(sigma, cfg)
            z = w_cos_transform(sigma, 0.0, cfg)
            lhs = 2.0 * xi_real(sigma, cfg) ** 2
            assert lhs == pytest.approx(s_val + sigma ** 2 * (1 - sigma) ** 2 * z,
                                        rel=1e-10)

    def test_t_equals_zero_moment_matches_mpmath(self, cfg):
        # int W e^{-sigma x} dx from the closed form against W's convolution
        # form integrated in mpmath, with no library code in the reference
        assert w_cos_transform(0.75, 0.0, cfg) == pytest.approx(
            w_moment_reference(0.75), rel=1e-10)

    def test_series_route_reads_four_gcal_derivatives(self, cfg, monkeypatch):
        # converged route B is Hcal's derivatives at 0, which combine Gcal and its
        # first three derivatives at 1 into one two-row Gcal-type sum: the W table's
        # build is one 121-row engine call (its nodes and probes) and then route B's
        # one 2-row call, and route B runs no F-integral of its own
        rows, f_calls = [], []
        engine = modulus.integrate_trapezoid

        def counted(f, u_max, engine_cfg):
            rows.append(np.size(u_max))
            return engine(f, u_max, engine_cfg)
        monkeypatch.setattr(modulus, "integrate_trapezoid", counted)
        monkeypatch.setattr(modulus, "F_sigma", lambda *args, **kwargs: f_calls.append(args))
        _w_table.cache_clear()
        rep = S_T_constants(0.75, "B_series", cfg)
        assert rows == [121, 2] and f_calls == []
        ref = s_reference(0.75)
        assert abs(rep.s_value - ref) <= 1e-15 * ref
        rows.clear()
        S_T_constants(8.0, "B_series", cfg)    # outside the strip, without the table
        assert rows == [2]

    @pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
    def test_series_route_t_matches_the_bessel_reference(self, cfg, sigma):
        ref = t_reference(sigma)
        assert abs(S_T_constants(sigma, "B_series", cfg).t_value - ref) <= 1e-15 * abs(ref)

    def test_series_route_cap_raises(self):
        # Gcal at 1 needs 7 products; a cap of 4 must not pass as converged
        with pytest.raises(ConvergenceError):
            S_T_constants(0.75, "B_series", EvalConfig(series_max_terms=4))

    def test_A_paper_truncation_rejected(self, cfg):
        with pytest.raises(ValueError):
            S_T_constants(0.75, "A_direct", cfg, paper_truncation=True)

    def test_A_outside_strip_is_flagged_not_fatal(self, cfg):
        rep = S_T_constants(1.5, "A_direct", cfg)
        assert "domain_warning" in rep.truncation
        assert math.isfinite(rep.s_value) and math.isfinite(rep.t_value)


class TestWTable:
    """The fixed-rule transform that every reader of the representation uses,
    against the adaptive transform and mpmath, scaled as in criterion 3."""

    @pytest.mark.parametrize("sigma", [0.55, 0.75, 0.9])
    def test_fixed_transform_matches_adaptive(self, cfg, sigma):
        floor = xi_real(sigma, cfg) ** 2
        for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 14.2, 20.0, 25.0, 30.0):
            poly = (t * t + (1 - sigma) ** 2) * (t * t + sigma ** 2)
            diff = w_cos_fixed(sigma, t, cfg) - w_cos_transform(sigma, t, cfg)
            scale = max(floor, xi_mod_sq_reference(sigma, t))
            assert 0.5 * poly * abs(diff) <= 2e-13 * scale, t

    @pytest.mark.parametrize("t", [25.0, 30.0])
    def test_representation_past_the_grid_matches_mpmath(self, cfg, t):
        want = xi_mod_sq_reference(0.75, t)
        scale = max(xi_real(0.75, cfg) ** 2, want)
        assert abs(modulus_rhs(0.75, t, cfg) - want) <= 1e-12 * scale

    def test_node_values_match_relative_target_hcal(self, cfg):
        # the table's node values are relative-target Hcal calls, with no
        # absolute target of their own
        pref = 2.0 ** (0.75 + 1.5) / math.pi
        want = np.array([pref * calH(0.75, float(x), cfg) for x in _X])
        assert np.max(np.abs(_w_table(0.75, cfg).values - want)) <= 1e-18

    @pytest.mark.parametrize("sigma", [0.55, 0.75, 0.95])
    def test_node_values_match_mpmath_bessel_k(self, cfg, sigma):
        # each node value is a relative-target Hcal, so it keeps 1e-13 relative
        # down the tail, where W e^{-sigma x} falls to about 1e-30
        want = np.array([w_exp_reference(sigma, float(x)) for x in _X])
        assert np.max(np.abs(_w_table(sigma, cfg).values / want - 1.0)) <= 1e-13

    def test_tables_run_no_adaptive_quadrature(self, cfg, monkeypatch):
        # every Gcal value and eta-weighted integral of the two tables is one
        # trapezoid row: W's 64 nodes and 57 probes are the rows of one engine
        # call, and route B's S and T the two rows of another; J's 128 nodes
        # are one call, and the J/eta route's two integrals one call each
        calls = []
        for module in (modulus, quadrature):
            for name in ("integrate_finite", "integrate_trapezoid"):
                def counted(*args, _name=name, _f=getattr(module, name), **kwargs):
                    calls.append(_name)
                    return _f(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        _w_table.cache_clear()
        _w_table(0.75, cfg)
        assert calls == ["integrate_trapezoid"] * 2
        calls.clear()
        _jeta_table.cache_clear()
        _jeta_table(0.25, cfg)
        assert calls == ["integrate_trapezoid"] * 3

    def test_certification_rejects_a_node_off_by_1e7(self, cfg, monkeypatch):
        bad_node = float(_X[8])

        def off(sigma, x, cfg=cfg):
            return calH(sigma, x, cfg) + np.where(x == bad_node, 1e-7, 0.0)

        monkeypatch.setattr(modulus, "calH", off)
        _w_table.cache_clear()
        with pytest.raises(ConvergenceError, match="certification") as exc:
            _w_table(0.75, cfg)
        assert exc.value.partial > 1e-8

    def test_certification_rejects_a_probe_off_by_1e7(self, cfg, monkeypatch):
        # the probes are calH values like the nodes, rows of the same batch
        bad_probe = float(_PROBES[1])

        def off(sigma, x, cfg=cfg):
            return calH(sigma, x, cfg) + np.where(x == bad_probe, 1e-7, 0.0)

        monkeypatch.setattr(modulus, "calH", off)
        _w_table.cache_clear()
        with pytest.raises(ConvergenceError, match="certification") as exc:
            _w_table(0.75, cfg)
        assert exc.value.partial > 1e-8

    def test_nodes_and_probes_are_one_calH_call(self, cfg, monkeypatch):
        calls = []
        for name in ("calH", "calG", "integrate_trapezoid"):
            def counted(*args, _name=name, _f=getattr(modulus, name), **kwargs):
                calls.append((_name, np.size(args[1])))
                return _f(*args, **kwargs)
            monkeypatch.setattr(modulus, name, counted)
        _w_table.cache_clear()
        _w_table(0.75, cfg)
        # one calH call with the 121 points as rows, and one engine call under it
        # (its second argument, u_max, has one entry a row); route B is one
        # two-row engine call of its own, with no calG call
        assert len(_X) + len(_PROBES) == 64 + 57
        assert calls == [("calH", 64 + 57), ("integrate_trapezoid", 64 + 57),
                         ("integrate_trapezoid", 2)]

    def test_rows_equal_one_row_hcal_calls(self, cfg):
        # the batched call gives each node and probe the bits of its own call
        points = np.concatenate([_X, _PROBES])
        batch = calH(0.75, points, cfg)
        assert batch.tolist() == [calH(0.75, float(x), cfg) for x in points]
        pref = 2.0 ** (0.75 + 1.5) / math.pi
        assert np.array_equal(_w_table(0.75, cfg).values, pref * batch[:len(_X)])
        assert calG(0.75, np.array([1.0, 120.0, 2.5]), cfg).tolist() == [
            calG(0.75, 1.0, cfg), 0.0, calG(0.75, 2.5, cfg)]   # 2 pi 120 underflows

    def test_tables_make_a_handful_of_integrand_calls(self, cfg, monkeypatch):
        # one Python-level integrand call per level of a batch: the 121 W rows
        # settle at 33 points (levels of 9, 8 and 16 new points), route B's two
        # rows likewise; the J nodes settle at 17 or 33 points, lin and cub at 33.
        # One value a call made 4,125 and 2,642 integrand calls.
        calls = []
        engine = quadrature.integrate_trapezoid

        def counted(f, u_max, cfg):
            def f_counted(u, rows):
                calls[-1][1] += 1
                calls[-1][2] += u.size
                return f(u, rows)
            calls.append([np.size(u_max), 0, 0])
            return engine(f_counted, u_max, cfg)

        monkeypatch.setattr(modulus, "integrate_trapezoid", counted)
        monkeypatch.setattr(quadrature, "integrate_trapezoid", counted)
        _w_table.cache_clear()
        _w_table(0.75, cfg)
        assert calls == [[121, 3, 121 * 33], [2, 3, 2 * 33]]
        calls.clear()
        _jeta_table.cache_clear()
        _jeta_table(0.25, cfg)
        assert [c[:2] for c in calls] == [[128, 3], [1, 3], [1, 3]]
        assert sum(c[2] for c in calls) == 2882

    def test_route_b_record_is_the_whole_report(self, cfg):
        _w_table.cache_clear()
        s_value, t_value, err, trunc = modulus._st_method_B(0.6, cfg, False)
        rep = S_T_constants(0.6, "B_series", cfg)
        assert (rep.s_value, rep.t_value, rep.err_est, rep.truncation) == (
            s_value, t_value, err, trunc)
        rep.truncation["changed"] = True
        assert "changed" not in _w_table(0.6, cfg).truncation

    def test_route_b_record_names_the_trapezoid_rule(self, cfg):
        # Gcal's derivatives at 1 are trapezoid sums, not adaptive integrals
        rep = S_T_constants(0.75, "B_series", cfg)
        assert rep.truncation["f_integral_bounds"] == "trapezoid"

    def test_constants_are_route_b_in_the_record(self, cfg):
        rep = S_T_constants(0.6, "B_series", cfg)
        table = _w_table(0.6, cfg)
        assert (table.s, table.t) == (rep.s_value, rep.t_value) == constants(0.6, cfg)

    def test_table_is_read_only(self, cfg):
        table = _w_table(0.75, cfg)
        with pytest.raises(ValueError):
            table.masses[0] = 0.0


class TestModulusIdentity:
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 14.2, 20.0])
    def test_representation_matches_oracle(self, cfg, sigma, t):
        rep = modulus_rhs(sigma, t, cfg)
        oracle = xi_mod_sq(sigma, t, cfg)
        scale = max(xi_real(sigma, cfg) ** 2, oracle)
        assert abs(rep - oracle) <= 1e-6 * scale

    def test_against_external_reference(self, cfg):
        for sigma, t in ((0.75, 0.0), (0.75, 10.0), (0.6, 14.2)):
            assert modulus_rhs(sigma, t, cfg) == pytest.approx(
                xi_mod_sq_reference(sigma, t), rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("route", [lambda t: modulus_rhs(0.75, t),
                                       lambda t: modulus_rhs_via_J(0.25, t)],
                             ids=["representation", "J_eta"])
    def test_nonfinite_value_is_evaluation_error(self, route):
        # the quartic in t overflows at t = 1e100 (on the J route by raising), so
        # the sum is infinite: no value
        with pytest.raises(EvaluationError) as err:
            route(1e100)
        assert err.value.abscissa == 1e100


class TestJEtaRoute:
    @pytest.mark.parametrize("tau", [0.1, 0.25])
    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0])
    def test_equals_twice_mod_sq(self, cfg, tau, t):
        got = modulus_rhs_via_J(tau, t, cfg)
        want = 2.0 * xi_mod_sq(tau + 0.5, t, cfg)
        assert abs(got - want) <= 1e-5 * abs(want)

    def test_t_independent_integrals_once_per_tau(self, cfg):
        _jeta_table.cache_clear()
        for t in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 14.2, 20.0):
            modulus_rhs_via_J(0.3, t, cfg)
        assert _jeta_table.cache_info().misses == 1

    @pytest.mark.parametrize("sigma", [0.55, 0.75, 0.95])
    def test_masses_match_the_w_table(self, cfg, sigma):
        # J/eta node values against Hcal node values: two formulas, one rule
        masses = _jeta_table(sigma - 0.5, cfg).masses
        want = _w_table(sigma, cfg).masses
        assert np.max(np.abs(masses - want)) <= 1e-14 * np.max(want)
        with pytest.raises(ValueError):
            masses[0] = 0.0

    @pytest.mark.parametrize("sigma", [0.55, 0.75, 0.95])
    @pytest.mark.parametrize("t", [20.0, 25.0, 30.0])
    def test_matches_mpmath_past_the_grid(self, cfg, sigma, t):
        want = xi_mod_sq_reference(sigma, t)
        scale = max(xi_real(sigma, cfg) ** 2, want)
        assert abs(0.5 * modulus_rhs_via_J(sigma - 0.5, t, cfg) - want) <= 2e-12 * scale

    def test_cross_route_consistency(self, cfg):
        a = modulus_rhs_via_J(0.1, 1.0, cfg)
        b = 2.0 * modulus_rhs(0.6, 1.0, cfg)
        assert abs(a - b) <= 1e-6 * abs(b)

    @pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_cosine_transform_equals_double_integral(self, cfg, sigma, t):
        # the W-side cosine transform against the J/eta double integral alone
        tau = sigma - 0.5
        lhs = w_cos_transform(sigma, t, cfg)
        s_val, t_val = constants(sigma, cfg)
        rhs = (modulus_rhs_via_J(tau, t, cfg) - s_val - t_val * t * t) \
            / ((t * t + (1 - sigma) ** 2) * (t * t + sigma ** 2))
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs)


class TestPowerSeries:
    def test_a_positive_and_decreasing(self, cfg):
        vals = [a_coeff(0.25, k, cfg) for k in range(9)]
        assert all(v > 0.0 for v in vals)
        assert all(vals[k + 1] / vals[k] < 1.0 for k in range(1, 8))

    def test_a0_consistency_with_transform(self, cfg):
        # int_0^inf W e^{-sigma x} dx = 4 * (a(0) / 2)
        z = w_cos_transform(0.75, 0.0, cfg)
        assert 2.0 * a_coeff(0.25, 0, cfg) == pytest.approx(z, rel=1e-9)

    def test_a_is_half_the_w_table_moment(self, cfg):
        # a(k) from the J table against the Hcal table's moments x^{2k}/(2k)!
        moments = _scaled_moments(0.75, 20, 10, cfg)
        for k in range(11):
            want = 0.5 * math.factorial(2 * k) * moments[k]
            assert abs(a_coeff(0.25, k, cfg) - want) <= 1e-8 * want, k

    def test_signs_alternate_and_bound_holds(self, cfg):
        series = power_series_coeffs(0.75, 10, cfg)
        for k, c in enumerate(series.coeffs):
            assert (c > 0.0) if k % 2 == 0 else (c < 0.0)
            bound = 48.0 * math.pi ** 8 * (
                math.exp(15.0) * 3.0 ** (2 * k + 1) + math.factorial(k)) \
                / math.factorial(2 * k)
            assert abs(c) <= bound

    def test_partial_sums_match_oracle_small_t(self, cfg):
        series = power_series_coeffs(0.75, 8, cfg)
        for t in (-1.0, -0.5, 0.25, 1.0):
            partial = sum(c * t ** (2 * k) for k, c in enumerate(series.coeffs))
            oracle = xi_mod_sq(0.75, t, cfg)
            assert abs(partial - oracle) <= 1e-5 * abs(oracle)

    def test_partial_sums_envelope_oracle(self, cfg):
        # truncation error carries the sign of the first omitted term
        series = power_series_coeffs(0.75, 6, cfg)
        t = 1.0
        oracle = xi_mod_sq(0.75, t, cfg)
        partials = []
        acc = 0.0
        for k, c in enumerate(series.coeffs):
            acc += c * t ** (2 * k)
            partials.append(acc)
        for k in range(len(partials) - 1):
            lo, hi = sorted((partials[k], partials[k + 1]))
            assert lo - 1e-12 <= oracle <= hi + 1e-12

    def test_low_coefficients_make_no_eta_integral_of_their_own(self, cfg, monkeypatch):
        # c(0) and c(1) read the J record; once it is cached (as after
        # verify-modulus), no eta-weighted integral runs
        _jeta_table(0.25, cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("eta-weighted integral")

        monkeypatch.setattr(modulus, "integrate_eta_weighted", refuse)
        assert c_coeff(0.25, 0, cfg) > 0.0 > c_coeff(0.25, 1, cfg)

    def test_highest_order_is_85(self, cfg):
        # (2k)! is a finite double up to k = 85 and overflows at 86
        series = power_series_coeffs(0.75, 85, cfg)
        assert all(math.isfinite(c) for c in series.coeffs)
        with pytest.raises(DomainError, match="85"):
            power_series_coeffs(0.75, 86, cfg)
        with pytest.raises(DomainError, match="85"):
            c_coeff(0.25, 86, cfg)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_moment_identity(self, cfg, k):
        moment = integrate_finite(
            lambda y: U_sigma(0.75, y, cfg, abs_tol=1e-16) * y ** (2 * k),
            0.0, 3.4, replace(cfg, quad_abs_tol=1e-14)).value
        predicted = (-1.0) ** k / (2.0 * math.factorial(2 * k)) * moment
        assert c_coeff(0.25, k, cfg) == pytest.approx(predicted, rel=1e-5)

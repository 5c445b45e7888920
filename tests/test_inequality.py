import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from conftest import w_exp_reference, w_moment_reference, xi_mod_sq_reference
from xi_ineq import inequality, modulus
from xi_ineq.errors import ConvergenceError, DomainError
from xi_ineq.inequality import (_W_CUT, MAX_GRID_POINTS, MAX_SAMPLES, XSigmaSampler,
                                _w_table, autocorrelation_A, bisect_zero,
                                check_poly_min_criterion, grid_indices, K_fourier, K_sigma,
                                lemb_moment_bound, mc_check, mm_bound, TruncationLevels,
                                orthogonalization_scan, poly_approx_V,
                                scan_for_zero, scan_inequality,
                                truncation_levels, verify_tail_bound)
from xi_ineq.modulus import W_sigma, _scaled_moments, constants, w_cos_transform
from xi_ineq.quadrature import integrate_finite
from xi_ineq.xi import xi_mod_sq


class TestScan:
    def test_positive_scan_with_located_minimum(self, cfg):
        rep = scan_inequality(0.75, 10.0, 0.5, "representation", cfg)
        assert rep.violations == []
        assert rep.min_value > 0.0
        assert rep.min_value == min(rep.values)
        assert rep.grid[rep.values.index(rep.min_value)] == rep.min_t

    def test_t_zero_value(self, cfg):
        rep = scan_inequality(0.75, 1.0, 0.5, "representation", cfg)
        assert rep.values[0] == pytest.approx(2.0 * xi_mod_sq(0.75, 0.0, cfg), rel=1e-9)

    def test_routes_cross_check(self, cfg):
        a = scan_inequality(0.75, 2.0, 0.5, "representation", cfg)
        b = scan_inequality(0.75, 2.0, 0.5, "J_eta", cfg)
        for va, vb in zip(a.values, b.values):
            assert abs(va - vb) <= 1e-5 * abs(va)

    def test_domain(self, cfg):
        with pytest.raises(DomainError):
            scan_inequality(0.3, 1.0, 0.5, "representation", cfg)

    @pytest.mark.parametrize("fake, violations, indeterminate",
                             [(-5e-8, [0.25], []), (-1e-13, [], [0.25])])
    def test_each_point_is_classified_against_its_own_error(self, cfg, monkeypatch, fake,
                                                            violations, indeterminate):
        # at t = 0.25 the error estimate is about 2e-12; at t = 20 it is about 3e-7,
        # so a point tested against the scan's largest error would read as indeterminate
        rhs = inequality.modulus_rhs
        monkeypatch.setattr(inequality, "modulus_rhs",
                            lambda sigma, t, cfg: fake if t == 0.25 else rhs(sigma, t, cfg))
        rep = scan_inequality(0.75, 20.0, 0.25, "representation", cfg)
        assert (rep.violations, rep.indeterminate) == (violations, indeterminate)
        assert rep.err_est > 1e-7

    @pytest.mark.parametrize("step", [1e-9, 1e-300])
    def test_grid_past_the_cap_is_rejected_before_allocation(self, cfg, step):
        # t_max / step = 2e9 (and an overflow to inf) points: rejected with no
        # list built and no value computed
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="more than 1000000 points"):
                scan_inequality(0.75, 2.0, step, "representation", cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_grid_at_the_cap_is_accepted(self):
        assert len(grid_indices(0.0, 1.0, 1.0 / (MAX_GRID_POINTS - 1), "scan")) == MAX_GRID_POINTS
        with pytest.raises(DomainError, match="more than"):
            grid_indices(0.0, 1.0, 1.0 / (MAX_GRID_POINTS + 1), "scan")


class TestPolyApprox:
    def test_converges_to_modulus(self, cfg):
        # large N: the polynomial tends to 2|xi|^2 at small t
        v = poly_approx_V(0.75, 12, 60, 1.0, cfg)
        want = 2.0 * xi_mod_sq(0.75, 1.0, cfg)
        assert abs(v - want) <= 1e-7 * abs(want)

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0, 3.0])
    def test_odd_truncation_positivity(self, cfg, t):
        # sum cut at an even index (2m-2, m=2) upper-bounds cos, so V > 0
        assert poly_approx_V(0.75, 10, 2, t, cfg) > 0.0

    @pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
    def test_matches_mpmath_to_rounding(self, cfg, sigma):
        # N1 = 6 is past W's support cut and the series has converged by
        # n = 200, so only the moments' own error is left
        v = poly_approx_V(sigma, 6, 200, 1.0, cfg)
        want = 2.0 * xi_mod_sq_reference(sigma, 1.0)
        assert abs(v - want) <= 1e-13 * want

    @pytest.mark.parametrize("N1", [1, 2])
    def test_moments_short_of_the_cut_match_adaptive_quadrature(self, cfg, N1):
        moments = _scaled_moments(0.75, N1, 3, cfg)
        for n, mu in enumerate(moments):
            want = integrate_finite(
                lambda x: (W_sigma(0.75, x, "closed", cfg) * math.exp(-0.75 * x)
                           * x ** (2 * n) / math.factorial(2 * n)),
                0.0, float(N1), replace(cfg, quad_abs_tol=1e-300)).value
            assert abs(mu - want) <= 1e-12 * want

    @pytest.mark.parametrize("sigma", [0.55, 0.75, 0.9])
    def test_zeroth_moment_matches_adaptive_transform(self, cfg, sigma):
        # the Fejer rule on the density's own nodes is good to rounding
        z0 = _scaled_moments(sigma, 20, 0, cfg)[0]
        want = w_cos_transform(sigma, 0.0, cfg)
        assert abs(z0 - want) <= 2e-15 * want
        if sigma == 0.75:
            assert abs(z0 - w_moment_reference(sigma)) <= 1e-12 * z0

    @pytest.mark.parametrize("t, tol", [(5.0, 1e-15), (10.0, 1e-14), (15.0, 2e-12)])
    def test_values_within_their_rounding_estimate(self, cfg, t, tol):
        # rounding estimates 3.5e-16, 8.4e-15 and 1.0e-12 at these t
        v = poly_approx_V(0.75, 6, 200, t, cfg)
        assert abs(v - 2.0 * xi_mod_sq_reference(0.75, t)) <= tol

    @pytest.mark.parametrize("t", [30.0, 50.0])
    def test_cancellation_is_refused(self, cfg, t):
        # the alternating series cancels far below double precision here:
        # 2|xi|^2 is 6.2e-16 at t = 30, and t^{2n} alone would overflow at 50
        with pytest.raises(DomainError, match="cancellation"):
            poly_approx_V(0.75, 6, 200, t, cfg)

    def test_moments_reused_across_t(self, cfg):
        a = poly_approx_V(0.75, 8, 16, 0.5, cfg)
        b = poly_approx_V(0.75, 8, 16, 0.5, cfg)
        assert a == b

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_lemb_envelope(self, cfg, n):
        res = lemb_moment_bound(0.75, 2, n, cfg)
        assert res["passes"]
        assert res["lhs"] > 0.0


class TestTruncationLevels:
    def test_ceiling_formulas_exact(self, cfg):
        from xi_ineq.theta import sup_constant_C
        C = sup_constant_C(cfg)
        lv = truncation_levels(0.5, 0.75, 1, cfg)
        base = 8.0 * C * C * 4.0 / (0.75 * 0.5)
        assert lv.N1 == math.ceil(math.log(base) / 0.75)
        assert lv.N2 == math.ceil(base * base)
        assert lv.N1 >= 1 and lv.N2 >= 1

    def test_monotone_in_epsilon(self, cfg):
        lv_loose = truncation_levels(0.5, 0.75, 1, cfg)
        lv_tight = truncation_levels(0.1, 0.75, 1, cfg)
        assert lv_tight.N1 >= lv_loose.N1
        assert lv_tight.N2 >= lv_loose.N2

    @pytest.mark.parametrize("epsilon", [0.5, 0.1])
    @pytest.mark.parametrize("sigma", [0.6, 0.75])
    @pytest.mark.parametrize("T", [1, 2])
    def test_tail_bound(self, cfg, epsilon, sigma, T):
        lv = truncation_levels(epsilon, sigma, T, cfg)
        res = verify_tail_bound(lv, cfg)
        assert res["passes"]

    # truncation_levels gives N1 >= 4 for every sigma in (1/2, 1), past the cut at
    # 3, so only hand-made levels reach the adaptive tail.  The reference is a
    # 32-point Gauss-Legendre sum of mpmath's Bessel-K form of W e^{-sigma x}.
    # At N1 = 2 the tail (1.2e-21) lies far below the engine's absolute target,
    # which resolves it to 7.4e-5 relative.
    @pytest.mark.parametrize("N1, rel", [(1, 1e-12), (2, 1e-3)])
    def test_adaptive_tail_below_the_cut(self, cfg, N1, rel):
        nodes, weights = np.polynomial.legendre.leggauss(32)
        half, mid = 0.5 * (3.5 - N1), 0.5 * (3.5 + N1)
        want = 4.0 * half * sum(w * w_exp_reference(0.75, half * x + mid)
                                for x, w in zip(nodes.tolist(), weights.tolist()))
        res = verify_tail_bound(TruncationLevels(N1, 1, 0.5, 0.75, 1), cfg)
        assert res["tail"] == pytest.approx(want, rel=rel)
        assert res["limit"] == 0.125 and res["passes"]

    def test_validation(self, cfg):
        with pytest.raises(ValueError):
            truncation_levels(1.5, 0.75, 1, cfg)
        with pytest.raises(ValueError):
            truncation_levels(0.5, 0.75, 0, cfg)


class TestPolyMinCriterion:
    def test_feasible_cell_passes(self, cfg):
        res = check_poly_min_criterion(0.75, 1, 0.5, cfg)
        assert res["substituted"] is True     # formula N2 is astronomically large
        assert res["min_V"] > 0.0
        assert res["passes_threshold"]

    def test_minimum_location_matches_oracle_scan(self, cfg):
        res = check_poly_min_criterion(0.75, 1, 0.5, cfg)
        # 2|xi(0.75-it)|^2 decreases on [0, 1], so the minimum sits at t = T
        assert res["min_t"] == pytest.approx(1.0, abs=1e-9)


class TestSampler:
    def test_reproducible_and_prefix(self, cfg):
        s = XSigmaSampler(0.75, cfg)
        a, rate_a = s.sample(5000, seed=11)
        b, _ = s.sample(5000, seed=11)
        c, _ = s.sample(2000, seed=11)
        assert np.array_equal(a, b)
        assert np.array_equal(a[:2000], c)
        assert np.all(a >= 0.0)
        assert 0.0 < rate_a <= 1.0

    def test_seed_changes_stream(self, cfg):
        s = XSigmaSampler(0.75, cfg)
        a, _ = s.sample(2000, seed=1)
        b, _ = s.sample(2000, seed=2)
        assert not np.array_equal(a, b)

    def test_mean_against_quadrature(self, cfg):
        s = XSigmaSampler(0.75, cfg)
        xs, _ = s.sample(40_000, seed=3)
        z = w_cos_transform(0.75, 0.0, cfg)
        mean_q = integrate_finite(
            lambda x: x * float(s.w_table(np.array([x]))[0]) * math.exp(-0.75 * x),
            0.0, _W_CUT, cfg).value / z
        se = xs.std(ddof=1) / math.sqrt(xs.size)
        assert abs(xs.mean() - mean_q) <= 4.0 * se

    def test_ks_against_cdf(self, cfg):
        s = XSigmaSampler(0.75, cfg)
        xs, _ = s.sample(30_000, seed=5)
        assert kstest(xs, s.cdf).pvalue > 0.01

    def test_one_w_table_for_sampler_and_moments(self, cfg):
        _w_table.cache_clear()
        XSigmaSampler(0.75, cfg)
        poly_approx_V(0.75, 8, 16, 0.5, cfg)
        assert _w_table.cache_info().misses == 1

    def test_w_table_evaluates_hcal_at_most_121_times(self, cfg, monkeypatch):
        # 64 Chebyshev nodes plus 57 certification probes, the rows of one Hcal
        # call; S and T are route B's two-row Gcal-type sum, no calG call
        hcal, gcal = [], []
        for name, calls in (("calH", hcal), ("calG", gcal)):
            def counted(*args, _f=getattr(modulus, name), _calls=calls, **kwargs):
                _calls.append(args)
                return _f(*args, **kwargs)
            monkeypatch.setattr(modulus, name, counted)
        _w_table.cache_clear()
        _w_table(0.75, cfg)
        assert len(hcal) == 1 and 0 < np.size(hcal[0][1]) <= 121
        assert (hcal[0][0], hcal[0][2]) == (0.75, cfg)   # Hcal is Gcal itself, no derivative
        assert gcal == []

    def test_w_table_shared_whatever_the_call_form(self, cfg):
        _w_table.cache_clear()
        _w_table(0.75)
        XSigmaSampler(0.75, cfg)
        _w_table(sigma=0.75, cfg=cfg)
        assert _w_table.cache_info().misses == 1

    def test_thinned_acceptance_rate_is_exact(self, cfg):
        # P(accept) = E[w(X)] / envelope with X ~ Exp(sigma), which is
        # sigma * int w e^{-sigma x} dx / envelope; n / proposals estimates it
        # with relative standard error sqrt((1 - rate) / n)
        s = XSigmaSampler(0.75, cfg)
        n = 200_000
        _, rate = s.sample(n, seed=21)
        exact = 0.75 * s._norm / s.envelope
        se = exact * math.sqrt((1.0 - exact) / n)
        assert abs(rate - exact) <= 4.0 * se

    def test_proposal_indices_strictly_increasing(self, cfg):
        s = XSigmaSampler(0.75, cfg)
        _, idx = s.sample_indexed(50_000, seed=4)
        assert idx.dtype == np.int64
        assert idx[0] >= 0
        assert np.all(np.diff(idx) > 0)

    def test_million_draws_stay_small_in_memory(self, cfg):
        # the draws and their indices hold 16 MB; the proposal blocks must
        # add little on top of that
        s = XSigmaSampler(0.75, cfg)
        tracemalloc.start()
        try:
            xs, _ = s.sample_indexed(1_000_000, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert xs.size == 1_000_000
        assert peak < 64 * 2 ** 20

    def test_table_never_exceeds_accept_ceiling(self, cfg):
        # rejecting u2 >= ceiling, or a level at or above its bin's bound,
        # without reading W is exact only if W stays below both everywhere
        s = XSigmaSampler(0.75, cfg)
        grid = np.linspace(0.0, _W_CUT, 2 ** 20)
        w = s.w_table(grid)
        assert np.all(w <= s._squeeze(grid))
        assert np.all(w <= s._accept_ceiling * s.envelope)

    def test_density_on_many_points_stays_small_in_memory(self, cfg):
        # the Clenshaw sum holds a few arrays of len(x) (48 MB measured on 2^20
        # points); a barycentric matrix would hold 512 MB
        s = XSigmaSampler(0.75, cfg)
        x = np.linspace(0.0, _W_CUT, 2 ** 20)
        tracemalloc.start()
        try:
            w = s.w_table(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.shape == x.shape
        assert peak < 64 * 2 ** 20

    def test_series_matches_the_table_density(self, cfg):
        # the sampler's Chebyshev series and the barycentric density are one
        # polynomial summed two ways (3.9e-14 of the largest value measured)
        s = XSigmaSampler(0.75, cfg)
        x = np.linspace(0.0, _W_CUT, 10 ** 4)
        want = _w_table(0.75, cfg).density(x)
        assert np.max(np.abs(s._dens(x) - want)) <= 1e-13 * np.max(np.abs(want))

    def test_squeeze_changes_no_decision(self, cfg, monkeypatch):
        s = XSigmaSampler(0.75, cfg)
        xs, idx = s.sample_indexed(20_000, seed=13)
        monkeypatch.setattr(s, "_bin_bound", np.full_like(s._bin_bound, np.inf))
        xs_plain, idx_plain = s.sample_indexed(20_000, seed=13)
        assert xs.tobytes() == xs_plain.tobytes()
        assert idx.tobytes() == idx_plain.tobytes()

    def test_domain(self, cfg):
        with pytest.raises(DomainError):
            XSigmaSampler(0.3, cfg)

    def test_envelope_violation_is_a_numerical_failure(self, cfg, monkeypatch):
        monkeypatch.setattr(inequality, "sup_constant_C", lambda cfg: 1e-3)
        with pytest.raises(ConvergenceError, match="envelope") as exc:
            XSigmaSampler(0.75, cfg)
        assert exc.value.partial > 0.0


class TestMonteCarlo:
    def test_t_zero_is_exactly_one(self, cfg):
        rep, = mc_check(0.75, [0.0], 2000, 17, cfg)
        assert rep.estimate == 1.0
        assert rep.std_error == 0.0

    def test_estimate_within_4se_and_deterministic(self, cfg):
        rep, = mc_check(0.75, [5.0], 30_000, 17, cfg)
        assert abs(rep.estimate - rep.deterministic_value) <= 4.0 * rep.std_error
        again, = mc_check(0.75, [5.0], 30_000, 17, cfg)
        assert again.estimate == rep.estimate
        assert again.acceptance_rate == rep.acceptance_rate

    def test_deterministic_value_is_transform_ratio(self, cfg):
        rep, = mc_check(0.75, [2.0], 2000, 17, cfg)
        want = w_cos_transform(0.75, 2.0, cfg) / w_cos_transform(0.75, 0.0, cfg)
        assert rep.deterministic_value == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("t", [1.0, 5.0, 10.0])
    def test_expectation_inequality_holds(self, cfg, t):
        rep, = mc_check(0.75, [t], 30_000, 17, cfg)
        assert rep.estimate > mm_bound(0.75, t, cfg)

    def test_rejects_tiny_n(self, cfg):
        with pytest.raises(ValueError):
            mc_check(0.75, [1.0], 10, 17, cfg)

    @pytest.mark.parametrize("n", [MAX_SAMPLES + 1, 10 ** 12])
    def test_rejects_samples_past_the_cap_before_building(self, cfg, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("sampler built")

        monkeypatch.setattr(inequality, "XSigmaSampler", refuse)
        with pytest.raises(DomainError, match="at most"):
            mc_check(0.75, [1.0], n, 17, cfg)

    def test_sample_cap_leaves_room_for_t_10(self):
        # certifying t = 10 at sigma 0.75 takes about 2e7 draws
        assert MAX_SAMPLES > 2 * 10 ** 7

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_rejects_seed_out_of_range_before_building(self, cfg, monkeypatch, seed):
        # Philox keys lie in [0, 2**128); the check comes before the sampler
        def refuse(*args, **kwargs):
            raise AssertionError("sampler built")

        monkeypatch.setattr(inequality, "XSigmaSampler", refuse)
        with pytest.raises(DomainError, match="seed"):
            mc_check(0.75, [1.0], 2000, seed, cfg)

    def test_one_sampler_and_one_draw_serve_every_t(self, cfg, monkeypatch):
        built = []
        sampler = inequality.XSigmaSampler

        def counted(*args, **kwargs):
            built.append(args)
            return sampler(*args, **kwargs)

        monkeypatch.setattr(inequality, "XSigmaSampler", counted)
        reps = mc_check(0.75, [1.0, 5.0, 10.0], 5000, 17, cfg)
        assert len(built) == 1
        assert [rep.t for rep in reps] == [1.0, 5.0, 10.0]
        # each row is the row a one-t call gives
        for rep in reps:
            alone, = mc_check(0.75, [rep.t], 5000, 17, cfg)
            assert alone == rep


class TestKernel:
    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0, 5.0, 10.0])
    def test_positivity(self, cfg, x):
        assert K_sigma(0.75, x, cfg) > 0.0

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 2.39, 5.0])
    def test_value_assembles_pieces(self, cfg, x):
        # K reads W e^{-sigma x} from the W table, 0 from its cut at 2.4 on
        from xi_ineq.modulus import calH
        s_val, t_val = constants(0.75, cfg)
        pref = 2.0 ** 2.25 / math.pi * 0.75 * 0.25 * 0.5
        want = (pref * calH(0.75, x, cfg)
                + 0.75 * (s_val - t_val * 0.0625) * math.exp(-0.25 * x)
                - 0.25 * (s_val - t_val * 0.5625) * math.exp(-0.75 * x))
        assert K_sigma(0.75, x, cfg) == pytest.approx(want, rel=1e-12)

    def test_large_x_exponential_regime(self, cfg):
        # the theta part dies doubly exponentially; only the two closed
        # exponentials survive at x = 10
        s_val, t_val = constants(0.75, cfg)
        want = (0.75 * (s_val - t_val * 0.0625) * math.exp(-0.25 * 10.0)
                - 0.25 * (s_val - t_val * 0.5625) * math.exp(-7.5))
        assert K_sigma(0.75, 10.0, cfg) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("t", [0.0, 1.0, 5.0, 10.0])
    def test_fourier_transform_identity(self, cfg, t):
        got = K_fourier(0.75, t, cfg)
        want = 4.0 * 0.75 * 0.25 * 0.5 * xi_mod_sq(0.75, t, cfg) \
            / ((t * t + 0.0625) * (t * t + 0.5625))
        assert abs(got - want) <= 1e-6 * abs(want)
        assert got > 0.0

    def test_fourier_even(self, cfg):
        assert K_fourier(0.75, 3.0, cfg) == K_fourier(0.75, -3.0, cfg)


class TestAutocorrelation:
    def test_normalized_at_zero(self, cfg):
        assert abs(autocorrelation_A(0.75, 0.0, cfg) - 1.0) < 1e-12

    @pytest.mark.parametrize("t", [0.5, 2.0, 7.0, 15.0, 30.0])
    def test_bounded_by_one(self, cfg, t):
        assert abs(autocorrelation_A(0.75, t, cfg)) <= 1.0 + 1e-9

    @pytest.mark.parametrize("sigma", [0.4, 0.5, 1.0])
    def test_sigma_outside_the_strip_is_a_domain_error(self, cfg, sigma):
        # at 0.4 the kernel is not positive; at 0.5 and 1.0 A used to divide 0 by 0
        for call in (lambda: K_fourier(sigma, 1.0, cfg),
                     lambda: autocorrelation_A(sigma, 1.0, cfg),
                     lambda: orthogonalization_scan(sigma, 2.0, 0.5, cfg)):
            with pytest.raises(DomainError, match=r"sigma in \(1/2,1\)"):
                call()

    @pytest.mark.parametrize("sigma", [0.6, 0.75])
    def test_no_zero_found_on_desk_range(self, cfg, sigma):
        scan = orthogonalization_scan(sigma, 30.0, 1.0, cfg)
        assert scan["iota_found"] is None
        if sigma == 0.75:
            # at 0.6 the far-grid values sit below double-precision resolution
            assert scan["min_A"] > 0.0


class TestZeroLocalization:
    def test_bisect_zero(self):
        z = bisect_zero(math.cos, 1.0, 2.0, xtol=1e-12)
        assert abs(z - math.pi / 2.0) < 1e-10

    def test_bisect_zero_stops_at_the_float_spacing(self):
        # floats near 5.5e7 lie 7.5e-9 apart, wider than xtol = 1e-10: once the
        # bracket held two neighbours, the loop used to run forever
        x0 = 1.75e7 * math.pi
        calls = []

        def sign(t):
            calls.append(t)
            if len(calls) > 300:
                raise RuntimeError("bisection did not stop")
            return -1.0 if t < x0 else 1.0

        assert bisect_zero(sign, 5e7, 6e7) in (math.nextafter(x0, 0.0), x0)

    def test_scan_values_each_grid_point_once(self):
        # the walk spans the whole grid, past the first zero, and bisection adds
        # only points between two grid points
        calls = []

        def f(t):
            calls.append(t)
            return math.cos(t)

        res = scan_for_zero(f, 0.5, 3.0, 0.5)
        grid = [0.5 * k for k in range(1, 7)]
        assert res["walk"] == [(t, math.cos(t)) for t in grid]
        assert calls[:6] == grid and all(1.5 < t < 2.0 for t in calls[6:])
        assert abs(res["zero"] - math.pi / 2.0) < 1e-9
        assert (res["min_t"], res["min_value"]) == (3.0, math.cos(3.0))

    def test_offset_triangular_window_zero(self):
        # triangular window centered at 2 with half-width 1: the normalized
        # cosine transform is cos(2t) * 2(1 - cos t)/t^2 -- first zero at pi/4
        def acf(t):
            if t == 0.0:
                return 1.0
            return math.cos(2.0 * t) * 2.0 * (1.0 - math.cos(t)) / (t * t)

        res = scan_for_zero(acf, 0.05, 3.0, 0.05)
        assert res["zero"] is not None
        assert abs(res["zero"] - math.pi / 4.0) < 1e-9

    @pytest.mark.parametrize("step", [0.0, -0.5])
    def test_scan_rejects_nonpositive_step(self, step):
        # a step away from t_max would walk forever; the probe ends it
        calls = []

        def probe(t):
            calls.append(t)
            if len(calls) > 100:
                raise RuntimeError("scan did not stop")
            return 1.0

        with pytest.raises(DomainError, match="step"):
            scan_for_zero(probe, 0.5, 2.0, step)

    def test_scan_rejects_a_range_with_no_grid_point(self):
        # t_max below the first multiple of step past t_lo: nothing to scan,
        # and f is never called
        calls = []
        with pytest.raises(DomainError, match="no grid point"):
            scan_for_zero(calls.append, 0.5, 0.3, 0.5)
        assert calls == []
        with pytest.raises(DomainError, match="no grid point"):
            orthogonalization_scan(0.75, 0.3, 0.5)

    def test_scan_rejects_a_grid_past_the_cap(self):
        # 2e9 grid points: rejected before f is called once
        calls = []
        with pytest.raises(DomainError, match="more than 1000000 points"):
            scan_for_zero(calls.append, 1e-9, 2.0, 1e-9)
        assert calls == []
        with pytest.raises(DomainError, match="more than 1000000 points"):
            orthogonalization_scan(0.75, 2.0, 1e-9)

    def test_noise_floor_suppresses_spurious_changes(self):
        wiggle = lambda t: 1e-14 * math.sin(50.0 * t) + 1e-16
        res = scan_for_zero(wiggle, 0.1, 2.0, 0.1, noise_floor=1e-12)
        assert res["zero"] is None

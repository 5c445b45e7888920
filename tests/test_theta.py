import importlib
import math

import numpy as np
import pytest

from xi_ineq import theta
from xi_ineq.config import EvalConfig
from xi_ineq.errors import ConvergenceError, DomainError
from xi_ineq.modulus import S_T_constants
from xi_ineq.theta import (J_tau, divisor_sigma, eta_tau, stable_combo_A,
                           stable_combo_B, sup_constant_C, sup_constant_Cn,
                           theta_G, theta_H, theta_R, theta_R_prime,
                           theta_R_prime_truncated, theta_R_truncated)

# direct extended-precision sums, n <= 20 (frozen oracles)
R1 = 0.086434811213308015
R1P = -0.54321740560665401
H1 = 1.7867876018684938
J0_AT_1 = 0.0018744304777749409   # sum_k d(k) exp(-2 pi k)

INV_GRID = [0.1, 0.3, 0.7, 1.0, 1.5, 3.0, 10.0]


class TestThetaR:
    def test_value_at_1(self, cfg):
        assert abs(theta_R(1.0, cfg) - R1) <= 1e-15

    def test_single_term_dominance_at_10(self, cfg):
        lead = 2.0 * math.exp(-100.0 * math.pi)
        assert abs(theta_R(10.0, cfg) - lead) <= 1e-15 * lead

    def test_inversion_consistency_at_half(self, cfg):
        assert abs(theta_R(0.5, cfg) - (2.0 - 1.0 + 2.0 * theta_R(2.0, cfg))) < 1e-15

    def test_domain(self, cfg):
        with pytest.raises(DomainError):
            theta_R(0.0, cfg)
        with pytest.raises(DomainError):
            theta_R(-1.0, cfg)

    @pytest.mark.parametrize("y", INV_GRID)
    def test_G_inversion_identity(self, cfg, y):
        lhs = theta_G(y, cfg)
        rhs = theta_G(1.0 / y, cfg) / y
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestThetaRPrime:
    def test_value_at_1(self, cfg):
        assert abs(theta_R_prime(1.0, cfg) - R1P) <= 1e-14

    def test_central_difference(self, cfg):
        h = 1e-5
        fd = (theta_R(1.0 + h, cfg) - theta_R(1.0 - h, cfg)) / (2.0 * h)
        assert abs(theta_R_prime(1.0, cfg) - fd) < 5.0 * h * h

    def test_large_y_termwise_bound(self, cfg):
        for y in (3.0, 5.0, 8.0):
            assert abs(theta_R_prime(y, cfg)) <= 8.0 * math.pi * y * math.exp(-math.pi * y * y)

    def test_inversion_branch_continuity(self, cfg):
        below = theta_R_prime(1.0 - 1e-12, cfg)
        above = theta_R_prime(1.0 + 1e-12, cfg)
        assert abs(below - above) < 1e-9


class TestThetaH:
    def test_value_and_positivity_at_1(self, cfg):
        v = theta_H(1.0, cfg)
        assert v > 0.0
        assert abs(v - H1) <= 1e-14

    @pytest.mark.parametrize("y", INV_GRID)
    def test_inversion_identity(self, cfg, y):
        lhs = theta_H(y, cfg)
        rhs = theta_H(1.0 / y, cfg) / y
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_inversion_example(self, cfg):
        assert abs(theta_H(2.0, cfg) - 0.5 * theta_H(0.5, cfg)) < 1e-12

    def test_array_call_keeps_each_elements_bits(self, cfg):
        # a grid over (0, 20], through the inversion below 1 and y = 1 itself,
        # where the terms underflow at different n; a 2-d array keeps its shape
        ys = np.concatenate([np.linspace(0.02, 20.0, 999), [1.0, 0.999, 1e-3]])
        got = theta_H(ys, cfg)
        assert got.tolist() == [theta_H(y, cfg) for y in ys.tolist()]
        assert theta_H(ys.reshape(3, -1), cfg).tolist() == got.reshape(3, -1).tolist()

    def test_array_domain(self, cfg):
        with pytest.raises(DomainError):
            theta_H(np.array([1.0, 0.0]), cfg)


class TestStableCombos:
    def test_combo_A_reduces_at_1(self, cfg):
        assert stable_combo_A(1.0, cfg) == pytest.approx(theta_R(1.0, cfg), abs=1e-16)

    def test_combo_A_is_inverted_R(self, cfg):
        assert stable_combo_A(0.25, cfg) == theta_R(4.0, cfg)

    def test_combo_A_underflows_to_zero(self, cfg):
        assert stable_combo_A(1e-3, cfg) == 0.0

    def test_combo_B_at_1(self, cfg):
        assert stable_combo_B(1.0, cfg) == pytest.approx(theta_R_prime(1.0, cfg) + 1.0, abs=1e-16)

    def test_combo_B_branches_agree(self, cfg):
        stable = stable_combo_B(0.5, cfg)
        direct = 0.25 * theta_R_prime(0.5, cfg) + 1.0
        assert abs(stable - direct) <= 1e-10 * max(abs(stable), 1e-6)

    def test_combo_B_underflows_to_zero(self, cfg):
        assert stable_combo_B(1e-3, cfg) == 0.0

    @pytest.mark.parametrize("y", [0.1, 0.2, 0.5, 0.9])
    def test_inversion_identities_exact_below_1(self, cfg, y):
        # the stable branch IS the inversion identity, to the last bit
        assert stable_combo_A(y, cfg) == theta_R(1.0 / y, cfg)
        inv = 1.0 / y
        assert stable_combo_B(y, cfg) == \
            -theta_R_prime(inv, cfg) * inv - theta_R(inv, cfg)

    def test_direct_branch_cross_check_at_half(self, cfg):
        # direct evaluation cancels ~1 - 1, so compare at its achievable accuracy
        a_direct = 0.5 * theta_R(0.5, cfg) + 0.5 - 1.0
        assert abs(stable_combo_A(0.5, cfg) - a_direct) <= 1e-10
        b_direct = 0.25 * theta_R_prime(0.5, cfg) + 1.0
        assert abs(stable_combo_B(0.5, cfg) - b_direct) <= 1e-10

    @pytest.mark.parametrize("n", range(-2, 7))
    def test_small_y_limits_vanish(self, cfg, n):
        # y^n [y G(y) - 1] -> 0 and y^n [y^2 G'(y) + 1] -> 0 as y -> 0
        for y in (0.05, 0.1):
            assert abs(y ** n * stable_combo_A(y, cfg)) < 1e-8
            assert abs(y ** n * stable_combo_B(y, cfg)) < 1e-8


class TestDivisorSigma:
    def test_known_values(self):
        assert divisor_sigma(6, 1.0) == 12.0
        assert divisor_sigma(1, 3.7) == 1.0
        assert divisor_sigma(12, 0.0) == 6.0

    def test_multiplicativity_on_coprimes(self):
        assert divisor_sigma(35, 0.5) == pytest.approx(
            divisor_sigma(5, 0.5) * divisor_sigma(7, 0.5), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            divisor_sigma(0, 1.0)


class TestJTau:
    def test_tau_zero_value(self, cfg):
        assert abs(J_tau(0.0, 1.0, 0, cfg) - J0_AT_1) <= 1e-17

    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.49])
    @pytest.mark.parametrize("y", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("deriv", [0, 1, 2, 3])
    def test_divisor_form_equals_naive(self, cfg, tau, y, deriv):
        fast = J_tau(tau, y, deriv, cfg)
        slow = J_tau(tau, y, deriv, cfg, naive=True)
        assert abs(fast - slow) <= 1e-12 * max(abs(fast), 1e-300)

    @pytest.mark.parametrize("deriv", [1, 2, 3])
    def test_derivatives_match_central_differences(self, cfg, deriv):
        h = 1e-5
        tau, y = 0.25, 1.0
        fd = (J_tau(tau, y + h, deriv - 1, cfg) - J_tau(tau, y - h, deriv - 1, cfg)) / (2 * h)
        exact = J_tau(tau, y, deriv, cfg)
        assert abs(exact - fd) <= 1e-7 * abs(exact) + 1e2 * h * h * abs(exact)

    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.49])
    @pytest.mark.parametrize("deriv", [0, 1, 2, 3])
    def test_array_call_equals_naive(self, cfg, tau, deriv):
        ys = np.array([1.0, 1.5, 3.0])
        fast = J_tau(tau, ys, deriv, cfg)
        slow = np.array([J_tau(tau, y, deriv, cfg, naive=True) for y in ys])
        assert np.all(np.abs(fast - slow) <= 1e-12 * np.maximum(np.abs(fast), 1e-300))

    def test_array_call_keeps_each_elements_bits(self, cfg):
        # elements stop after different numbers of terms (0.01 runs to hundreds,
        # 200 underflows at once); each keeps its float bits
        ys = np.array([[0.01, 1.0, 3.0], [200.0, 0.3, 1.7]])
        for deriv in range(4):
            got = J_tau(0.25, ys, deriv, cfg)
            assert got.shape == ys.shape
            assert got.ravel().tolist() == [J_tau(0.25, y, deriv, cfg) for y in ys.ravel().tolist()]

    def test_array_domain(self, cfg):
        with pytest.raises(DomainError):
            J_tau(0.25, np.array([1.0, 0.0]), 0, cfg)

    def test_tau_symmetry_at_zero(self, cfg):
        assert J_tau(0.0, 1.5, 0, cfg) == J_tau(-0.0, 1.5, 0, cfg)

    # y = 0.01 and 0.001 run to hundreds and thousands of terms
    @pytest.mark.parametrize("y, min_terms", [(0.01, 500), (0.001, 4097)])
    def test_long_sums_equal_the_plain_sum(self, cfg, y, min_terms):
        tau, deriv = 0.25, 2
        total = 0.0
        for k in range(1, cfg.series_max_terms + 1):
            a = 2.0 * math.pi * k * y
            term = 0.0 if a > 745.0 else (divisor_sigma(k, 2.0 * tau) * float(k) ** (-tau)
                                          * (-2.0 * math.pi * k) ** deriv * math.exp(-a))
            total += term
            if k >= 6 and abs(term) <= cfg.series_tol * abs(total):
                break
        assert k >= min_terms
        assert J_tau(tau, y, deriv, cfg) == total

    def test_series_cap_raises(self):
        # the cap (10) stops the sum long before it settles
        with pytest.raises(ConvergenceError) as exc:
            J_tau(0.25, 0.01, 0, EvalConfig(series_max_terms=10))
        assert exc.value.partial > 0.0

    def test_tau_reflection_swaps_weights_only(self, cfg):
        # (n/m)^tau vs (n/m)^-tau: equal after summing symmetric (m,n) pairs
        plus = J_tau(0.3, 1.2, 0, cfg)
        minus = J_tau(-0.3, 1.2, 0, cfg)
        assert abs(plus - minus) <= 1e-12 * abs(plus)


class TestEta:
    def test_closed_form_tau_zero(self):
        assert eta_tau(0.0, 2.0) == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)

    def test_cosh_parametrization(self):
        y = math.cosh(1.0)
        want = (math.exp(0.25) + math.exp(-0.25)) / math.sinh(1.0)
        assert eta_tau(0.25, y) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("tau", [0.1, 0.25, 0.49])
    def test_symmetric_in_tau(self, tau):
        for y in (1.01, 2.0, 7.5):
            assert eta_tau(tau, y) == pytest.approx(eta_tau(-tau, y), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            eta_tau(0.25, 1.0)


class TestSupConstants:
    def test_n0_divergence_flag(self, cfg):
        assert sup_constant_Cn(0, cfg) == math.inf

    def test_C1_is_boundary_limit(self, cfg):
        assert sup_constant_Cn(1, cfg) == 1.0

    def test_finite_positive_for_small_n(self, cfg):
        for n in range(1, 8):
            v = sup_constant_Cn(n, cfg)
            assert 0.0 < v < math.inf

    def test_n3_stable_under_grid_refinement(self, cfg):
        coarse = sup_constant_Cn(3, cfg)
        # 10x finer direct scan must not beat the reported supremum materially
        best = max((0.02 + 0.001 * k) ** 3 * theta_R(0.02 + 0.001 * k, cfg)
                   for k in range(3000))
        assert best <= coarse + 1e-8

    def test_C_at_least_one(self, cfg):
        C = sup_constant_C(cfg)
        assert C >= 1.0

    def test_C_lower_bound_at_1(self, cfg):
        assert sup_constant_C(cfg) >= 2.0 * theta_R(1.0, cfg)

    def test_boundary_limit_approached(self, cfg):
        # (y^3 + y) R(y) -> 1 from below as y -> 0
        v = (1e-5 ** 3 + 1e-5) * theta_R(1e-5, cfg)
        assert 0.99998 < v < 1.0

    @pytest.mark.parametrize("n", [1, 3])
    def test_pointwise_domination_on_log_grid(self, cfg, n):
        C = sup_constant_C(cfg)
        Cn = sup_constant_Cn(n, cfg)
        for k in range(1000):
            y = 10.0 ** (-4.0 + 6.0 * k / 999.0)
            r = theta_R(y, cfg)
            assert y ** n * r <= Cn + 1e-10
            assert (y ** 3 + y) * r <= C + 1e-10


class TestTruncatedSeries:
    def test_matches_full_on_plain_range(self, cfg):
        # at y >= 1 five terms already exhaust double precision
        assert theta_R_truncated(1.0, 5) == pytest.approx(theta_R(1.0, cfg), abs=1e-16)
        assert theta_R_prime_truncated(1.0, 5) == pytest.approx(
            theta_R_prime(1.0, cfg), abs=1e-15)

    def test_is_a_plain_partial_sum(self):
        got = theta_R_truncated(0.1, 5)
        want = 2.0 * sum(math.exp(-math.pi * n * n * 0.01) for n in range(1, 6))
        assert got == pytest.approx(want, rel=1e-15)


MEMO_GRID = [0.3, 0.7, 1.0, 1.6, 3.0]


class TestMemoTables:
    """R and R' are memoized; a table entry must be the series' own double."""

    @staticmethod
    def _uncached(monkeypatch, cfg):
        # route the y < 1 recursion through the bare functions as well
        monkeypatch.setattr(theta, "theta_R", theta_R.__wrapped__)
        monkeypatch.setattr(theta, "theta_R_prime", theta_R_prime.__wrapped__)
        values = {y: (theta_R.__wrapped__(y, cfg), theta_R_prime.__wrapped__(y, cfg))
                  for y in MEMO_GRID}
        monkeypatch.undo()
        return values

    def test_cached_values_are_bit_identical_cold_and_warm(self, monkeypatch, cfg):
        want = self._uncached(monkeypatch, cfg)
        theta_R.cache_clear()
        theta_R_prime.cache_clear()
        for y in MEMO_GRID:
            cold = (theta_R(y, cfg), theta_R_prime(y, cfg))
            warm = (theta_R(y, cfg), theta_R_prime(y, cfg))
            assert [v.hex() for v in cold] == [v.hex() for v in want[y]], y
            assert [v.hex() for v in warm] == [v.hex() for v in want[y]], y
        assert theta_R.cache_info().hits >= len(MEMO_GRID)
        assert theta_R_prime.cache_info().hits >= len(MEMO_GRID)

    def test_second_sigma_reuses_the_series_values(self, cfg):
        xi_module = importlib.import_module("xi_ineq.xi")
        ts = (0.0, 1.0, 5.0, 10.0, 20.0)

        def run(sigma):
            for method in ("A_direct", "C_inversion"):
                S_T_constants(sigma, method, cfg)
            for t in ts:
                xi_module.xi_mod_sq(sigma, t, cfg)

        def counts():
            r, p = theta_R.cache_info(), theta_R_prime.cache_info()
            return r.hits + r.misses + p.hits + p.misses, r.misses + p.misses

        theta_R.cache_clear()
        theta_R_prime.cache_clear()
        run(0.75)
        calls0, misses0 = counts()
        run(0.6)
        calls1, misses1 = counts()
        # R does not depend on sigma and the abscissae depend only on the
        # interval: measured 0 new values in about 8,800 calls
        assert calls1 - calls0 > 1000
        assert misses1 - misses0 <= 0.01 * (calls1 - calls0)

"""Numerical laboratory for the completed-zeta modulus representation,
its series/integral constants, and the positivity checks built on them."""

from .config import DEFAULT_CONFIG, EvalConfig, config_from_mapping, parse_config_text
from .errors import ConvergenceError, DomainError, EvaluationError
from .inequality import (MCReport, ScanReport, TruncationLevels, K_fourier,
                         K_sigma, XSigmaSampler, autocorrelation_A,
                         check_poly_min_criterion, lemb_moment_bound, mc_check,
                         mm_bound, orthogonalization_scan, poly_approx_V,
                         scan_for_zero, scan_inequality, truncation_levels,
                         verify_tail_bound)
from .modulus import (ConstantsReport, PowerSeriesCoeffs, F_sigma, S_T_constants,
                      W_sigma, a_coeff, c_coeff, calG, calH, calH_derivs_at_0,
                      constants, modulus_rhs, modulus_rhs_via_J,
                      power_series_coeffs, w_cos_fixed, w_cos_transform)
from .quadrature import QuadResult, integrate_eta_weighted, integrate_finite
from .theta import (J_tau, divisor_sigma, eta_tau, stable_combo_A,
                    stable_combo_B, sup_constant_C, sup_constant_Cn, theta_G,
                    theta_H, theta_R, theta_R_prime)
from .xi import (char_fn_Xi, density_P, density_Pbar, U_sigma, xi, xi_mod_sq,
                 xi_mod_sq_via_U, xi_real)

__version__ = "0.1.0"

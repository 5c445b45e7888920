"""Bit-identity guard for the hot series kernels and the S/T routes.

The theta series, J_tau and Gcal are summed with precomputed per-term
constants.  Each value below is the float.hex of the plain term-by-term sum,
in which every term was formed factor by factor; a kernel rewrite that moves
any rounding fails here, however small the change.  The Gcal pins, the two
J/eta masses, the W masses and the fixed-rule transform were re-recorded when
Gcal and the eta-weighted integrals moved from adaptive Gauss-Kronrod to the
trapezoid sum; every moved pin is within 8e-16 relative of its value from
mpmath's Bessel-K.  Gcal(1) at sigma 0.75, the W masses and the transform moved
again when Gcal's product sum became a Horner polynomial in
exp(-2 pi lam cosh u), one exp per abscissa: Gcal(1) by one ulp, to 3.2e-16
relative of mpmath (1.5e-16 before), the transform at t = 5 to 4.5e-17
(1.9e-16 before).  The S/T pins are the
values of routes A and C (both modes) and of route B's fixed-truncation recipe
as their integrals were first written out term by term, one route per
function; sharing code between the routes must not move them.  The J/eta
pins are `modulus_rhs_via_J` and two masses of its node table (`_jeta_table`:
the largest, and the one at the middle node) as the table first gave them.
The rule pins are the SHA-256 digests of the W table's rule arrays and of its
masses at sigma 0.75, and one fixed-rule transform, as each was first written
out inside `modulus`; moving the rule into `quadrature` must not move them.
The masses' digest was re-recorded when `barycentric` summed each point's
numerator and denominator exactly (math.fsum) instead of by a BLAS product,
whose rounding depended on the OpenBLAS kernel the CPU selects: the masses are
within 8.8e-16 of the largest of mpmath's Bessel-K values (7.3e-16 before), and
the digest is now the same under every kernel, which a subprocess checks.
The oracle pins are xi(s) at real and complex points as the oracle gave them
when each of its two passes computed the complex integrand for itself.  They
were re-recorded when one adaptive pass integrated the complex integrand: every
real part held, and the imaginary part at 0.6 - 14.2i moved from
-0x1.0c261d7e64240p-13 to -0x1.0c261d7e64200p-13, both 9.21e-11 of |xi| from
mpmath's Gamma-zeta value.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from xi_ineq import modulus, theta
from xi_ineq.xi import xi
from xi_ineq.modulus import S_T_constants, _jeta_table, calG, modulus_rhs_via_J

# y = 0.05 takes a few hundred terms; y = 3 stops at the floor
BITS_J = {   # (tau, y, deriv)
    (0.25, 0.05, 0): '0x1.83edd979496aap+2',
    (0.25, 0.05, 1): '-0x1.77842c9c5e887p+7',
    (0.25, 0.05, 2): '0x1.1bf79d776e22fp+13',
    (0.25, 0.05, 3): '-0x1.2b5629c59d9dap+19',
    (0.25, 3.0, 0): '0x1.bf879141d0be2p-28',
    (0.25, 3.0, 1): '-0x1.5f7d2881064edp-25',
    (0.25, 3.0, 2): '0x1.140f09cc5413fp-22',
    (0.25, 3.0, 3): '-0x1.b1a1d02e05d2cp-20',
    (0.05, 0.05, 0): '0x1.720ea316dfa73p+2',
    (0.05, 0.05, 1): '-0x1.5d63e5dd298e1p+7',
    (0.05, 0.05, 2): '0x1.0278756a6ec62p+13',
    (0.05, 0.05, 3): '-0x1.0b7fc03c9fdd6p+19',
    (0.05, 3.0, 0): '0x1.bf87914066f41p-28',
    (0.05, 3.0, 1): '-0x1.5f7d287ece02cp-25',
    (0.05, 3.0, 2): '0x1.140f09c8d7663p-22',
    (0.05, 3.0, 3): '-0x1.b1a1d0231163bp-20',
    (-0.2, 0.05, 0): '0x1.7d2742d892a7fp+2',
    (-0.2, 0.05, 1): '-0x1.6d94416b7b0bbp+7',
    (-0.2, 0.05, 2): '0x1.123d4fbef8a3fp+13',
    (-0.2, 0.05, 3): '-0x1.1f27d44259bd8p+19',
    (-0.2, 3.0, 0): '0x1.bf87914148de4p-28',
    (-0.2, 3.0, 1): '-0x1.5f7d288030e07p-25',
    (-0.2, 3.0, 2): '0x1.140f09cb04d24p-22',
    (-0.2, 3.0, 3): '-0x1.b1a1d029e8954p-20',
}
BITS_THETA = {   # (function, y)
    ('theta_R', 0.7): '0x1.bba9c8860bfeap-2',
    ('theta_R_prime', 0.7): '-0x1.f627d78206701p+0',
    ('theta_H', 0.7): '0x1.2ead8a9a40d62p-1',
    ('theta_R', 1.6): '0x1.51211731336dap-11',
    ('theta_R_prime', 1.6): '-0x1.a7a62ce9cbbc1p-8',
    ('theta_H', 1.6): '0x1.152be59fbc5d1p-3',
}
BITS_CALG = {   # (sigma, lam, deriv)
    (0.75, 1.0, 0): '0x1.3fb640a67e3ecp-9',
    (0.75, 1.0, 1): '-0x1.ce8e9cf981d56p-7',
    (0.75, 1.0, 2): '0x1.4a70d1de10b25p-4',
    (0.75, 1.0, 3): '-0x1.d105202446093p-2',
    (0.6, 0.4, 0): '0x1.4c5f373c4caacp-4',
    (0.9, 2.5, 0): '0x1.2fbb25ab8b42cp-22',
}
BITS_ST = {   # (method, sigma, paper_truncation): (S, T, err_est)
    ('A_direct', 0.75, False):
        ('0x1.fb90c8c544e54p-2', '-0x1.7c71eca7867c3p-6', '0x1.acb469ebbf75bp-48'),
    ('A_direct', 0.6, False):
        ('0x1.fa52f088f542dp-2', '-0x1.7aba01980654cp-6', '0x1.a557a84ab1520p-48'),
    ('C_inversion', 0.75, False):
        ('0x1.fb90c8c544e54p-2', '-0x1.7c71eca7867c4p-6', '0x1.9fa00ffa0b336p-48'),
    ('C_inversion', 0.75, True):
        ('0x1.fb90c8c544e57p-2', '-0x1.7c71eca7866d6p-6', '0x1.0b3661291e09cp-42'),
    ('C_inversion', 0.6, False):
        ('0x1.fa52f088f542dp-2', '-0x1.7aba01980654ep-6', '0x1.993c6acbd6c09p-48'),
    ('C_inversion', 0.6, True):
        ('0x1.fa52f088f5432p-2', '-0x1.7aba019806415p-6', '0x1.f0e7bf15c8b50p-44'),
    ('B_series', 0.75, True):
        ('0x1.e54dac419c2f3p-2', '-0x1.65e7f701e180dp-6', '0x1.b4165f5f1c938p-35'),
}

BITS_J_ROUTE = {   # modulus_rhs_via_J(0.25, 5.0) and _jeta_table(0.25).masses[i]
    'modulus_rhs_via_J': '0x1.38078018067d4p-3',
    14: '0x1.8520257155693p-16',
    64: '0x1.49e037b0470c5p-35',
}

BITS_RULE = {   # SHA-256 of the arrays' bytes
    '_X': '121a2b6d1a1098c44d77dbdfedfe45d0fc8e99c09686847e77716d9ba0906dd3',
    '_XT': 'aa6ab757525d180906d4877cbd0867ed5e6884a1202e788008478f198d234a5a',
    '_FEJER': 'de0ddbe8c5464f3f2559110c8578366574b8687b8690d65d5dc41e031e50201b',
    '_WEIGHTS_T': 'f94fea9449e66e2b09ed0e966fd0efad678675cfb3d0f6e533c203b597685507',
    '_BARY': 'fa3cfd8fab1b58146bd1eb575d7afe2932b9ff43233af7ff94caf0ba194e098b',
    'w_table_masses_0.75': 'e7055ce5a7d68be5990c437d3ade7f6944d3a23d3c83620909987c78bdc63aea',
    'w_cos_fixed_0.75_5': '0x1.843b0a168a05ap-12',
}

BITS_XI = {   # s: (Re xi(s), Im xi(s))
    0.75: ('0x1.fdc98abad5d5ep-2', '0x0.0p+0'),
    0.741 - 5j: ('0x1.1a1e68a137c32p-2', '-0x1.06d42d3163ba3p-6'),
    0.6 - 14.2j: ('-0x1.8c8fc3e2ac000p-14', '-0x1.0c261d7e64200p-13'),
    0.3 + 2j: ('0x1.d054d5b1178a3p-2', '-0x1.14747d078bf16p-7'),
}


@pytest.mark.parametrize("key", sorted(BITS_J))
def test_J_tau_bits(key):
    assert theta.J_tau(*key).hex() == BITS_J[key]


@pytest.mark.parametrize("key", sorted(BITS_THETA))
def test_theta_bits(key):
    name, y = key
    assert getattr(theta, name)(y).hex() == BITS_THETA[key]


@pytest.mark.parametrize("key", sorted(BITS_CALG))
def test_calG_bits(key):
    assert calG(*key).hex() == BITS_CALG[key]


@pytest.mark.parametrize("key", sorted(BITS_ST))
def test_S_T_bits(key, request):
    method, sigma, paper_truncation = key
    if key == ("B_series", 0.75, True):
        rep = request.getfixturevalue("route_b_fixed_truncation")
    else:
        rep = S_T_constants(sigma, method, paper_truncation=paper_truncation)
    assert (rep.s_value.hex(), rep.t_value.hex(), rep.err_est.hex()) == BITS_ST[key]


def test_J_route_bits():
    masses = _jeta_table(0.25).masses
    got = {'modulus_rhs_via_J': modulus_rhs_via_J(0.25, 5.0).hex(),
           14: float(masses[14]).hex(), 64: float(masses[64]).hex()}
    assert got == BITS_J_ROUTE


def test_W_rule_bits():
    def digest(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    got = {name: digest(getattr(modulus, name))
           for name in ("_X", "_XT", "_FEJER", "_WEIGHTS_T", "_BARY")}
    got['w_table_masses_0.75'] = digest(modulus._w_table(0.75).masses)
    got['w_cos_fixed_0.75_5'] = modulus.w_cos_fixed(0.75, 5.0).hex()
    assert got == BITS_RULE


def _run(script, **env):
    """The stdout of `script` run by this interpreter in a fresh process, with the
    package on its path and the environment variables `env` set."""
    src = os.path.dirname(os.path.dirname(modulus.__file__))
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout.strip()


def test_W_masses_bits_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernel from the CPU; Haswell's is the one a CPU without
    # AVX-512 runs, whatever kernel the CPU running the tests would pick
    script = ("import hashlib; from xi_ineq import modulus; "
              "print(hashlib.sha256(modulus._w_table(0.75).masses.tobytes()).hexdigest())")
    assert _run(script, OPENBLAS_CORETYPE="Haswell") == BITS_RULE['w_table_masses_0.75']


# one digest of every fixed-rule read: the transform, both representation routes,
# a(k), the Taylor table of the polynomial criterion, and the sampler's Chebyshev
# series with its CDF
FIXED_RULE_READS = """
import hashlib
import numpy as np
from xi_ineq import modulus
from xi_ineq.inequality import XSigmaSampler
ts = [0.25 * k for k in range(121)]
values = [modulus.w_cos_fixed(0.75, t) for t in ts]
values += [modulus.modulus_rhs_via_J(0.25, t) for t in ts]
values += [modulus.modulus_rhs(0.75, t) for t in ts]
values += [modulus.a_coeff(0.25, k) for k in range(30)]
values += modulus._cos_taylor_terms(0.75, 20, 60, 3.0, modulus.DEFAULT_CONFIG).tolist()
sampler = XSigmaSampler(0.75)
values += sampler._dens.coef.tolist()
values += sampler.cdf(np.linspace(0.0, modulus._W_CUT, 1001)).tolist()
print(hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest())
"""


def test_fixed_rule_reads_do_not_depend_on_the_blas_kernel():
    # Prescott's kernel is the plainest OpenBLAS has; Haswell's is AVX2's
    assert (_run(FIXED_RULE_READS, OPENBLAS_CORETYPE="Haswell")
            == _run(FIXED_RULE_READS, OPENBLAS_CORETYPE="Prescott"))


def _avx512_dispatch_targets():
    """The AVX-512 targets numpy dispatches to on this CPU, by the names of the
    installed numpy (numpy 1.x calls them AVX512F, AVX512_SKX, ...; 2.x X86_V4,
    AVX512_ICL, ...)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return [name for name in umath.__cpu_dispatch__
            if features.get(name) and (name.startswith("AVX512") or name == "X86_V4")]


def test_sampler_draws_do_not_depend_on_numpy_dispatch():
    # numpy's vector log1p differs in the last bit between its AVX-512 and AVX2
    # paths; an accepted draw's value must not
    targets = _avx512_dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches to no AVX-512 target on this CPU")
    script = ("import hashlib; from xi_ineq.inequality import XSigmaSampler\n"
              "for sigma in (0.6, 0.75, 0.9):\n"
              "    draws = XSigmaSampler(sigma).sample(20000, 2)[0]\n"
              "    print(hashlib.sha256(draws.tobytes()).hexdigest())")
    assert _run(script) == _run(script, NPY_DISABLE_CPU_FEATURES=" ".join(targets))


@pytest.mark.parametrize("s", list(BITS_XI), ids=str)
def test_xi_oracle_bits(s):
    value = xi(s)
    assert (value.real.hex(), value.imag.hex()) == BITS_XI[s]

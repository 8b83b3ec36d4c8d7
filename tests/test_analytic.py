"""Numerical evaluation: theta/eta, Lerch sum, completion, characters, genus."""

import cmath
import hashlib
import math
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mockforms import analytic
from mockforms.analytic import (
    SECTORS,
    CharSpec,
    dedekind_eta,
    elliptic_genus,
    jacobi_theta,
    lerch_completion,
    lerch_difference,
    lerch_sum,
    nonholomorphic_correction,
    superconformal_character,
)
from mockforms.characters import decomposition_residual, identity_check
from mockforms.errors import (
    BesselOverflow,
    MockformsError,
    NonPositiveArgument,
    PoleAtArgument,
    QuadratureNonConvergence,
    UnknownName,
    UnsupportedSpec,
    ValueOverflow,
)
from mockforms.qseries import eta_series, theta_constant_series
from mockforms.rademacher import bessel_i_half, bessel_i_three_half, bessel_j_half, dedekind_sum
from mockforms.shadow import multiplicity_completion

from oracles import (
    completion_fixed,
    correction_fixed,
    correction_period_integral,
    eta_product_fixed,
    lerch_rounding_scale,
    lerch_sum_fixed,
    theta_sum,
    theta_terms,
)

F = Fraction

TAUS = (0.10 + 0.90j, -0.20 + 1.30j, 0.35 + 1.80j, 2.0j, 0.05 + 1.10j)
ZS = (0.23 + 0.11j, 0.41 - 0.07j, 0.13 + 0.05j)

# Points for the reduction properties: Im tau in [0.05, 3] and |Re tau| <= 3,
# so both |tau| < 1 and |Re tau| > 1/2 occur, and z inside the period strip
# away from the lattice, z = x + i r Im tau.
ORACLE_TAU = st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.05, 3.0))
STRIP_Z = st.tuples(st.floats(0.05, 0.45), st.floats(-0.4, 0.4))
# Im tau log-uniform over [1e-3, 0.05], where the direct sums fail
SMALL_TAU = st.builds(lambda x, u: complex(x, math.exp(u)), st.floats(-0.5, 0.5),
                      st.floats(math.log(1e-3), math.log(0.05)))


def _strip_point(z: tuple, t: complex) -> complex:
    return complex(z[0], z[1] * t.imag)


def _abs_sum(terms) -> float:
    return math.fsum(abs(term) for term in terms)


# Every public entry point that takes tau, called with valid other arguments
TAU_ENTRY_POINTS = {
    "jacobi_theta": lambda t: jacobi_theta("00", 0.1, t),
    "dedekind_eta": dedekind_eta,
    "lerch_sum": lambda t: lerch_sum(0.2, t),
    "lerch_completion": lambda t: lerch_completion(0.2, t),
    "lerch_difference": lambda t: lerch_difference(0.2, 0.3, t),
    "nonholomorphic_correction": nonholomorphic_correction,
    "superconformal_character": lambda t: superconformal_character(CharSpec("massive", 1, F(5, 4), F(1, 2)), 0.2, t),
    "elliptic_genus": lambda t: elliptic_genus("k3", 0.2, t),
    "multiplicity_completion": multiplicity_completion,
}


@pytest.mark.parametrize("tau", [1.0 + 0j, 0.3 - 0.1j, complex(0.1, math.nan), complex(math.nan, 1.0),
                                 complex(0.1, math.inf), complex(math.inf, 1.0)],
                         ids=("real", "lower", "nan", "nan_real", "inf_imag", "inf_real"))
@pytest.mark.parametrize("entry", TAU_ENTRY_POINTS.values(), ids=TAU_ENTRY_POINTS.keys())
def test_tau_outside_the_upper_half_plane_is_rejected(entry, tau):
    with pytest.raises(ValueError, match="upper half-plane"):
        entry(tau)


# Every public entry point that takes z (lerch_difference twice, for z and
# for w), called with valid other arguments
Z_ENTRY_POINTS = {
    "jacobi_theta": lambda z, t: jacobi_theta("00", z, t),
    "lerch_sum": lerch_sum,
    "lerch_completion": lerch_completion,
    "lerch_difference_z": lambda z, t: lerch_difference(z, 0.3, t),
    "lerch_difference_w": lambda w, t: lerch_difference(0.2, w, t),
    "superconformal_character": lambda z, t: superconformal_character(CharSpec("massive", 1, F(5, 4), F(1, 2)), z, t),
    "elliptic_genus": lambda z, t: elliptic_genus("k3", z, t),
}


NOT_FINITE = "^[zw] = .* is not finite$"


# A z that is not finite is refused like a bad tau; a finite z whose lattice
# index Im z / Im tau is past a double (1e310 here) raises ValueOverflow
@pytest.mark.parametrize("z, t, error, match", [
    (complex(math.nan, 0.1), 0.3 + 1.1j, ValueError, NOT_FINITE),
    (complex(0.1, math.nan), 0.3 + 1.1j, ValueError, NOT_FINITE),
    (complex(math.inf, 0.1), 0.3 + 1.1j, ValueError, NOT_FINITE),
    (complex(0.1, -math.inf), 0.3 + 1.1j, ValueError, NOT_FINITE),
    (math.nan, 0.3 + 1.1j, ValueError, NOT_FINITE),
    (1e300j, 0.3 + 1e-10j, ValueOverflow, "lattice index"),
], ids=("nan_real", "nan_imag", "inf_real", "inf_imag", "nan", "lattice_index_past_a_double"))
@pytest.mark.parametrize("entry", Z_ENTRY_POINTS.values(), ids=Z_ENTRY_POINTS.keys())
def test_z_that_is_not_finite_or_has_no_lattice_point_is_rejected(entry, z, t, error, match):
    with pytest.raises(error, match=match):
        entry(z, t)


# At z = 1e300i, tau = i the lattice index is finite but the log of the
# lattice phase is not: the value is past a double and raises ValueOverflow
# (it was inf + nan i or nan + nan i)
@pytest.mark.parametrize("entry", (
    lambda: jacobi_theta("00", 1e300j, 1j),
    lambda: elliptic_genus("k3", 1e300j, 1j),
    lambda: superconformal_character(CharSpec("massive", 1, F(5, 4), F(1, 2)), 1e300j, 1j),
), ids=("jacobi_theta", "elliptic_genus", "massive_character"))
def test_log_past_a_double_raises_value_overflow(entry):
    with pytest.raises(ValueOverflow, match="exceeds the range of a double"):
        entry()


class TestTheta:
    def test_theta11_odd_vanishes_at_zero(self):
        for t in TAUS:
            assert abs(jacobi_theta("11", 0.0, t)) < 1e-14

    def test_jacobi_quartic_identity_on_grid(self):
        # theta00^4 = theta01^4 + theta10^4, classical, checked on a tau grid
        for re in (-0.4, -0.1, 0.0, 0.2, 0.45):
            for im in (0.7, 0.9, 1.3, 1.9, 2.6):
                t = re + 1j * im
                residual = abs(jacobi_theta("00", 0, t) ** 4 - jacobi_theta("01", 0, t) ** 4
                               - jacobi_theta("10", 0, t) ** 4)
                assert residual < 1e-12

    def test_against_fixed_range_oracle(self):
        for label in ("11", "10", "00", "01"):
            for z in ZS:
                got = jacobi_theta(label, z, 0.07 + 1.1j)
                ref = theta_sum(label, z, 0.07 + 1.1j)
                assert abs(got - ref) < 1e-13

    def test_cross_module_theta_constant(self):
        t = 1.1j
        series = theta_constant_series("10", 60).evaluate(t)
        assert abs(jacobi_theta("10", 0.0, t) - series) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(UnknownName):
            jacobi_theta("12", 0.0, 1j)

    @settings(max_examples=60, deadline=None)
    @given(t=ORACLE_TAU, zr=STRIP_Z)
    def test_reduced_evaluation_matches_fixed_range_oracle(self, t, zr):
        # relative 1e-12 of the sum of the oracle's term moduli, which is
        # what bounds the oracle's own rounding when its terms cancel
        z = _strip_point(zr, t)
        for label in ("11", "10", "00", "01"):
            terms = theta_terms(label, z, t)
            assert abs(jacobi_theta(label, z, t) - sum(terms)) <= 1e-12 * _abs_sum(terms)

    def test_quasi_periodicity_with_im_z_far_above_im_tau(self):
        # Im z / Im tau = 5500: |theta_11| is about e^{1842}, past a double
        with pytest.raises(ValueOverflow):
            jacobi_theta("11", 0.23 + 0.11j, 0.3 + 2e-5j)
        # at Im z / Im tau = 550 and 55 the value fits, and
        # theta_11(z + tau) = -e^{-i pi tau - 2 pi i z} theta_11(z)
        t = 0.3 + 2e-5j
        for z in (0.23 + 0.011j, 0.23 + 0.0011j):
            shifted = jacobi_theta("11", z + t, t)
            law = -cmath.exp(-1j * math.pi * t - 2j * math.pi * z) * jacobi_theta("11", z, t)
            assert abs(shifted - law) < 1e-11 * abs(law)

    @settings(max_examples=60, deadline=None)
    @given(t=SMALL_TAU)
    def test_jacobi_quartic_at_small_im_tau(self, t):
        th00, th01, th10 = (jacobi_theta(label, 0.0, t) for label in ("00", "01", "10"))
        scale = abs(th00) ** 4 + abs(th01) ** 4 + abs(th10) ** 4
        assert abs(th00 ** 4 - th01 ** 4 - th10 ** 4) <= 1e-12 * scale

    # theta_00(0.13 + 0.01i; tau) at small Im tau, where the walk to the
    # reduced point loses digits as Im tau falls.  Reference values: mpmath
    # at 300 digits (the same 25 digits at 400), the series
    # sum_n exp(i pi (tau n^2 + 2 n z)) summed literally over |n| <= 700, 2200
    # and 7000 (the same with 20 % more terms), at the exact binary values of
    # the double inputs:
    #     mp.mp.dps = 300
    #     z, t = mp.mpc(0.13, 0.01), mp.mpc(0.3, 1e-5)
    #     mp.fsum(mp.exp(1j * mp.pi * (t * n * n + 2 * n * z)) for n in range(-7000, 7001))
    # The bounds are three times the error measured when they were set
    # (7.9e-14, 4.2e-12, 7.3e-10), so a kernel change cannot make it worse
    # unnoticed.
    @pytest.mark.parametrize("t, expected, bound", [
        (0.3 + 1e-3j, -0.1267172541604597325193716 - 0.8000556752726468567179559j, 3 * 7.9e-14),
        (0.3 + 1e-4j, 3.798473460012407075374638e-10 + 6.016190930623097040111548e-11j, 3 * 4.2e-12),
        (0.3 + 1e-5j, 6.990554398347657902023003e-108 + 1.107195047935925938033812e-108j, 3 * 7.3e-10),
    ], ids=("im_tau_1e-3", "im_tau_1e-4", "im_tau_1e-5"))
    def test_small_im_tau_against_high_precision(self, t, expected, bound):
        got = jacobi_theta("00", 0.13 + 0.01j, t)
        assert abs(got - expected) <= bound * abs(expected)

    @pytest.mark.parametrize("w, t", [(0.37 + 0.3j, 0.3 + 0.01j), (-2.6 - 0.9j, 0.1 + 0.02j),
                                      (0.8 + 0.012j, 0.3 + 0.01j), (0.3 - 0.004j, 0.45 + 0.01j)],
                             ids=("b_30", "b_minus_45", "b_1", "b_0"))
    def test_lattice_point_is_the_theta_lattice_shift(self, w, t):
        # _lattice_point alone gives the w0 of _theta_lattice, in the exact
        # branch (|b| > 1) and the float one
        w0, _ = analytic._lattice_point(w, t)
        assert w0 == analytic._theta_lattice(w, t)[0]
        assert abs(w0.imag) <= 0.5 * t.imag and abs(w0.real) <= 0.5

    def test_fraction_z_is_its_float(self):
        # complex() of a Fraction goes through float(), so a Fraction z needs no branch of its own
        for x in (F(1, 3), F(-7, 5), F(10 ** 30 + 1, 3)):
            assert jacobi_theta("00", x, 1.2j) == jacobi_theta("00", float(x), 1.2j)


class TestEta:
    def test_cross_module_series(self):
        for t in (1.3j, 0.2 + 0.8j):
            assert abs(dedekind_eta(t) - eta_series(60).evaluate(t)) < 1e-12

    def test_inversion_transform(self):
        # gamma = (0, -1; 1, 0): s(0, 1) = 0, phase i^{-1/2}
        t = 1.3j
        lhs = dedekind_eta(-1 / t)
        rhs = cmath.exp(-0.25j * math.pi) * cmath.sqrt(t) * dedekind_eta(t)
        assert abs(lhs - rhs) < 1e-10

    def test_general_transform(self):
        for a, b, c, d in ((1, 0, 1, 1), (2, 1, 3, 2), (1, -1, 2, -1)):
            assert a * d - b * c == 1 and c > 0
            for t in (1.3j, 0.21 + 0.95j):
                s = dedekind_sum(d % c, c).value if c > 1 else F(0)
                pre = cmath.exp(-0.25j * math.pi) * cmath.exp(1j * math.pi * float(F(a + d, 12 * c) - s))
                lhs = dedekind_eta((a * t + b) / (c * t + d))
                rhs = pre * cmath.sqrt(c * t + d) * dedekind_eta(t)
                assert abs(lhs - rhs) < 1e-10

    def test_eighth_power_positive_on_imaginary_axis(self):
        value = dedekind_eta(1j) ** 8
        assert value.real > 0 and abs(value.imag) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(t=ORACLE_TAU)
    def test_reduced_evaluation_matches_fixed_product(self, t):
        ref = eta_product_fixed(t)
        assert abs(dedekind_eta(t) - ref) <= 1e-12 * abs(ref)

    # eta at small Im tau, where the walk to the reduced point is longest.
    # Reference values: mpmath at 120 digits, the pentagonal series summed
    # literally (the same 20 digits with 20 % more terms, and from mp.eta),
    # at the exact binary values of the double inputs:
    #     mp.mp.dps = 120
    #     t = mp.mpc(0.3, 1e-3)
    #     mp.fsum((-1) ** k * mp.exp(2j * mp.pi * t * mp.mpf((6 * k - 1) ** 2) / 24) for k in range(-1800, 1801))
    # (600 terms a side at Im tau = 1e-2, 5800 at 1e-4).  The bounds are three
    # times the error measured when they were set (1.9e-16, 3.0e-15, 8.7e-14;
    # eta as theta_00 at 3 tau read 1.1e-15, 3.4e-14, 3.9e-12).
    @pytest.mark.parametrize("t, expected, bound", [
        (0.3 + 1e-2j, 2.428138663409732785 + 0.18676759010263128699j, 3 * 1.9e-16),
        (0.3 + 1e-3j, 0.72724183240258745864 + 0.057235173484363949629j, 3 * 3.0e-15),
        (0.3 + 1e-4j, 1.3454147933424631556e-10 + 1.0588644062700274988e-11j, 3 * 8.7e-14),
    ], ids=("im_tau_1e-2", "im_tau_1e-3", "im_tau_1e-4"))
    def test_small_im_tau_against_high_precision(self, t, expected, bound):
        assert abs(dedekind_eta(t) - expected) <= bound * abs(expected)


class TestLerchSum:
    def test_even_in_z(self):
        assert abs(lerch_sum(0.23 + 0.11j, 0.07 + 1.1j) - lerch_sum(-0.23 - 0.11j, 0.07 + 1.1j)) < 1e-12

    def test_against_fixed_truncation_oracle(self):
        value = lerch_sum(0.5, 1.2j)
        assert abs(value - lerch_sum_fixed(0.5, 1.2j, 400)) < 1e-12

    def test_half_period_combination_matches_series(self):
        # 8 sum_label N_label/theta_label (q) = 8 sum_w mu(w; tau)
        from mockforms.characters import half_period_numerator
        t, n = 0.05 + 1.25j, 25
        total = half_period_numerator(2, n) / theta_constant_series("10", n) \
            + half_period_numerator(3, n) / theta_constant_series("00", n) \
            + half_period_numerator(4, n) / theta_constant_series("01", n)
        lhs = 8.0 * total.evaluate(t)
        rhs = 8.0 * (lerch_sum(0.5, t) + lerch_sum((1 + t) / 2, t) + lerch_sum(t / 2, t))
        assert abs(lhs - rhs) < 1e-10

    def test_pole_at_lattice_point(self):
        with pytest.raises(PoleAtArgument):
            lerch_sum(0.0, 1.2j)

    def test_off_domain_where_correction_needs_773_terms(self):
        # Im tau = 2e-5: R(tau) is summed over 856 terms (it settled after 773
        # when it stopped adaptively)
        z, t = 0.23 + 0.11j, 0.3 + 2e-5j
        assert lerch_sum(z, t) == lerch_completion(z, t) + 0.5 * nonholomorphic_correction(t)

    @settings(max_examples=40, deadline=None)
    @given(t=ORACLE_TAU, zr=STRIP_Z)
    def test_reduced_evaluation_matches_fixed_truncation(self, t, zr):
        z = _strip_point(zr, t)
        assert abs(lerch_sum(z, t) - lerch_sum_fixed(z, t)) <= 1e-12 * lerch_rounding_scale(z, t)


class TestNonholomorphicCorrection:
    def test_sum_vs_period_integral(self):
        for t in (0.1 + 0.9j, 1.5j, -0.3 + 1.2j, 0.2 + 0.5j, 3.0j):
            a = nonholomorphic_correction(t)
            b = correction_period_integral(t)
            assert abs(a - b) < 1e-8

    def test_real_on_imaginary_axis(self):
        for v in (0.6, 1.5, 2.5):
            value = nonholomorphic_correction(1j * v)
            assert abs(value.imag) < 1e-15

    def test_reference_value_from_quadrature(self):
        got = nonholomorphic_correction(1.5j)
        oracle = correction_period_integral(1.5j)
        assert abs(got - oracle) < 1e-8

    def test_sum_raises_instead_of_truncating(self):
        # past its 100 000-term cap (Im tau below ~1.6e-9) the sum raises
        # rather than returning a truncated value
        for t in (0.3 + 1e-10j, 1e-12j):
            with pytest.raises(QuadratureNonConvergence):
                nonholomorphic_correction(t)
        # these take 856 and 1215 terms; cut off at 400 they sit 3.0e-5 and
        # 6.4e-3 from the period integral
        for t in (0.3 + 2e-5j, 0.3 + 1e-5j):
            assert abs(nonholomorphic_correction(t) - correction_period_integral(t)) < 1e-10
        # at Im tau = 1e-3 the sum settles and agrees with the integral
        t = 0.3 + 1e-3j
        assert abs(nonholomorphic_correction(t) - correction_period_integral(t)) < 1e-12

    def test_large_imaginary_part(self):
        # e^{-i pi tau k^2} overflows where erfc has underflowed to 0
        for t in (0.1 + 40j, -0.3 + 150j):
            ref = correction_fixed(t)
            assert abs(nonholomorphic_correction(t) - ref) <= 1e-12 * abs(ref)


class TestCompletion:
    def test_transformation_laws(self):
        z, t = 0.23 + 0.11j, 0.07 + 1.1j
        mh = lerch_completion(z, t)
        assert abs(lerch_completion(z, t + 1) - cmath.exp(-0.25j * math.pi) * mh) < 1e-10
        assert abs(mh + cmath.sqrt(1j / t) * lerch_completion(z / t, -1 / t)) < 1e-9
        assert abs(lerch_completion(z + 1, t) - mh) < 1e-10
        assert abs(lerch_completion(z + t, t) - mh) < 1e-10

    def test_large_imaginary_part(self):
        # theta_11(z) is ~e^{-pi Im tau / 4} here: an absolute pole guard fires
        z, t = 0.3 + 0.1j, 0.1 + 40j
        ref = completion_fixed(z, t)
        assert abs(lerch_completion(z, t) - ref) <= 1e-12 * abs(ref)
        assert abs(lerch_sum(z, t) - lerch_sum_fixed(z, t)) <= 1e-12 * abs(ref)

    @settings(max_examples=40, deadline=None)
    @given(t=ORACLE_TAU, zr=STRIP_Z)
    def test_reduced_evaluation_matches_fixed_range_sums(self, t, zr):
        z = _strip_point(zr, t)
        scale = lerch_rounding_scale(z, t) + abs(correction_fixed(t))
        assert abs(lerch_completion(z, t) - completion_fixed(z, t)) <= 1e-12 * scale


# Reduced Im tau 40 and 670, with Im z at 0, +-0.2 and +-0.45 Im tau and at
# the half-periods.  At Im z = 0.45 * 670 the factor y = e^{2 pi i z} is
# e^{-1894}, which underflows: a kernel that forms 1/y as a factor of its own
# divides by zero there.  At Im z = 0.2 * 670 = 134, y = e^{-842} underflows
# too, but mu ~ q^{-1/8} y = e^{526 - 842} is a double: a kernel that carries
# y inside the Appell sum's scale returns 0 there.  At Im z = 115,
# y = e^{-723} is subnormal and carries only a few digits.
EXTREME_POINTS = [(z, t) for t in (0.1 + 40j, 0.2 + 670j)
                  for z in (0.3 + 0j, complex(0.3, 0.2 * t.imag), complex(0.3, -0.2 * t.imag),
                            complex(0.3, 0.45 * t.imag), complex(0.3, -0.45 * t.imag),
                            0.5 + 0j, 0.5 * (1.0 + t), 0.5 * t)]
EXTREME_POINTS.append((0.3 + 115j, 0.2 + 670j))


class TestLerchExtremePoints:
    @pytest.mark.parametrize("z, t", EXTREME_POINTS)
    def test_against_fixed_range_sums(self, z, t):
        # mu is even, and the oracle's own terms overflow for Im z < 0
        zo = -z if z.imag < 0 else z
        ref = lerch_sum_fixed(zo, t)
        assert abs(lerch_sum(z, t) - ref) <= 1e-12 * abs(ref)
        ref = completion_fixed(zo, t)
        assert abs(lerch_completion(z, t) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("z, t", EXTREME_POINTS)
    def test_through_the_s_law(self, z, t):
        # tau' = -1/tau (Im tau' ~ 6e-4 and 1.5e-3) and z' = z tau', which the
        # walk reduces back to (z, tau): mu_hat(z'; tau') = -sqrt(i/tau') mu_hat(z; tau)
        zo = -z if z.imag < 0 else z
        t_in = -1.0 / t
        expected = -cmath.sqrt(1j / t_in) * completion_fixed(zo, t)
        assert abs(lerch_completion(z * t_in, t_in) - expected) <= 1e-10 * abs(expected)

    def test_subnormal_band_through_the_s_law(self):
        # tau = 0.0015i walks to tau' = 666.7i and z' = z/tau ~ 0.067 - 133.3i,
        # where mu_hat ~ e^{524 - 838} is small but a double
        z, t = 0.2 + 1e-4j, 0.0015j
        expected = -cmath.sqrt(1j / t) * completion_fixed(-z / t, -1.0 / t)
        got = lerch_completion(z, t)
        assert got != 0 and abs(got - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("t", (0.2 + 670j, 1e4j, -1.0 / (0.2 + 670j), 1e-4j))
    def test_only_typed_errors_escape(self, t):
        # on the lattice (a pole), past a double (|mu| ~ e^{pi Im tau / 4} at
        # reduced Im tau 1e4) or anywhere else, a call returns a finite value
        # or raises a MockformsError; never ZeroDivisionError or OverflowError
        v = t.imag
        for z in (0j, t, 1.0 + 0j, 0.3 + 0j, complex(0.3, 0.45 * v), complex(0.3, -0.45 * v),
                  complex(0.3, 0.5 * v), 0.5 + 0j, 0.5 * (1.0 + t), 0.5 * t, complex(1e-9, 0.45 * v)):
            for f in (lerch_sum, lerch_completion):
                try:
                    value = f(z, t)
                except MockformsError:
                    continue
                assert cmath.isfinite(value)


class TestBesselHalf:
    # the half-integer closed forms, called by kind as bessel_half("I" | "I_three_half" | "J") did
    KINDS = {"I": bessel_i_half, "I_three_half": bessel_i_three_half, "J": bessel_j_half}

    def test_small_argument_law(self):
        x = 1e-4
        assert bessel_i_half(x) * math.gamma(1.5) * (2.0 / x) ** 0.5 == pytest.approx(1.0, rel=1e-6)

    def test_reference_combination(self):
        assert 4 * math.pi / 15 ** 0.25 * bessel_i_half(math.pi * math.sqrt(15) / 2) \
            == pytest.approx(453.018, abs=0.01)

    def test_overflow_is_typed(self):
        # sinh and cosh leave the double range just above x = 710.47; sin never does
        for kind in ("I", "I_three_half"):
            assert math.isfinite(self.KINDS[kind](710.0))
            with pytest.raises(BesselOverflow):
                self.KINDS[kind](800.0)
        assert math.isfinite(self.KINDS["J"](800.0))

    def test_guards(self):
        for bessel in self.KINDS.values():
            with pytest.raises(NonPositiveArgument):
                bessel(-1.0)


# Points where a massless sum form's denominator vanishes past the centre
# term: (ell, sector, z, tau) and the term whose 1 - u (ell = 0) or 1 + u
# (ell = 1/2) is 0, counted from the first term of its chain
IN_CHAIN_POLES = {
    "compact_first": (F(0), "Rtilde", lambda t: -t, 0.1 + 0.8j),  # m = 1
    "compact_second": (F(0), "Rtilde", lambda t: -2 * t, 0.1 + 0.05j),  # m = 2
    "half_first": (F(1, 2), "R", lambda t: 0.5 - t, 0.1 + 0.8j),  # m = 1, eps = 1
    "half_third": (F(1, 2), "R", lambda t: 0.5 - 3 * t, 0.2 + 0.1j),  # m = 3, eps = 1
}


class TestCharacters:
    @pytest.mark.parametrize("ell, sector, z, t", IN_CHAIN_POLES.values(), ids=IN_CHAIN_POLES.keys())
    def test_pole_past_the_centre_term_raises(self, ell, sector, z, t):
        # the chains' own guard, not the centre term's ("at m = 0, ...")
        with pytest.raises(PoleAtArgument, match="^massless denominator vanishes at [zw] = "):
            superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), ell, sector), z(t), t)

    def test_sum_form_equals_mu_form(self):
        for z in ZS:
            for t in (0.1 + 1.3j, 0.35 + 1.8j):
                a = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0), z, t)
                b = superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), 0), z, t)
                assert abs(a - b) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(t=SMALL_TAU, zr=STRIP_Z)
    def test_sum_form_equals_mu_form_at_small_im_tau(self, t, zr):
        # The sum form is i theta_11(z)^2 / (theta_11(2z) eta^3) times its own
        # q-series at tau, sum_m q^{2m^2} y^{4m} (1 + y q^m)/(1 - y q^m), which
        # can cancel to far below its terms here (to 1e-35 of them at some
        # points), so it is checked to the rounding of that series.
        z = _strip_point(zr, t)
        terms = [cmath.exp(1j * math.pi * (4.0 * t * m * m + 8.0 * m * z))
                 * (1.0 + cmath.exp(2j * math.pi * (z + t * m))) / (1.0 - cmath.exp(2j * math.pi * (z + t * m)))
                 for m in range(-200, 201)]
        log_rounding = math.log(1e-13 * _abs_sum(terms)) + 2.0 * math.log(abs(jacobi_theta("11", z, t))) \
            - math.log(abs(jacobi_theta("11", 2.0 * z, t))) - 3.0 * math.log(abs(dedekind_eta(t)))
        if log_rounding > 650.0:
            # the rounding of the series alone may be past a double (near
            # Im tau = 1e-3 the character itself reaches e^{732}), so either
            # form may raise ValueOverflow and there is nothing to compare
            return
        a = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0), z, t)
        b = superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), 0), z, t)
        assert abs(a - b) <= 1e-9 * abs(b) + math.exp(log_rounding)

    # Both massless sum forms at small Im tau, z = 0.13 + 0.2 i Im tau, the
    # isospin-1/2 form in the Ramond sector (its literal argument is z).
    # Reference values: mpmath at 120 digits, every theta, eta and q-series
    # summed literally (the same 20 digits with 20 % more terms), at the exact
    # binary values of the double inputs:
    #     mp.mp.dps = 120
    #     z, t, h = mp.mpc(0.13, 2e-4), mp.mpc(0.3, 1e-3), mp.mpf(1) / 2
    #     theta = lambda c, w: mp.fsum(mp.exp(1j * mp.pi * (t * (k + c) ** 2 + 2 * (k + c) * w))
    #                                  for k in range(-1800, 1801))
    #     eta = mp.fsum((-1) ** k * mp.exp(2j * mp.pi * t * mp.mpf((6 * k - 1) ** 2) / 24)
    #                   for k in range(-1800, 1801))
    #     y, q = mp.exp(2j * mp.pi * z), mp.exp(2j * mp.pi * t)
    #     compact = 1j * theta(h, z + h) ** 2 / (theta(h, 2 * z + h) * eta ** 3) * mp.fsum(
    #         q ** (2 * m * m) * y ** (4 * m) * (1 + y * q ** m) / (1 - y * q ** m) for m in range(-450, 451))
    #     half = 1j * theta(h, z) ** 2 / (theta(h, 2 * z + h) * eta ** 3) * mp.fsum(
    #         e * mp.exp(4j * mp.pi * e * z * (2 * m + h)) * q ** (2 * m * m + m)
    #         / (1 + mp.exp(-2j * mp.pi * e * z) * q ** -m) ** 2 for e in (1, -1) for m in range(-450, 451))
    # (600 and 150 at Im tau = 1e-2, 5800 and 1400 at 1e-4).  The bounds are
    # three times the error measured when they were set (compact 3.6e-15,
    # 1.3e-14, 2.1e-13; half 3.8e-15, 1.9e-14, 1.2e-13).
    @pytest.mark.parametrize("ell, t, expected, bound", [
        (0, 0.3 + 1e-2j, -0.67693873355378411294 - 0.74902426313091206764j, 3 * 3.6e-15),
        (0, 0.3 + 1e-3j, -36.187063778348984655 - 44.808757287261097149j, 3 * 1.3e-14),
        (0, 0.3 + 1e-4j, -8.9459510978679841813e21 - 1.0946163650957133748e22j, 3 * 2.1e-13),
        (F(1, 2), 0.3 + 1e-2j, 1.1022111988071402207 + 2.2615022420921036329j, 3 * 3.8e-15),
        (F(1, 2), 0.3 + 1e-3j, 56.110551101390001665 + 76.520108639320978829j, 3 * 1.9e-14),
        (F(1, 2), 0.3 + 1e-4j, 1.4039952333203288244e22 + 1.8786414982280339937e22j, 3 * 1.2e-13),
    ], ids=("compact_im_tau_1e-2", "compact_im_tau_1e-3", "compact_im_tau_1e-4",
            "half_im_tau_1e-2", "half_im_tau_1e-3", "half_im_tau_1e-4"))
    def test_sum_forms_small_im_tau(self, ell, t, expected, bound):
        sector = "Rtilde" if ell == 0 else "R"
        got = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), ell, sector),
                                       complex(0.13, 0.2 * t.imag), t)
        assert abs(got - expected) <= bound * abs(expected)

    def test_sum_form_settles_below_im_tau_8e_5(self):
        # the sum form's budget follows Im tau; a fixed 200 terms ran out here
        z, t = 0.23 + 1.8e-5j, 0.3 + 6e-5j
        a = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0), z, t)
        b = superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), 0), z, t)
        assert abs(a - b) <= 1e-9 * abs(b)

    # Far outside the strip |Im z| <= 0.4 Im tau that the benchmark's points
    # cover: the counts grow by |Im z| / Im tau, and both sum forms still
    # agree with the mu form and with the recursion identity
    @pytest.mark.parametrize("ratio", (-5.0, -2.0, 2.0, 5.0))
    @pytest.mark.parametrize("t", (0.1 + 1.1j, -0.2 + 0.3j, 0.3 + 0.01j))
    def test_sum_forms_far_from_the_strip(self, t, ratio):
        z = complex(0.23, ratio * t.imag)
        zero = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0), z, t)
        half = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), F(1, 2)), z, t)
        mu = superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), 0), z, t)
        assert abs(zero - mu) <= 1e-9 * abs(mu)
        th = jacobi_theta("11", z, t)
        rhs = cmath.exp(-0.25j * math.pi * t) * th * th / dedekind_eta(t) ** 3
        assert abs(half + 2 * zero - rhs) <= 1e-9 * abs(rhs)

    # At large Im tau with Im z = +-Im tau / 2 (the NS sector's shift of a
    # real z) the term next to the centre is as large as the centre term, and
    # at Im z = 4.25, Im tau = 10 the first term past a bound in units of the
    # peak over real m is 6.5e-9 of it: the counts keep both, and both sum
    # forms agree with the mu form and the recursion identity.  Sectors shift
    # z by const + tau_coeff * tau.
    @pytest.mark.parametrize("sector, ratio", (("NS", 0.0), ("NS", 0.01), ("Rtilde", 0.5), ("Rtilde", -0.5),
                                               ("Rtilde", 0.425), ("R", 0.5)))
    @pytest.mark.parametrize("t", (10j, 14j, 0.3 + 10j, 0.1 + 14j))
    def test_sum_forms_at_large_im_tau(self, t, sector, ratio):
        z = complex(0.23, ratio * t.imag)
        zero = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0, sector), z, t)
        half = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), F(1, 2), sector), z, t)
        mu = superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), 0, sector), z, t)
        assert abs(zero - mu) <= 1e-9 * abs(mu)
        const, tau_coeff = {"NS": (-0.5, -0.5), "Rtilde": (0.0, 0.0), "R": (0.5, 0.0)}[sector]
        th = jacobi_theta("11", z + const + tau_coeff * t, t)  # the point in the tilded-Ramond sector
        rhs = cmath.exp(-0.25j * math.pi * t) * th * th / dedekind_eta(t) ** 3
        assert abs(half + 2 * zero - rhs) <= 1e-9 * abs(rhs)

    # Past Im tau = 226 with Im z = -Im tau / 2 in the tilded-Ramond sector the
    # compact form's peak over real m is past a double, but no term is larger
    # than 1, and y = e^{2 pi i z} would be: the form returns its value
    @pytest.mark.parametrize("sector, z", (("NS", 0.23), ("Rtilde", 0.23 - 150j), ("Rtilde", 0.23 + 120j)))
    def test_compact_sum_form_at_im_tau_300(self, sector, z):
        t = 0.2 + 300j
        zero = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0, sector), z, t)
        mu = superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), 0, sector), z, t)
        assert abs(zero - mu) <= 1e-9 * abs(mu)

    # mu alone underflows here (y = e^{2 pi i w} at Im w = 170 and 900) while
    # theta_11^2 / eta^3 is past a double: their logs add before one exp, so
    # the mu form meets the sum form (it returned 0j while mu was scaled alone)
    @pytest.mark.parametrize("sector, z, t", (("NS", 0.23, 340j), ("Rtilde", 0.23 + 400j, 1000j)))
    def test_mu_form_where_mu_alone_underflows(self, sector, z, t):
        zero = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0, sector), z, t)
        mu = superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), 0, sector), z, t)
        assert abs(mu) > 0.2 and abs(zero - mu) <= 1e-9 * abs(mu)

    # The sum forms' terms pass a double (a Gaussian peak e^{4 pi (Im z)^2 / Im tau}
    # of e^{11310} at Im z = +-30, e^{1018} at Im z = 0.9): they raise
    # ValueOverflow, never an untyped error.  At the last point the mu form
    # still returns 1.58e220 + 2.30e220i, but the sum forms' terms pass e^{709}.
    @pytest.mark.parametrize("z, t", ((0.1 + 30j, 1j), (0.1 - 30j, 1j), (0.1 + 0.9j, 0.3 + 0.01j)),
                             ids=("im_z_30", "im_z_-30", "peak_at_m_90"))
    @pytest.mark.parametrize("ell", (0, F(1, 2)), ids=("compact", "half"))
    def test_sum_forms_past_a_double_raise_value_overflow(self, ell, z, t):
        with pytest.raises(ValueOverflow, match="^massless character sum exceeds the range of a double"):
            superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), ell), z, t)

    def test_recursion_identity(self):
        for z in ZS:
            t = 0.1 + 1.3j
            half = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), F(1, 2)), z, t)
            zero = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0), z, t)
            th = jacobi_theta("11", z, t)
            rhs = cmath.exp(-0.25j * math.pi * t) * th * th / dedekind_eta(t) ** 3
            assert abs(half + 2 * zero - rhs) < 1e-9

    def test_massive_closed_form(self):
        z, t = 0.21 + 0.05j, 0.1 + 1.3j
        th = jacobi_theta("11", z, t)
        for n in (1, 2, 7):
            got = superconformal_character(CharSpec("massive", 1, F(1, 4) + n, F(1, 2)), z, t)
            expected = cmath.exp(2j * math.pi * t * (n - 0.125)) * th * th / dedekind_eta(t) ** 3
            assert abs(got - expected) < 1e-10 * abs(expected) + 1e-12

    def test_charspec_validation(self):
        with pytest.raises(UnsupportedSpec):
            CharSpec("massive", 1, F(1, 4), F(1, 2))  # h not above the bound
        with pytest.raises(UnsupportedSpec):
            CharSpec("massless_sum_form", 1, F(1, 4), F(3, 4))  # off-lattice isospin
        with pytest.raises(UnsupportedSpec):
            CharSpec("massless_sum_form", 1, F(1, 2), 0)  # wrong weight
        with pytest.raises(UnsupportedSpec):
            superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), F(1, 2)), 0.2, 1.2j)  # isospin 0 only
        # level 1 only: the constructor refuses every other level
        with pytest.raises(UnsupportedSpec):
            CharSpec("massless_mu_form", 2, F(1, 2), 0)
        with pytest.raises(UnsupportedSpec):
            CharSpec("massive", 2, F(3, 2), 1)
        with pytest.raises(UnsupportedSpec):
            CharSpec("massless_sum_form", 0, F(0), 0)

    # The massive character q^{n - 1/8} theta_10(w)^2 / eta^3 at small Im tau,
    # where the walk to the reduced point loses digits as Im tau falls.  w is
    # z + 1/2 in the tilded-Ramond sector and z in the Ramond sector.
    # Reference values: mpmath at 300 digits, theta_10 and eta summed
    # literally over |k| <= 1500 (4000 at Im tau = 1e-5; the same 20 digits
    # with 20 % more terms), at the exact binary values of the double inputs:
    #     mp.mp.dps = 300
    #     z, t = mp.mpc(0.13, 0.01), mp.mpc(0.3, 1e-3)
    #     w, n, h = z + mp.mpf(1) / 2, 1, mp.mpf(1) / 2
    #     th = mp.fsum(mp.exp(1j * mp.pi * (t * (k + h) ** 2 + 2 * (k + h) * w)) for k in range(-1500, 1500))
    #     eta = mp.fsum((-1) ** m * mp.exp(2j * mp.pi * t * mp.mpf((6 * m + 1) ** 2) / 24) for m in range(-1500, 1501))
    #     mp.exp(2j * mp.pi * t * (n - mp.mpf(1) / 8)) * th ** 2 / eta ** 3
    # The bounds are three times the error measured when they were set
    # (1.6e-13, 7.9e-12, 1.9e-9 at the three Im tau, in both sectors).
    @pytest.mark.parametrize("sector, n, t, expected, bound", [
        ("Rtilde", 1, 0.3 + 1e-3j, -12.020147475549500387 + 36.994208440648187242j, 3 * 1.6e-13),
        ("Rtilde", 1, 0.3 + 1e-4j, 2.1422472880719899079e24 - 1.5564337603099815633e24j, 3 * 7.9e-12),
        ("Rtilde", 1, 0.3 + 1e-5j, 1.3786086459992584643e257 - 1.0016178121891817331e257j, 3 * 1.9e-9),
        ("R", 5, 0.3 + 1e-3j, -37.93258163128069851 + 4.6988627560765044556e-7j, 3 * 1.6e-13),
        ("R", 5, 0.3 + 1e-4j, 2.1368699935566089913e24 + 1.5525269271159416279e24j, 3 * 7.9e-12),
        ("R", 5, 0.3 + 1e-5j, 1.3782622087185173956e257 + 1.0013661079821210649e257j, 3 * 1.9e-9),
    ], ids=("Rtilde_n1_im_tau_1e-3", "Rtilde_n1_im_tau_1e-4", "Rtilde_n1_im_tau_1e-5",
            "R_n5_im_tau_1e-3", "R_n5_im_tau_1e-4", "R_n5_im_tau_1e-5"))
    def test_massive_small_im_tau(self, sector, n, t, expected, bound):
        got = superconformal_character(CharSpec("massive", 1, F(1, 4) + n, F(1, 2), sector), 0.13 + 0.01j, t)
        assert abs(got - expected) <= bound * abs(expected)

    def test_massive_has_no_pole_at_theta11_2z_zero(self):
        # theta_11(2w) vanishes at w = 0, where the massive character is finite
        t = 1.2j
        got = superconformal_character(CharSpec("massive", 1, F(5, 4), F(1, 2), "R"), 0.0, t)
        expected = cmath.exp(2j * math.pi * t * 0.875) * jacobi_theta("10", 0.0, t) ** 2 / dedekind_eta(t) ** 3
        assert abs(got - expected) < 1e-12 * abs(expected)

    def test_ramond_sector_uses_theta10(self):
        # R-sector massive character carries [theta_10]^2: check via the flow shift
        z, t = 0.17 + 0.04j, 1.25j
        r_char = superconformal_character(CharSpec("massive", 1, F(5, 4), F(1, 2), "R"), z, t)
        th10 = jacobi_theta("10", z, t)
        expected = cmath.exp(2j * math.pi * t * (1 - 0.125)) * th10 * th10 / dedekind_eta(t) ** 3
        assert abs(r_char - expected) < 1e-10 * abs(expected) + 1e-12


class TestEllipticGenus:
    def test_euler_characteristic(self):
        for t in TAUS:
            assert abs(elliptic_genus("k3", 0.0, t) - 24.0) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(t=SMALL_TAU)
    def test_euler_characteristic_at_small_im_tau(self, t):
        assert abs(elliptic_genus("k3", 0.0, t) - 24.0) <= 24.0 * 1e-12

    def test_unknown_variant(self):
        for variant in ("a1", "K3"):
            with pytest.raises(UnknownName):
                elliptic_genus(variant, 0.17, 1.1j)

    def test_against_direct_theta_oracle(self):
        z, t = 0.17, 1.1j
        parts = [(theta_sum(lab, z, t) / theta_sum(lab, 0.0, t)) ** 2 for lab in ("10", "00", "01")]
        assert abs(elliptic_genus("k3", z, t) - 8.0 * sum(parts)) < 1e-12


class TestLerchDifference:
    def test_vanishes_on_diagonal(self):
        assert lerch_difference(0.23 + 0.11j, 0.23 + 0.11j, 1.2j) == 0

    def test_half_period_squares(self):
        z = 0.23 + 0.11j
        for t in (0.07 + 1.1j, 1.4j):
            for label, w in (("10", 0.5), ("00", (1 + t) / 2), ("01", t / 2)):
                quotient = (jacobi_theta(label, z, t) / jacobi_theta(label, 0.0, t)) ** 2
                assert abs(lerch_difference(z, w, t) - quotient) < 1e-9

    @pytest.mark.parametrize("t", (0.3 + 1e-3j, 0.1 + 1.1j), ids=("off_domain", "in_domain"))
    def test_correction_is_not_summed(self, monkeypatch, t):
        # R depends only on tau, so mu(z) - mu(w) = mu_hat(z) - mu_hat(w),
        # the walk's factor times mu(z') - mu(w') at the reduced point: no R
        def refuse(tau):
            raise AssertionError(f"R summed at tau = {tau}")

        monkeypatch.setattr(analytic, "nonholomorphic_correction", refuse)
        z, w = 0.13 + 0.01j, 0.37 + 0.02j
        value = lerch_difference(z, w, t)
        monkeypatch.undo()
        mu_difference = value * dedekind_eta(t) ** 3 / jacobi_theta("11", z, t) ** 2
        scale = abs(lerch_sum(z, t)) + abs(lerch_sum(w, t))
        assert abs(mu_difference - (lerch_sum(z, t) - lerch_sum(w, t))) <= 1e-9 * scale


# Each public entry point with a valid call, and the walks it may take
ONE_WALK = {
    "jacobi_theta": lambda t: jacobi_theta("01", 0.2, t),
    "dedekind_eta": dedekind_eta,
    "lerch_sum": lambda t: lerch_sum(0.2 + 0.1 * t.imag * 1j, t),
    "lerch_completion": lambda t: lerch_completion(0.2, t),
    "lerch_difference": lambda t: lerch_difference(0.2, 0.3, t),
    "massive": lambda t: superconformal_character(CharSpec("massive", 1, F(5, 4), F(1, 2), "NS"), 0.2, t),
    "massless_mu_form": lambda t: superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), 0), 0.2, t),
    "massless_compact": lambda t: superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0), 0.2, t),
    "massless_half": lambda t: superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), F(1, 2)), 0.2, t),
    "elliptic_genus": lambda t: elliptic_genus("k3", 0.2, t),
    "multiplicity_completion": multiplicity_completion,
    "recursion_identity": lambda t: identity_check("recursion", 0.2, t),  # eta^3 from the record too
}


class TestOneWalk:
    @pytest.mark.parametrize("t", (0.3 + 0.01j, 0.1 + 1.2j), ids=("off_domain", "in_domain"))
    @pytest.mark.parametrize("entry", ONE_WALK.values(), ids=ONE_WALK.keys())
    def test_each_call_walks_once(self, monkeypatch, entry, t):
        # every theta, eta and Lerch sum of a call shares the word kept in
        # tau's record, and a second call at tau walks no more
        walked = []
        reduce = analytic._reduce

        def counted(tau):
            walked.append(tau)
            return reduce(tau)

        monkeypatch.setattr(analytic, "_reduce", counted)
        monkeypatch.setattr(analytic, "_records", {})
        entry(t)
        assert walked == [t]
        entry(t)
        assert walked == [t]

    @pytest.mark.parametrize("t", (0.4995130237654672 + 1e-3j, -0.4940966525081438 + 5e-3j, 1000.3 + 0.02j, 2.7j))
    def test_walk_ends_in_the_fundamental_domain(self, t):
        # the word's last point is reduced, and each step's point is the one
        # before it mapped by -1/s - n (s + n, for the first)
        steps = analytic._reduce(t)
        n, s = steps[0]
        assert s + n == t
        for (_, before), (n, s) in zip(steps, steps[1:]):
            assert abs(s - (-1.0 / before - n)) <= 1e-12 * abs(1.0 / before)
        assert abs(steps[-1][1].real) <= 0.5 and abs(steps[-1][1]) >= 1.0 - 1e-9


class TestDeterminism:
    def test_evaluations_reproduce_bit_for_bit(self):
        z, t = 0.23 + 0.11j, 0.07 + 1.1j
        assert jacobi_theta("11", z, t) == jacobi_theta("11", z, t)
        assert dedekind_eta(t) == dedekind_eta(t)
        assert lerch_sum(z, t) == lerch_sum(z, t)
        assert nonholomorphic_correction(t) == nonholomorphic_correction(t)


def record_digest_calls() -> list:
    """Seeded public calls that read tau's record, as thunks, over (z, tau) points with +-0.0 real parts too."""
    rng = random.Random("tau-record-digest")
    points = []
    for _ in range(24):
        v = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
        points.append((complex(rng.uniform(0.05, 0.45), v * rng.uniform(-0.4, 0.4)), complex(rng.uniform(-0.5, 0.5), v)))
    points += [(complex(0.0, 0.1), complex(0.0, 0.7)), (complex(-0.0, 0.1), complex(-0.0, 0.7)),
               (complex(-0.0, -0.05), complex(0.0, 1.3)), (complex(0.0, 0.02), complex(-0.0, 0.05)),
               (0j, 0.1 + 0.8j), (-0.1 - 0.8j, 0.1 + 0.8j)]  # poles: on the lattice, and in a sum form's chain
    specs = [CharSpec(kind, 1, h, ell, sector) for kind, h, ell in CHARACTER_KINDS.values() for sector in ("Rtilde", "NS")]
    calls = []
    for z, t in points:
        calls += [lambda z=z, t=t, label=label, w=w: jacobi_theta(label, w, t)
                  for label in ("11", "10", "00", "01") for w in (z, 0.0)]
        calls += [lambda z=z, t=t, s=s: lerch_completion(z, t + s) for s in (0, 1)]
        calls += [lambda z=z, t=t, v=v: elliptic_genus(v, z, t) for v in ("k3", "decompactified")]
        calls += [lambda z=z, t=t, spec=spec: superconformal_character(spec, z, t) for spec in specs]
        calls += [lambda t=t, u=u: multiplicity_completion(u(t)) for u in (lambda t: t, lambda t: -1 / t, lambda t: t + 1)]
        calls += [lambda t=t: dedekind_eta(t), lambda z=z, t=t: lerch_sum(z, t),
                  lambda z=z, t=t: lerch_difference(z, 0.3, t)]
    return calls


def outcome(call) -> str:
    try:
        return repr(call())
    except MockformsError as error:
        return f"{type(error).__name__}: {error}"


def digest(outcomes: list) -> str:
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()


def tables_within_bounds() -> bool:
    """Whether at most _RECORDS records are kept, each with at most _VALUES entries per table."""
    return len(analytic._records) <= analytic._RECORDS and all(
        len(rec.thetas) <= analytic._VALUES and len(rec.reduced) <= analytic._VALUES for rec in analytic._records.values())


class TestRecord:
    """The record per tau (analytic._record): what every evaluation at tau needs that depends on tau alone."""

    # recorded before the record existed, when every call walked on its own
    DIGEST = "1f5d755855ac109879967b5ba600d408061d205ac7eed41118ef82cbb39c6284"

    def test_empty_warm_and_reversed_tables_give_the_recorded_values(self, monkeypatch):
        calls = record_digest_calls()
        monkeypatch.setattr(analytic, "_records", {})
        assert digest([outcome(call) for call in calls]) == self.DIGEST
        # warm: each call after the same call has filled tau's record
        assert digest([outcome(call) for call in calls for _ in range(2)][1::2]) == self.DIGEST
        assert digest([outcome(call) for call in reversed(calls)][::-1]) == self.DIGEST

    def test_threads_read_and_grow_the_table_safely(self, monkeypatch):
        # the entry points share the table, and only _kept holds the lock:
        # eight threads over the same few tau, switching every microsecond,
        # must each get the one-thread values and keep every bound
        calls = record_digest_calls()
        expected = [outcome(call) for call in calls]
        monkeypatch.setattr(analytic, "_records", {})
        results = {}

        def worker(k):
            order = list(range(len(calls)))
            random.Random(k).shuffle(order)
            results[k] = {i: outcome(calls[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all([got[i] for i in range(len(calls))] == expected for got in results.values()) and len(results) == 8
        assert tables_within_bounds()

    def test_import_leaves_the_table_empty(self):
        # checked in a fresh interpreter, not this one
        src = str(Path(analytic.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import mockforms; "
                "from mockforms import analytic; print(len(analytic._records))")
        result = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0"]

    def test_the_table_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(analytic, "_records", {})
        for k in range(3 * analytic._RECORDS):
            t = complex(0.1, 0.5 + 0.1 * k)
            for j in range(3 * analytic._VALUES):
                lerch_completion(complex(0.01 * j, 0.1), t)
                rec = analytic._record(t)
                assert len(rec.thetas) <= analytic._VALUES and len(rec.reduced) <= analytic._VALUES
            assert len(analytic._records) <= analytic._RECORDS

    RAISING = {
        "unknown_label": lambda t: jacobi_theta("xx", 0.2, t),
        "unknown_variant": lambda t: elliptic_genus("nope", 0.2, t),  # raised after the thetas
        "lerch_pole": lambda t: lerch_completion(0.0, t),
        "mu_form_pole": lambda t: superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), 0), 0.0, t),
        "theta_overflow": lambda t: jacobi_theta("00", 1e300j, t),  # raised by _scaled after the theta
        "in_chain_pole": lambda t: superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0), -t, t),
    }

    # a warm call that keeps mu_hat and R at the reduced point, and one that keeps a theta
    WARM = {"mu_hat_only": lambda t: lerch_completion(0.3, t), "theta": lambda t: jacobi_theta("01", 0.3, t)}

    @pytest.mark.parametrize("t", (1j, 0.1 + 0.8j, 0.3 + 0.01j), ids=("reduced", "one_inversion", "small_im_tau"))
    @pytest.mark.parametrize("warm", WARM.values(), ids=WARM.keys())
    @pytest.mark.parametrize("call", RAISING.values(), ids=RAISING.keys())
    def test_a_call_that_raises_leaves_only_exact_values(self, monkeypatch, call, warm, t):
        # what a call kept before it raised is a pure function of its exact
        # key: the same error follows on a cold and on a warm table, and the
        # warm call's value is the one an empty table gives, bit for bit
        monkeypatch.setattr(analytic, "_records", {})
        expected = repr(warm(t))
        monkeypatch.setattr(analytic, "_records", {})
        with pytest.raises(MockformsError) as cold:
            call(t)
        assert repr(warm(t)) == expected
        with pytest.raises(MockformsError) as again:
            call(t)
        assert (type(again.value), str(again.value)) == (type(cold.value), str(cold.value))
        assert repr(warm(t)) == expected
        assert tables_within_bounds()

    def test_decomposition_builds_each_theta_once(self, monkeypatch):
        # the genus's three theta constants and theta_label(z), theta_11 at
        # z and 2z for the isospin-0 form, theta_11(2w) and theta_10(w) at the
        # R-sector w for the isospin-1/2 form; the twelve massive characters
        # read the latter theta_10(w) (22 sums when each call walked alone)
        sums = count_theta00_sums(monkeypatch)
        assert decomposition_residual(0.2, 1.5j, 12) < 1e-6
        assert len(sums) == 10

    def test_genus_over_a_z_grid_builds_the_theta_constants_once(self, monkeypatch):
        # theta_label(z) for three labels per z, the three constants once
        # (six sums per z when each call walked alone)
        sums = count_theta00_sums(monkeypatch)
        t = 0.1 + 0.05j
        for k in range(8):
            elliptic_genus("k3", complex(0.05 * k, 0.01), t)
        assert len(sums) == 3 * 8 + 3


def count_theta00_sums(monkeypatch) -> list:
    """The arguments of each theta_00 kernel call from here on, with an empty table."""
    sums = []
    kernel = analytic._theta00_sum

    def counted(*args):
        sums.append(args)
        return kernel(*args)

    monkeypatch.setattr(analytic, "_theta00_sum", counted)
    monkeypatch.setattr(analytic, "_records", {})
    return sums


# The reduced point with the smallest Im tau (|tau| = 1, Re tau = 1/2): where
# the counted kernels (theta_00, the Lerch sum, R at the reduced point) need
# the most terms.  R is also summed at tau itself, by lerch_sum off the
# fundamental domain; Im tau = 1e-3 is the smallest of the benchmark's points.
RHO = complex(0.5, math.sqrt(3.0) / 2.0)
SMALL = 0.3 + 1e-3j


def _t_n(n: int, z: complex, t: complex) -> complex:
    """t_n = (-1)^n q^{n(n+1)/2} y^n, one exp."""
    return (-1) ** n * cmath.exp(2j * math.pi * (t * (n * (n + 1) // 2) + n * z))


def _far_im_z(v: float) -> float:
    """The |Im z| where a massless sum form's Gaussian peak e^{4 pi (Im z)^2 / v} reaches a double's range."""
    return math.sqrt(math.log(sys.float_info.max) * v / (4.0 * math.pi))


def _log_abs_one_plus(sign: float, e: complex) -> float:
    """log |1 + sign e^e|, without forming an e^e past a double."""
    if e.real <= 0.0:
        return math.log(abs(1.0 + sign * cmath.exp(e)))
    return e.real + math.log(abs(1.0 + sign * cmath.exp(-e)))


def _log_compact_term(m: int, z: complex, t: complex) -> float:
    """log |q^{2m^2} y^{4m} (1 + y q^m)/(1 - y q^m)|, term m of the compact form."""
    u = 2j * math.pi * (z + m * t)
    return ((2j * math.pi * (2 * m * m * t + 4 * m * z)).real
            + _log_abs_one_plus(1.0, u) - _log_abs_one_plus(-1.0, u))


def _log_half_terms(k: int, w: complex, t: complex) -> list[float]:
    """log |term| of the half form's terms m = k and m = -k, both eps, for k >= 0 (m = 0 once).

    With Y = e^{2 pi i eps w}, term m = k > 0 is eps Y^{4k+3} q^{2k^2+3k} / (1 + Y q^k)^2
    and term m = -k <= 0 is eps Y^{1-4k} q^{2k^2-k} / (1 + Y^{-1} q^k)^2.
    """
    logs = []
    for eps in (1, -1):
        x = eps * w
        rows = ((1 - 4 * k, 2 * k * k - k, -1),) + (((4 * k + 3, 2 * k * k + 3 * k, 1),) if k else ())
        for power, q_power, sign in rows:
            num = (2j * math.pi * (x * power + t * q_power)).real
            logs.append(num - 2.0 * _log_abs_one_plus(1.0, 2j * math.pi * (sign * x + t * k)))
    return logs


class TestTruncation:
    # theta_00, the Lerch sum, R and the massless sum forms each sum a term
    # count from a tail bound (_theta_count, _lerch_count, _correction_count,
    # _massless_count), and no term is compared with the sum it joins.  Each
    # bound is checked at its first omitted term, and by twice the count
    # moving the sum by rounding only.

    @pytest.mark.parametrize("ell", (0, F(1, 2)), ids=("massless_compact", "massless_half"))
    def test_exhausted_budget_raises(self, ell):
        # past MAX_TERMS (Im tau below ~5.5e-10 at Im z = 0) a massless sum
        # form raises; it never returns what it summed
        with pytest.raises(QuadratureNonConvergence,
                           match=r"^massless character sum needs \d+ terms at Im tau = 1e-10$"):
            superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), ell), 0.23, 0.3 + 1e-10j)

    # Im z = 0, the ends of the range the bound covers, where the peak is
    # just inside a double, and Im z = Im tau / 2 (the NS sector's shift of a
    # real z), where the largest term sits one step from the centre and the
    # peak over real m passes every term by e^{pi Im tau}; each row covers
    # s = Im z and s = -Im z.  The first omitted term is measured against
    # the largest term summed.
    MASSLESS_ROWS = (
        (RHO, 0.0, 2, 2), (RHO, 0.999 * _far_im_z(RHO.imag), None, None), (RHO, 0.5 * RHO.imag, None, None),
        (SMALL, 0.0, 61, 62), (SMALL, 0.999 * _far_im_z(SMALL.imag), None, None),
        (10j, 5.0, None, None), (10j, 4.25, None, None), (14j, 7.0, None, None), (0.1 + 14j, 7.0, None, None),
    )
    MASSLESS_IDS = ("reduced", "reduced_far", "reduced_half_tau", "im_tau_1e-3", "im_tau_1e-3_far",
                    "im_tau_10_half_tau", "im_tau_10_near_half_tau", "im_tau_14_half_tau", "tau_0.1+14i_half_tau")

    @pytest.mark.parametrize("t, im_z, count, _", MASSLESS_ROWS, ids=MASSLESS_IDS)
    def test_massless_compact_first_omitted_term(self, t, im_z, count, _):
        z = complex(0.23, im_z)
        up = analytic._massless_count(t.imag, im_z, False)
        down = analytic._massless_count(t.imag, -im_z, False)
        assert count is None or up == down == count
        largest = max(_log_compact_term(m, z, t) for m in range(-down, up + 1))
        for m in (up + 1, -down - 1):
            assert _log_compact_term(m, z, t) - largest < math.log(analytic.TAIL_EPS)

    @pytest.mark.parametrize("t, im_w, _, count", MASSLESS_ROWS, ids=MASSLESS_IDS)
    def test_massless_half_first_omitted_term(self, t, im_w, _, count):
        w = complex(0.23, im_w)
        n = analytic._massless_count(t.imag, -abs(im_w), True)
        assert count is None or n == count
        largest = max(max(_log_half_terms(k, w, t)) for k in range(n + 1))
        assert max(_log_half_terms(n + 1, w, t)) - largest < math.log(analytic.TAIL_EPS)

    @pytest.mark.parametrize("im_w", (-0.5, 0.5))
    def test_theta_first_omitted_term(self, im_w):
        # |Im w| = Im tau / 2 makes term n (or -n) e^{-pi v (n^2 - n)}, the bound itself
        w, v = complex(0.3, im_w * RHO.imag), RHO.imag
        n = analytic._theta_count(v)
        assert n == 5
        for k in (n, -n):
            assert abs(cmath.exp(1j * math.pi * (RHO * k * k + 2 * k * w))) < analytic.TAIL_EPS

    @pytest.mark.parametrize("im_z", (0.0, 0.5))
    def test_lerch_first_omitted_term(self, im_z):
        # step k of the n >= 0 chain is t_k / (1 - q^k y); of the n < 0 chain
        # t_{-k-2} / (1 - q^{k+1} / y); Im z = 0 and Im tau / 2 are the ends of
        # the strip _lerch_direct sums in
        z = complex(0.3, im_z * RHO.imag)
        k = analytic._lerch_count(RHO.imag)
        assert k == 4
        q, y = cmath.exp(2j * math.pi * RHO), cmath.exp(2j * math.pi * z)
        for u, den in ((_t_n(k, z, RHO), 1.0 - q ** k * y), (_t_n(-k - 2, z, RHO), 1.0 - q ** (k + 1) / y)):
            assert abs(u) < analytic.TAIL_EPS and abs(u / den) < analytic.TAIL_EPS

    @pytest.mark.parametrize("t, count", ((RHO, 4), (SMALL, 119)), ids=("reduced", "im_tau_1e-3"))
    def test_correction_first_omitted_term(self, t, count):
        m = analytic._correction_count(t.imag)
        assert m == count
        x = (m + 0.5) * math.sqrt(2.0 * math.pi * t.imag)
        assert 2.0 * math.erfc(x) * abs(cmath.exp(-1j * math.pi * t * (m + 0.5) ** 2)) < analytic.TAIL_EPS

    KERNELS = {
        "theta00": ("_theta_count",
                    lambda: analytic._theta00_sum(complex(0.3, -0.5 * RHO.imag), RHO, analytic._theta_count(RHO.imag))),
        "lerch": ("_lerch_count",
                  lambda: analytic._lerch_direct(complex(0.3, 0.5 * RHO.imag), RHO, analytic._lerch_count(RHO.imag))[1]),
        "lerch_real_z": ("_lerch_count", lambda: analytic._lerch_direct(0.3 + 0j, RHO, analytic._lerch_count(RHO.imag))[1]),
        "correction": ("_correction_count", lambda: nonholomorphic_correction(RHO)),
        "correction_im_tau_1e-3": ("_correction_count", lambda: nonholomorphic_correction(SMALL)),
        "massless_compact": ("_massless_count",
                             lambda: analytic._massless_compact_sum(complex(0.23, 0.4 * RHO.imag), RHO)),
        "massless_compact_im_tau_1e-3": ("_massless_count",
                                         lambda: analytic._massless_compact_sum(complex(0.23, -0.4e-3), SMALL)),
        "massless_half": ("_massless_count", lambda: analytic._massless_half_sum(complex(0.23, 0.4 * RHO.imag), RHO)),
        "massless_half_im_tau_1e-3": ("_massless_count",
                                      lambda: analytic._massless_half_sum(complex(0.23, -0.4e-3), SMALL)),
    }

    @pytest.mark.parametrize("count, kernel", KERNELS.values(), ids=KERNELS.keys())
    def test_twice_the_count_moves_the_sum_by_rounding_only(self, monkeypatch, count, kernel):
        value = kernel()
        counted = getattr(analytic, count)
        monkeypatch.setattr(analytic, count, lambda *args: 2 * counted(*args))
        assert abs(kernel() - value) <= 1e-18 * (1.0 + abs(value))


# Each character kind, by (kind, h, ell)
CHARACTER_KINDS = {
    "massless_sum_form_0": ("massless_sum_form", F(1, 4), F(0)),
    "massless_sum_form_half": ("massless_sum_form", F(1, 4), F(1, 2)),
    "massless_mu_form": ("massless_mu_form", F(1, 4), F(0)),
    "massive": ("massive", F(5, 4), F(1, 2)),
}


class TestSpectralFlow:
    @pytest.mark.parametrize("sector", SECTORS)
    @pytest.mark.parametrize("kind, h, ell", CHARACTER_KINDS.values(), ids=CHARACTER_KINDS.keys())
    def test_sector_is_rtilde_at_shifted_z(self, kind, h, ell, sector):
        # the z-offsets of spectral flow, NS unshifted: NS~ 1/2, R tau/2, R~ (1 + tau)/2
        z, t = 0.17 + 0.04j, 0.1 + 1.2j
        offset = {"NS": 0.0, "NStilde": 0.5, "R": 0.5 * t, "Rtilde": 0.5 * (1.0 + t)}
        got = superconformal_character(CharSpec(kind, 1, h, ell, sector), z, t)
        ref = superconformal_character(CharSpec(kind, 1, h, ell, "Rtilde"), z + offset[sector] - offset["Rtilde"], t)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_unknown_sector(self):
        # CharSpec refuses an unknown sector; a record built around its
        # constructor (_replace) is refused when evaluated
        spec = CharSpec("massive", 1, F(5, 4), F(1, 2))._replace(sector="NSbar")
        with pytest.raises(UnknownName, match="no sector 'NSbar'"):
            superconformal_character(spec, 0.17, 1.2j)

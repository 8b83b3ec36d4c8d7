"""Numerical evaluation: theta/eta, Lerch sum, completion, characters, genus."""

import cmath
import math
from fractions import Fraction

import pytest

from mockforms.analytic import (
    CharSpec,
    EllipticArg,
    FlowOffset,
    ModularPoint,
    WhittakerClosed,
    affine_su2_character,
    bessel_half,
    dedekind_eta,
    elliptic_genus,
    erf_pi,
    jacobi_theta,
    lerch_completion,
    lerch_difference,
    lerch_sum,
    level_theta,
    nonholomorphic_correction,
    spectral_flow_offset,
    superconformal_character,
    whittaker_closed,
)
from mockforms.errors import (
    BesselOverflow,
    DenominatorVanishes,
    NonPositiveArgument,
    PoleAtArgument,
    QuadratureNonConvergence,
    UnknownName,
    UnsupportedSpec,
)
from mockforms.qseries import eta_series, theta_constant_series
from mockforms.rademacher import dedekind_sum

from oracles import gauss_error_integral, lerch_sum_fixed, theta_sum, vartheta_sum

F = Fraction

TAUS = (0.10 + 0.90j, -0.20 + 1.30j, 0.35 + 1.80j, 2.0j, 0.05 + 1.10j)
ZS = (0.23 + 0.11j, 0.41 - 0.07j, 0.13 + 0.05j)


class TestDomainTypes:
    def test_modular_point_guards_upper_half_plane(self):
        ModularPoint(0.3 + 0.2j)
        with pytest.raises(ValueError):
            ModularPoint(1.0 - 0.1j)
        with pytest.raises(ValueError):
            jacobi_theta("00", 0.0, 1.0 + 0.0j)

    def test_elliptic_arg_accepts_everything(self):
        EllipticArg(100.0 - 50j)


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

    def test_accepts_wrapped_types(self):
        a = jacobi_theta("00", EllipticArg(0.1), ModularPoint(1.2j))
        b = jacobi_theta("00", 0.1, 1.2j)
        assert a == b


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


class TestErrorFunction:
    def test_zero(self):
        assert erf_pi(0.0) == 0.0

    def test_odd(self):
        for x in (0.3, 1.7, 5.0):
            assert erf_pi(x) + erf_pi(-x) == 0.0

    def test_saturation_at_ten(self):
        assert abs(erf_pi(10.0) - 1.0) < 1e-15

    def test_against_quadrature(self):
        for x in (0.2, 0.9, 2.0):
            assert erf_pi(x) == pytest.approx(gauss_error_integral(x), abs=1e-12)


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


class TestNonholomorphicCorrection:
    def test_sum_vs_period_integral(self):
        for t in (0.1 + 0.9j, 1.5j, -0.3 + 1.2j, 0.2 + 0.5j, 3.0j):
            a = nonholomorphic_correction(t, "sum")
            b = nonholomorphic_correction(t, "period_integral")
            assert abs(a - b) < 1e-8

    def test_real_on_imaginary_axis(self):
        for v in (0.6, 1.5, 2.5):
            value = nonholomorphic_correction(1j * v, "sum")
            assert abs(value.imag) < 1e-15

    def test_reference_value_from_quadrature(self):
        got = nonholomorphic_correction(1.5j, "sum")
        oracle = nonholomorphic_correction(1.5j, "period_integral")
        assert abs(got - oracle) < 1e-8

    def test_sum_raises_instead_of_truncating(self):
        # 400 terms do not settle here; the truncated sums were 3.0e-5 and
        # 6.4e-3 away from the period integral
        for t in (0.3 + 2e-5j, 0.3 + 1e-5j):
            with pytest.raises(QuadratureNonConvergence):
                nonholomorphic_correction(t, "sum")
        # at Im tau = 1e-3 the sum settles and agrees with the integral
        t = 0.3 + 1e-3j
        assert abs(nonholomorphic_correction(t, "sum") - nonholomorphic_correction(t, "period_integral")) < 1e-12


class TestCompletion:
    def test_transformation_laws(self):
        z, t = 0.23 + 0.11j, 0.07 + 1.1j
        mh = lerch_completion(z, t)
        assert abs(lerch_completion(z, t + 1) - cmath.exp(-0.25j * math.pi) * mh) < 1e-10
        assert abs(mh + cmath.sqrt(1j / t) * lerch_completion(z / t, -1 / t)) < 1e-9
        assert abs(lerch_completion(z + 1, t) - mh) < 1e-10
        assert abs(lerch_completion(z + t, t) - mh) < 1e-10


class TestBesselHalf:
    def test_small_argument_law(self):
        x = 1e-4
        assert bessel_half("I", x) * math.gamma(1.5) * (2.0 / x) ** 0.5 == pytest.approx(1.0, rel=1e-6)

    def test_j_vanishes_at_pi(self):
        assert abs(bessel_half("J", math.pi)) < 1e-15

    def test_reference_combination(self):
        assert 4 * math.pi / 15 ** 0.25 * bessel_half("I", math.pi * math.sqrt(15) / 2) \
            == pytest.approx(453.018, abs=0.01)

    def test_overflow_is_typed(self):
        # sinh and cosh leave the double range just above x = 710.47; sin never does
        for kind in ("I", "I_three_half"):
            assert math.isfinite(bessel_half(kind, 710.0))
            with pytest.raises(BesselOverflow):
                bessel_half(kind, 800.0)
        assert math.isfinite(bessel_half("J", 800.0))

    def test_guards(self):
        with pytest.raises(NonPositiveArgument):
            bessel_half("I", -1.0)
        with pytest.raises(UnknownName):
            bessel_half("K", 1.0)


class TestLevelTheta:
    def test_index_shift_periodicity(self):
        for P, a in ((2, 1), (3, 2)):
            lhs = level_theta(P, a, 0.1 + 0.02j, 1.1j)
            rhs = level_theta(P, a + 2 * P, 0.1 + 0.02j, 1.1j)
            assert abs(lhs - rhs) < 1e-13

    def test_reflection_at_z_zero(self):
        assert abs(level_theta(2, 1, 0.0, 1.3j) - level_theta(2, -1, 0.0, 1.3j)) < 1e-13

    def test_against_fixed_range_oracle(self):
        got = level_theta(1, 1, 0.1, 1.1j)
        assert abs(got - vartheta_sum(1, 1, 0.1, 1.1j)) < 1e-12


class TestAffineCharacter:
    def test_trivial_representation(self):
        for z in ZS:
            assert abs(affine_su2_character(0, 0, z, 1.2j) - 1.0) < 1e-12

    def test_against_direct_quotient(self):
        z, t = 0.13, 1.2j
        num = vartheta_sum(3, 2, z, t) - vartheta_sum(3, -2, z, t)
        den = vartheta_sum(2, 1, z, t) - vartheta_sum(2, -1, z, t)
        assert abs(affine_su2_character(1, F(1, 2), z, t) - num / den) < 1e-12

    def test_even_in_z(self):
        z, t = 0.21 + 0.03j, 1.1j
        assert abs(affine_su2_character(2, 1, z, t) - affine_su2_character(2, 1, -z, t)) < 1e-12

    def test_denominator_vanishes_at_origin(self):
        with pytest.raises(DenominatorVanishes):
            affine_su2_character(1, F(1, 2), 0.0, 1.2j)


class TestCharacters:
    def test_sum_form_equals_mu_form(self):
        for z in ZS:
            for t in (0.1 + 1.3j, 0.35 + 1.8j):
                a = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0), z, t)
                b = superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), 0), z, t)
                assert abs(a - b) < 1e-9

    def test_recursion_identity(self):
        for z in ZS:
            t = 0.1 + 1.3j
            half = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), F(1, 2)), z, t)
            zero = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0), z, t)
            th = jacobi_theta("11", z, t)
            rhs = cmath.exp(-0.25j * math.pi * t) * th * th / dedekind_eta(t) ** 3
            assert abs(half + 2 * zero - rhs) < 1e-9

    def test_massive_with_trivial_affine_factor(self):
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
            superconformal_character(CharSpec("massless_mu_form", 2, F(1, 2), 0), 0.2, 1.2j)

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

    def test_a1_is_sixteenth_of_decompactified(self):
        z, t = 0.17, 1.1j
        assert abs(elliptic_genus("a1", z, t) - elliptic_genus("decompactified", z, t) / 16.0) == 0.0

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


class TestWhittakerClosed:
    def test_w_plus_definition(self):
        for v in (0.5, 2.0, 7.0):
            assert whittaker_closed(WhittakerClosed("W_plus", v)) * math.exp(v / 2) == pytest.approx(1.0, rel=1e-14)

    def test_partition_of_unity(self):
        for v in (0.5, 2.0, 7.0):
            lhs = whittaker_closed(WhittakerClosed("M_minus", v)) \
                + 0.5 * whittaker_closed(WhittakerClosed("W_minus", v))
            assert lhs == pytest.approx(0.5 * math.sqrt(math.pi) * math.exp(v / 2), rel=1e-13)

    def test_w_minus_against_quadrature(self):
        v = 4.0
        # sqrt(pi) (1 - E(sqrt(v/pi))) e^{v/2} with E from Simpson quadrature
        oracle = math.sqrt(math.pi) * (1.0 - gauss_error_integral(math.sqrt(v / math.pi))) * math.exp(v / 2)
        assert whittaker_closed(WhittakerClosed("W_minus", v)) == pytest.approx(oracle, abs=1e-12)

    def test_guards(self):
        with pytest.raises(NonPositiveArgument):
            WhittakerClosed("W_plus", 0.0)
        with pytest.raises(UnknownName):
            WhittakerClosed("M_plus", 1.0)


class TestDeterminism:
    def test_evaluations_reproduce_bit_for_bit(self):
        z, t = 0.23 + 0.11j, 0.07 + 1.1j
        assert jacobi_theta("11", z, t) == jacobi_theta("11", z, t)
        assert dedekind_eta(t) == dedekind_eta(t)
        assert lerch_sum(z, t) == lerch_sum(z, t)
        assert level_theta(3, 2, z, t) == level_theta(3, 2, z, t)
        assert nonholomorphic_correction(t, "sum") == nonholomorphic_correction(t, "sum")


class TestSpectralFlow:
    def test_base_sector(self):
        assert spectral_flow_offset("NS") == 0

    def test_half_unit_shifts(self):
        assert spectral_flow_offset("NStilde") - spectral_flow_offset("NS") == F(1, 2)
        assert spectral_flow_offset("Rtilde") - spectral_flow_offset("R") == F(1, 2)

    def test_tau_dependence(self):
        offset = spectral_flow_offset("Rtilde")
        assert offset == FlowOffset(F(1, 2), F(1, 2))
        assert offset.at(1.2j) == 0.5 + 0.6j

    def test_unknown_sector(self):
        with pytest.raises(UnknownName):
            spectral_flow_offset("NSbar")

"""Completion/shadow structure: coefficients, modularity, differential equations."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mockforms import shadow
from mockforms.analytic import lerch_completion, nonholomorphic_correction
from mockforms.characters import coeff_table
from mockforms.errors import ValueOverflow
from mockforms.qseries import FracExp
from mockforms.shadow import (
    ShadowCoeff,
    holomorphic_anomaly_residual,
    laplacian_residual,
    multiplicity_completion,
    multiplier_system,
    shadow_coefficient,
    shadow_reference_coefficients,
)

from oracles import correction_fixed, lerch_rounding_scale, multiplicity_completion_fixed

F = Fraction


class TestShadowCoefficient:
    def test_single_modulus_value(self):
        # c=1: 2 + 4 pi J_{1/2}(pi/2) with J_{1/2}(pi/2) = 2/pi, hence exactly 10
        got = shadow_coefficient(0, 1)
        assert isinstance(got, ShadowCoeff)
        assert got.value == pytest.approx(10.0, abs=1e-12)

    def test_value_is_finite_real_float(self):
        value = shadow_coefficient(2, 50).value
        assert isinstance(value, float) and math.isfinite(value)

    def test_conjugate_sum_realness(self):
        from mockforms.rademacher import multiplier_phases
        worst = 0.0
        for c in range(1, 80):
            for n in (0, 1, 5):
                total = 0j
                for d, phase in multiplier_phases(c):
                    total += phase.conjugate() * cmath.exp(2j * math.pi * d * n / c)
                worst = max(worst, abs(total.imag))
        assert worst < 1e-9

    def test_reproducible(self):
        assert shadow_coefficient(1, 200).value == shadow_coefficient(1, 200).value

    def test_quadratic_form_is_the_conjugate_sum(self):
        # sum_d e^{+3 pi i s(d,c) + 2 pi i d n / c} = Re kloosterman_quadratic(-n, c)
        from mockforms.rademacher import kloosterman_quadratic, multiplier_phases
        worst = 0.0
        for c in range(1, 200):
            row = multiplier_phases(c)
            for n in (0, 1, 2, 5, 11, 37):
                conjugate = math.fsum((phase.conjugate() * cmath.exp(2j * math.pi * (d * n % c) / c)).real
                                      for d, phase in row)
                worst = max(worst, abs(kloosterman_quadratic(-n, c).real - conjugate))
        assert worst < 1e-9


class TestShadowReference:
    def test_exact_pattern(self):
        ref = shadow_reference_coefficients(121)
        assert ref[1] == 24
        assert ref[9] == -72
        assert ref[25] == 120
        assert ref[49] == -168
        assert ref[81] == 216
        assert ref[121] == -264

    def test_non_square_exponents_vanish(self):
        ref = shadow_reference_coefficients(89)
        squares = {(2 * m + 1) ** 2 for m in range(5)}
        for exponent, value in ref.items():
            if exponent not in squares:
                assert value == 0
        assert ref[17] == 0


class TestCompletionModularity:
    def test_inversion_and_translation(self):
        for t in (1.21j, 0.13 + 1.21j):
            shat = multiplicity_completion(t)
            assert abs(multiplicity_completion(-1 / t) + cmath.sqrt(t / 1j) * shat) < 1e-9
            assert abs(multiplicity_completion(t + 1) - cmath.exp(-0.25j * math.pi) * shat) < 1e-9

    def test_general_multiplier_transformation(self):
        t = 0.13 + 1.21j
        for gamma in ((1, 0, 1, 1), (0, -1, 1, 0), (2, 1, 3, 2)):
            a, b, c, d = gamma
            gt = (a * t + b) / (c * t + d)
            lhs = multiplicity_completion(gt)
            rhs = multiplier_system(gamma) * cmath.sqrt(c * t + d) * multiplicity_completion(t)
            assert abs(lhs - rhs) < 1e-8

    def test_noncompact_on_level_two_subgroup(self):
        t = 0.17 + 1.05j
        for gamma in ((1, 0, 2, 1), (1, -1, 2, -1), (3, 1, 2, 1)):
            a, b, c, d = gamma
            assert a * d - b * c == 1 and c % 2 == 0
            gt = (a * t + b) / (c * t + d)
            # the noncompact completion 8 mu_hat(1/2; tau)
            lhs = 8.0 * lerch_completion(0.5, gt)
            rhs = multiplier_system(gamma) * cmath.sqrt(c * t + d) * 8.0 * lerch_completion(0.5, t)
            assert abs(lhs - rhs) < 1e-8

    def test_holomorphic_side_reproduces_exact_coefficients(self):
        # the holomorphic generating function 8 sum_w mu(w) over the
        # half-periods, by three Lerch sums; at Im tau = 2.5 the successive
        # truncations 2, 2 - 90 q, 2 - 90 q - 462 q^2 (times q^{-1/8})
        # reproduce it to the next term's size
        from mockforms.analytic import lerch_sum
        from mockforms.characters import multiplicity_series
        t = 2.5j
        holo = 8.0 * sum(lerch_sum(w, t) for w in (0.5, 0.5 * (1.0 + t), 0.5 * t))
        absq = math.exp(-2 * math.pi * 2.5)

        def partial_eval(n_terms):
            coeffs = {0: 2, 1: -90, 2: -462}
            return sum(coeffs[n] * cmath.exp(2j * math.pi * t * (n - 0.125)) for n in range(n_terms + 1))

        assert abs(holo - partial_eval(0)) < 2 * 90 * absq ** 0.875
        assert abs(holo - partial_eval(1)) < 2 * 462 * absq ** 1.875
        assert abs(holo - partial_eval(2)) < 1e-6
        exact = multiplicity_series("k3", 6).truncate(FracExp.of(F(3) - F(1, 8)))
        assert abs(holo - exact.evaluate(t)) < 1e-6

    def test_large_imaginary_part(self):
        # the erfc sum overflowed here before its terms were dropped at erfc = 0
        t = 0.1 + 40j
        ref = multiplicity_completion_fixed(t)
        assert abs(multiplicity_completion(t) - ref) <= 1e-12 * abs(ref)

    @settings(max_examples=30, deadline=None)
    @given(t=st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.05, 3.0)))
    def test_reduced_evaluation_matches_fixed_range_sums(self, t):
        # relative 1e-12 of what rounding can move the oracle by, with both
        # |tau| < 1 and |Re tau| > 1/2 in range
        ref = multiplicity_completion_fixed(t)
        scale = 8.0 * sum(lerch_rounding_scale(w, t) for w in (0.5, 0.5 * (1.0 + t), 0.5 * t))
        assert abs(multiplicity_completion(t) - ref) <= 1e-12 * (scale + 12.0 * abs(correction_fixed(t)))


def _seeded_reduced_points() -> list[complex]:
    rng = random.Random(20091019)
    points = []
    while len(points) < 300:
        t = complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(0.86), math.log(300.0))))
        if abs(t) >= 1.0:
            points.append(t)
    return points


REDUCED_GRIDS = {
    "seeded": _seeded_reduced_points(),
    "arc": [(1.0 - 1e-9) * cmath.exp(1j * math.pi * (1 + k / 20) / 3) for k in range(21)],
    "edges": [complex(re, im) for re in (-0.5, 0.5) for im in (math.sqrt(0.75), 1.0, 3.0, 40.0, 120.0, 300.0)],
}


class TestCompletionFromTable:
    def test_head_is_the_exact_table(self):
        table = coeff_table("k3", 10).values
        assert shadow._A_HEAD == tuple(table[n] for n in range(1, 11))

    @pytest.mark.parametrize("points", REDUCED_GRIDS.values(), ids=REDUCED_GRIDS.keys())
    def test_matches_the_lerch_sums(self, points):
        # Against the three fixed-range Lerch sums at tau.  The completion
        # vanishes at tau = i and e^{i pi/3}, so the scale is the size of its
        # two parts.  Both forms carry q^{-1/8} = e^{pi Im tau / 4} through a
        # rounded exponent, which moves a value by ~1e-16 per unit of that
        # exponent, so the tolerance grows with it past Im tau = 4/pi.
        for t in points:
            q = abs(cmath.exp(2j * math.pi * t))
            holomorphic = math.exp(0.25 * math.pi * t.imag) * (2 + sum(a * q ** n for n, a in enumerate(shadow._A_HEAD, 1)))
            scale = (holomorphic + 12.0 * abs(correction_fixed(t))) * max(1.0, 0.25 * math.pi * t.imag)
            assert abs(multiplicity_completion(t) - multiplicity_completion_fixed(t)) <= 4e-15 * scale, t

    def test_overflow_is_typed(self):
        # q^{-1/8} = e^{250 pi} is past a double
        with pytest.raises(ValueOverflow):
            multiplicity_completion(1000j)


class TestMultiplierSystem:
    def test_translation_phase(self):
        for n in (-3, 1, 5):
            assert abs(multiplier_system((1, n, 0, 1)) - cmath.exp(-0.25j * math.pi * n)) < 1e-15

    def test_unit_modulus_on_random_elements(self):
        rng = random.Random(20090914)
        count = 0
        while count < 200:
            c = rng.randrange(1, 500)
            d = rng.randrange(1, 500)
            if math.gcd(c, d) != 1:
                continue
            a = pow(d, -1, c) if c > 1 else 0
            b = (a * d - 1) // c
            assert abs(abs(multiplier_system((a, b, c, d))) - 1.0) < 1e-14
            count += 1

    def test_determinant_guard(self):
        with pytest.raises(ValueError):
            multiplier_system((1, 1, 1, 1))


class TestAnomalyEquation:
    def test_residual_within_contract(self):
        assert holomorphic_anomaly_residual(0.23, 0.1 + 1.2j, 1e-4) < 1e-5

    def test_second_order_in_step(self):
        r_h = holomorphic_anomaly_residual(0.23, 0.1 + 1.2j, 2e-4)
        r_h2 = holomorphic_anomaly_residual(0.23, 0.1 + 1.2j, 1e-4)
        assert r_h / r_h2 == pytest.approx(4.0, rel=0.2)

    def test_correction_term_carries_the_whole_anomaly(self):
        # the Lerch sum alone is holomorphic: its dbar-derivative matches
        # +1/2 dbar R, so completing with -R/2 is what produces the shadow
        from mockforms.analytic import lerch_sum
        from mockforms.shadow import _dbar
        z, t, h = 0.23, 0.1 + 1.2j, 1e-4
        dbar_mu = _dbar(lambda s: lerch_sum(z, s), t, h)
        dbar_r = _dbar(lambda s: nonholomorphic_correction(s), t, h)
        assert abs(dbar_mu) < 1e-5
        assert abs(_dbar(lambda s: lerch_completion(z, s), t, h) + 0.5 * dbar_r) < 1e-5


class TestLaplacianEquation:
    def test_residual_within_contract(self):
        assert laplacian_residual(0.3, 0.05 + 1.1j, 1e-3) < 1e-4

    def test_second_order_in_step(self):
        r_h = laplacian_residual(0.3, 0.05 + 1.1j, 4e-3)
        r_h2 = laplacian_residual(0.3, 0.05 + 1.1j, 2e-3)
        assert r_h / r_h2 == pytest.approx(4.0, rel=0.3)

    def test_antiholomorphic_control_is_not_annihilated(self):
        # weight-k hyperbolic Laplacians annihilate every holomorphic function,
        # so the negative control must be anti-holomorphic to register
        t = 0.05 + 1.1j
        control = abs(shadow._laplacian(lambda s: cmath.exp(2j * math.pi * s.conjugate() / 8), t, 1e-3))
        assert control > 0.1
        holomorphic = abs(shadow._laplacian(lambda s: cmath.exp(-2j * math.pi * s / 8), t, 1e-3))
        assert holomorphic < 1e-4

"""Exact multiplicity tables and character-decomposition verification."""

import math
from fractions import Fraction

import pytest

from mockforms import characters
from mockforms.analytic import lerch_sum
from mockforms.characters import (
    CoeffTable,
    coeff_table,
    decomposition_residual,
    half_period_numerator,
    identity_check,
    multiplicity_series,
)
from mockforms.errors import BeyondTruncation, NonIntegralCoefficient, PoleAtArgument, UnknownName
from mockforms.qseries import FracExp, QSeries, eta_series, theta_constant_series
from mockforms.rademacher import exact_coefficient

F = Fraction

COMPACT_TABLE = [90, 462, 1540, 4554, 11592, 27830, 61686, 131100, 265650, 521136]
NONCOMPACT_TABLE = [-6, 14, -28, 42, -56, 86, -138, 188, -238, 336]


class TestHalfPeriodSeries:
    def test_numerator_constant_term_is_one_half(self):
        # the self-paired index of the first Lambert sum forces exactly 1/2
        assert half_period_numerator(2, 24 * 6).coefficient(0) == F(1, 2)

    def test_series_match_lerch_quotients_numerically(self):
        # N_label / theta_label = mu(w; tau): the eta of h_label = mu/eta cancels
        t = 1.3j
        for label, theta, w in ((2, "10", 0.5), (3, "00", (1 + t) / 2), (4, "01", t / 2)):
            series = half_period_numerator(label, 24 * 22) / theta_constant_series(theta, 24 * 22)
            assert abs(series.evaluate(t) - lerch_sum(w, t)) < 1e-9

    def test_unknown_label(self):
        with pytest.raises(UnknownName):
            half_period_numerator(5, 24)


class TestMultiplicitySeries:
    def test_leading_coefficient(self):
        sigma = multiplicity_series("k3", 24 * 6)
        assert sigma.coefficient(F(-1, 8)) == 2
        assert sigma.offset == FracExp(-3)

    @pytest.mark.parametrize("kind, labels", [("k3", ((2, "10"), (3, "00"), (4, "01"))),
                                              ("noncompact", ((2, "10"),))])
    def test_matches_eta_times_inverted_eta_theta(self, kind, labels):
        # the construction before the eta cancellation: 8 eta sum N_label (eta theta_label)^{-1}
        t = FracExp(24 * 40)
        eta = eta_series(t)
        h = QSeries.zero(t)
        for label, theta in labels:
            h = h + half_period_numerator(label, t) * (eta * theta_constant_series(theta, t)).invert()
        assert multiplicity_series(kind, t) == 8 * (eta * h)

    def test_leading_coefficient_must_be_two(self, monkeypatch):
        unscaled = half_period_numerator
        monkeypatch.setattr(characters, "half_period_numerator", lambda label, t: 3 * unscaled(label, t))
        with pytest.raises(NonIntegralCoefficient, match="not 2"):
            multiplicity_series("noncompact", FracExp(24 * 4))

    def test_first_coefficients_match_table(self):
        sigma = multiplicity_series("k3", 24 * 12)
        assert sigma.coefficient(F(7, 8)) == -90
        assert sigma.coefficient(F(15, 8)) == -462
        assert sigma.coefficient(F(10) - F(1, 8)) == -521136

    def test_noncompact_first_coefficient(self):
        sigma = multiplicity_series("noncompact", 24 * 6)
        assert sigma.coefficient(F(1) - F(1, 8)) == 6  # A_1 = -6

    def test_numeric_agreement_with_lerch_sums_on_grid(self):
        sigma = multiplicity_series("k3", 24 * 22)
        for t in (1.1j, 0.1 + 1.25j, -0.2 + 1.6j):
            direct = 8.0 * (lerch_sum(0.5, t) + lerch_sum((1 + t) / 2, t) + lerch_sum(t / 2, t))
            assert abs(sigma.evaluate(t) - direct) < 1e-9


class TestCoeffTable:
    def test_compact_table_to_10(self):
        table = coeff_table("k3", 10)
        assert [table.values[n] for n in range(1, 11)] == COMPACT_TABLE

    def test_noncompact_table_to_10(self):
        table = coeff_table("noncompact", 10)
        assert [table.values[n] for n in range(1, 11)] == NONCOMPACT_TABLE

    def test_ale_table(self):
        table = coeff_table("ale", 3)
        assert [table.values[n] for n in range(1, 4)] == [(90 + 6) // 16, (462 - 14) // 16, (1540 + 28) // 16]
        assert [table.values[n] for n in range(1, 4)] == [6, 28, 98]

    def test_positivity_and_divisibility(self):
        compact = coeff_table("k3", 25)
        noncompact = coeff_table("noncompact", 25)
        for n in range(1, 26):
            assert compact.values[n] > 0
            assert (compact.values[n] - noncompact.values[n]) % 16 == 0

    def test_cross_validation_against_series(self):
        # the 20-term truncation error oscillates in roughly (-1.3, 1.3) over
        # this range (worst 1.21 at n = 11), so rounding only becomes exact
        # for every n <= 30 once the series is pushed much further (c <= 400)
        compact = coeff_table("k3", 30)
        for n in range(1, 31):
            assert abs(exact_coefficient("k3", n, 20).cumulative - compact.values[n]) < 1.5
        for n in (2, 5, 20, 30):
            assert round(exact_coefficient("k3", n, 20).cumulative) == compact.values[n]
        for n in range(1, 31):
            assert round(exact_coefficient("k3", n, 400).cumulative) == compact.values[n]

    def test_truncation_guard(self):
        with pytest.raises(BeyondTruncation):
            coeff_table("k3", 10, truncation=FracExp(24 * 5))

    def test_sign_invariant_enforced(self):
        with pytest.raises(NonIntegralCoefficient):
            CoeffTable("noncompact", {1: 6, 2: 14}, 2)  # A_1 must be negative

    def test_table_type_fields(self):
        table = coeff_table("k3", 3)
        assert table.kind == "k3" and table.n_max == 3


class TestDecomposition:
    # fitted at bring-up: residual(N) tracks 0.46 * A_{N+1} |q|^{N + 7/8} at
    # (z, tau) = (0.2, 1.4i) until it saturates at double-precision noise
    TAIL_CONSTANT = 0.6
    NOISE_FLOOR = 1e-13

    def test_residual_decreases_with_more_terms(self):
        residuals = [decomposition_residual(0.2, 1.4j, n) for n in range(0, 4)]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))
        assert decomposition_residual(0.2, 1.4j, 12) < residuals[0]

    def test_residual_tail_bound(self):
        compact = coeff_table("k3", 5)
        absq = math.exp(-2 * math.pi * 1.4)
        for n in range(0, 4):
            bound = self.TAIL_CONSTANT * compact.values[n + 1] * absq ** (n + 0.875) + self.NOISE_FLOOR
            assert decomposition_residual(0.2, 1.4j, n) < bound

    def test_residual_small_at_twelve_terms(self):
        assert decomposition_residual(0.2, 1.5j, 12) < 1e-6

    def test_decompactified_variant(self):
        assert decomposition_residual(0.2, 1.5j, 12, "decompactified") < 1e-6

    def test_pole_guard_propagates(self):
        with pytest.raises(PoleAtArgument):
            decomposition_residual(0.0, 1.5j, 2)


class TestIdentityCheck:
    def test_j_vanish(self):
        assert identity_check("J_vanish", 0.23 + 0.11j, 1.2j) < 1e-12

    def test_half_period_squares(self):
        assert identity_check("half_period_sq", 0.2, 1.1j) < 1e-9

    def test_recursion(self):
        assert identity_check("recursion", 0.2, 1.1j) < 1e-9

    def test_genus_at_zero(self):
        for t in (1.1j, 0.3 + 1.7j):
            assert identity_check("genus_at_zero", 0.0, t) < 1e-10

    def test_contract_on_grid(self):
        for z in (0.23 + 0.11j, 0.41 - 0.07j):
            for t in (0.1 + 0.9j, -0.2 + 1.3j, 0.35 + 1.8j):
                for name in ("half_period_sq", "J_vanish", "recursion"):
                    assert identity_check(name, z, t) < 1e-9

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            identity_check("pentagonal", 0.2, 1.2j)

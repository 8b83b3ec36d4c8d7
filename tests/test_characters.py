"""Exact multiplicity tables and character-decomposition verification."""

import functools
import math
from fractions import Fraction

import pytest

import mockforms
from mockforms import analytic, characters
from mockforms.analytic import lerch_sum
from mockforms.characters import (
    CoeffTable,
    coeff_table,
    decomposition_residual,
    half_period_numerator,
    identity_check,
    multiplicity_series,
)
from mockforms.errors import BeyondTruncation, NonIntegralCoefficient, PoleAtArgument, SignViolation, UnknownName
from mockforms.qseries import FracExp, QSeries, eta_series, theta_constant_series
from mockforms.rademacher import exact_coefficient

import oracles
from oracles import (
    decomposition_mismatches,
    lambert_numerator_terms,
    lambert_sigma,
    lambert_table,
    triple_product_coeffs,
)

F = Fraction

COMPACT_TABLE = [90, 462, 1540, 4554, 11592, 27830, 61686, 131100, 265650, 521136]
NONCOMPACT_TABLE = [-6, 14, -28, 42, -56, 86, -138, 188, -238, 336]
DEEP = 10_000


@functools.lru_cache(maxsize=None)
def deep_table(kind):
    """coeff_table(kind, DEEP).values, built once for the tests that read it (~0.11 s per kind)."""
    return coeff_table(kind, DEEP).values


def perturb_parts(monkeypatch, change):
    """Make characters._eisenstein_parts hand its lists (E_2(tau), E_2(2 tau), F) through change first."""
    exact = characters._eisenstein_parts

    def parts(n_terms):
        lists = exact(n_terms)
        change(*lists)
        return lists

    monkeypatch.setattr(characters, "_eisenstein_parts", parts)


def direct_sigma(k):
    return sum(d for d in range(1, k + 1) if k % d == 0)


def direct_f(n_terms):
    """F_2^(2) = sum_{r > s > 0, r - s odd} (-1)^r s q^{rs/2} below q^n_terms, by the double sum."""
    f = [0] * n_terms
    for s in range(1, n_terms):
        for r in range(s + 1, 2 * n_terms // s + 1, 2):
            if r * s // 2 < n_terms:
                f[r * s // 2] += (-1) ** r * s
    return f


class TestEisensteinParts:
    """_eisenstein_parts against the definitions of sigma, E_2(2 tau) and F."""

    def test_sigma_is_the_divisor_sum(self):
        e2, _, _ = characters._eisenstein_parts(3000)
        assert e2[0] == 1
        # every k < 3 000, among them every square d^2 and every prime
        assert e2[1:] == [-24 * direct_sigma(k) for k in range(1, 3000)]
        # and every shorter list, the ones that end just past a square among them
        for n_terms in range(1, 400):
            assert characters._eisenstein_parts(n_terms)[0] == e2[:n_terms]

    def test_e2_double_vanishes_at_odd_powers(self):
        for n_terms in (1, 2, 3, 4, 401, 3000):
            e2, e2_double, _ = characters._eisenstein_parts(n_terms)
            assert len(e2_double) == n_terms
            assert e2_double[1::2] == [0] * (n_terms // 2)
            assert e2_double[::2] == e2[:(n_terms + 1) // 2]

    def test_f_is_the_double_sum(self):
        exact = direct_f(400)
        for n_terms in range(1, 401):
            e2, e2_double, f = characters._eisenstein_parts(n_terms)
            assert f == exact[:n_terms]
            assert len(e2) == n_terms


def fraction_table(kind, n_max):
    """The tables by exact Fraction long division: 8 sum N_label/theta_label as QSeries."""
    t = FracExp(24 * (n_max + 2))

    def minus_coefficients(labels):
        sigma = QSeries.zero(t)
        for label, theta in labels:
            sigma = sigma + half_period_numerator(label, t) / theta_constant_series(theta, t)
        values = {n: -8 * sigma.coefficient(F(n) - F(1, 8)) for n in range(1, n_max + 1)}
        assert all(v.denominator == 1 for v in values.values())
        return values

    compact = minus_coefficients(((2, "10"), (3, "00"), (4, "01")))
    noncompact = minus_coefficients(((2, "10"),))
    if kind == "ale":
        return {n: (compact[n] - noncompact[n]) / 16 for n in compact}
    return compact if kind == "k3" else noncompact


class TestHalfPeriodSeries:
    def test_numerator_constant_term_is_one_half(self):
        # the self-paired index of the first Lambert sum forces exactly 1/2
        assert half_period_numerator(2, 6).coefficient(0) == F(1, 2)

    def test_series_match_lerch_quotients_numerically(self):
        # N_label / theta_label = mu(w; tau): the eta of h_label = mu/eta cancels
        t = 1.3j
        for label, theta, w in ((2, "10", 0.5), (3, "00", (1 + t) / 2), (4, "01", t / 2)):
            series = half_period_numerator(label, 22) / theta_constant_series(theta, 22)
            assert abs(series.evaluate(t) - lerch_sum(w, t)) < 1e-9

    def test_unknown_label(self):
        with pytest.raises(UnknownName):
            half_period_numerator(5, 24)

    def test_numerator_is_the_oracles_lambert_sum(self):
        for label in (2, 3, 4):
            halves = {}
            for u, c in lambert_numerator_terms(label, 24 * 30):
                halves[FracExp(u)] = halves.get(FracExp(u), 0) + F(c, 2)
            assert half_period_numerator(label, 30) == QSeries(halves, 30)


class TestMultiplicitySeries:
    def test_leading_coefficient(self):
        sigma = multiplicity_series("k3", 6)
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
        # three times every numerator part divides by 3 but leads with 6
        def triple(*lists):
            for part in lists:
                part[:] = [3 * c for c in part]

        perturb_parts(monkeypatch, triple)
        with pytest.raises(NonIntegralCoefficient, match="not 2"):
            multiplicity_series("noncompact", FracExp(24 * 4))
        with pytest.raises(NonIntegralCoefficient, match="not 2"):
            coeff_table("k3", 3)

    def test_ale_leading_coefficient_must_be_zero(self, monkeypatch):
        # E_2(2 tau) = 7 + ... keeps the ALE numerator divisible by 6, leading with 1
        perturb_parts(monkeypatch, lambda e2, e2_double, f: e2_double.__setitem__(0, 7))
        with pytest.raises(NonIntegralCoefficient, match="not 0"):
            coeff_table("ale", 3)

    def test_noncompact_numerator_must_divide_by_3(self, monkeypatch):
        # one more at q^5 in E_2(tau) moves the noncompact numerator there by -2
        perturb_parts(monkeypatch, lambda e2, e2_double, f: e2.__setitem__(5, e2[5] + 1))
        with pytest.raises(NonIntegralCoefficient, match="noncompact numerator at q\\^5 is not divisible by 3"):
            coeff_table("noncompact", 6)
        coeff_table("k3", 6)  # no division there: the k3 numerator stays integral

    def test_ale_numerator_must_divide_by_6(self, monkeypatch):
        perturb_parts(monkeypatch, lambda e2, e2_double, f: e2.__setitem__(5, e2[5] + 1))
        with pytest.raises(NonIntegralCoefficient, match="ale numerator at q\\^5 is not divisible by 6"):
            coeff_table("ale", 6)
        with pytest.raises(NonIntegralCoefficient, match="not divisible by 6"):
            multiplicity_series("ale", 8)

    def test_the_first_numerator_fault_is_named(self, monkeypatch):
        def two_faults(e2, e2_double, f):
            e2[5] += 1
            e2[9] += 1

        perturb_parts(monkeypatch, two_faults)
        with pytest.raises(NonIntegralCoefficient, match="noncompact numerator at q\\^5 is not divisible by 3"):
            coeff_table("noncompact", 12)

    def test_odd_half_steps_must_cancel(self, monkeypatch):
        # the Lambert oracle's check: without label 4 the odd powers of q^{1/2} from label 3 survive
        unscaled = lambert_numerator_terms
        monkeypatch.setattr(oracles, "lambert_numerator_terms",
                            lambda label, limit: [] if label == 4 else list(unscaled(label, limit)))
        with pytest.raises(ArithmeticError, match=r"q\^\(3/8\) escaped cancellation"):
            lambert_sigma("k3", 8)
        with pytest.raises(ArithmeticError, match="escaped cancellation"):
            lambert_table("k3", 5)

    def test_numerator_terms_stay_on_the_half_step_lattice(self, monkeypatch):
        # the Lambert oracle's check: a term at q^{1/6} has no place in its integer series in q^{1/2}
        unscaled = lambert_numerator_terms
        monkeypatch.setattr(oracles, "lambert_numerator_terms",
                            lambda label, limit: [*unscaled(label, limit), *[(4, 1)] * (label == 2)])
        with pytest.raises(ArithmeticError, match="off the half-step lattice"):
            lambert_table("noncompact", 5)

    @pytest.mark.parametrize("truncation", [FracExp(3), FracExp(0), FracExp(-24)])
    def test_truncation_below_the_leading_term(self, truncation):
        # the series is known below truncation - 1/4, which here excludes q^{-1/8}
        with pytest.raises(BeyondTruncation):
            multiplicity_series("k3", truncation)

    def test_first_coefficients_match_table(self):
        sigma = multiplicity_series("k3", 12)
        assert sigma.coefficient(F(7, 8)) == -90
        assert sigma.coefficient(F(15, 8)) == -462
        assert sigma.coefficient(F(10) - F(1, 8)) == -521136

    def test_noncompact_first_coefficient(self):
        sigma = multiplicity_series("noncompact", 6)
        assert sigma.coefficient(F(1) - F(1, 8)) == 6  # A_1 = -6

    @pytest.mark.parametrize("truncation", [FracExp(24 * 12), FracExp(24 * 60 + 5)])
    def test_ale_is_the_difference_of_k3_and_noncompact(self, truncation):
        # Sigma - Sigma^circ = 8 (N_3/theta_00 + N_4/theta_01): the label-2 piece cancels
        ale = multiplicity_series("ale", truncation)
        assert ale == multiplicity_series("k3", truncation) - multiplicity_series("noncompact", truncation)
        assert ale.coefficient(F(7, 8)) == -16 * 6

    def test_numeric_agreement_with_lerch_sums_on_grid(self):
        sigma = multiplicity_series("k3", 22)
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

    def test_ale_difference_must_divide_by_16(self, monkeypatch):
        # the Lambert oracle's check: a quarter of the label-3 and label-4 numerators keeps
        # the k3 series integral and even, but k3 - noncompact is then 4 (A_n - A_n^circ)/16
        unscaled = lambert_numerator_terms
        monkeypatch.setattr(oracles, "lambert_numerator_terms",
                            lambda label, limit: [(u, c if label == 2 else c // 4) for u, c in unscaled(label, limit)])
        with pytest.raises(ArithmeticError, match="not divisible by 16"):
            lambert_table("ale", 3)

    def test_ale_is_sixteenth_of_the_two_table_difference(self):
        # k3 = noncompact + 16 ALE at every n <= 10 000, three separate divisions by P
        compact, circ, ale = deep_table("k3"), deep_table("noncompact"), deep_table("ale")
        assert all(compact[n] == circ[n] + 16 * ale[n] for n in range(1, DEEP + 1))

    def test_unknown_kind(self):
        with pytest.raises(UnknownName):
            coeff_table("bogus", 3)

    @pytest.mark.parametrize("kind", ["k3", "noncompact", "ale"])
    def test_matches_fraction_long_division(self, kind):
        assert coeff_table(kind, 150).values == fraction_table(kind, 150)

    @pytest.mark.parametrize("kind", ["k3", "noncompact", "ale"])
    def test_builds_to_1000_under_its_invariants(self, kind):
        table, head = coeff_table(kind, 1000).values, coeff_table(kind, 150).values
        values = [table[n] for n in range(1, 1001)]
        assert values[:150] == [head[n] for n in range(1, 151)]
        if kind != "noncompact":
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_truncation_guard(self):
        with pytest.raises(BeyondTruncation):
            coeff_table("k3", 10, truncation=FracExp(24 * 5))

    def test_sign_invariant_enforced(self):
        with pytest.raises(SignViolation):
            CoeffTable("noncompact", {1: 6, 2: 14}, 2)  # A_1 must be negative

    def test_noncompact_sign_checked_at_every_tabulated_n(self):
        values = dict(zip(range(1, 11), NONCOMPACT_TABLE))
        with pytest.raises(SignViolation, match="n = 11"):
            CoeffTable("noncompact", {**values, 11: 400}, 11)
        # a hand-built table with a gap is checked on the n it has
        with pytest.raises(SignViolation, match="n = 3"):
            CoeffTable("noncompact", {1: -6, 3: 28}, 3)
        assert CoeffTable("noncompact", {1: -6, 3: -28}, 3).values == {1: -6, 3: -28}

    def test_noncompact_names_the_first_break(self):
        # a 0 breaks the pattern at odd and at even n alike
        with pytest.raises(SignViolation, match="n = 2$"):
            CoeffTable("noncompact", {5: 86, 1: -6, 2: 0, 3: -28}, 5)
        with pytest.raises(SignViolation, match="n = 1$"):
            CoeffTable("noncompact", {1: 0, 2: -14}, 2)
        with pytest.raises(SignViolation, match="n = 2$"):
            CoeffTable("noncompact", {1: -6, 2: 0}, 2)

    @pytest.mark.parametrize("kind, name", [("k3", "compact"), ("ale", "ALE")])
    def test_positivity_names_the_first_n(self, kind, name):
        values = dict(zip(range(1, 11), COMPACT_TABLE))
        with pytest.raises(SignViolation, match=f"^{name} multiplicities must be positive, not at n = 4$"):
            CoeffTable(kind, {**values, 4: 0, 7: -5}, 10)
        # the smaller n, whatever order the table was built in
        with pytest.raises(SignViolation, match="not at n = 3$"):
            CoeffTable(kind, {9: -1, 3: -2, 1: 5}, 9)
        with pytest.raises(SignViolation, match="not at n = 2$"):
            CoeffTable(kind, {1: 5, 2: 0}, 2)

    def test_sign_violations_have_their_own_type(self):
        # a sign or positivity break is not an integrality failure
        for kind, values in (("k3", {1: 90, 2: -462}), ("ale", {1: 0}), ("noncompact", {1: -6, 2: -14})):
            with pytest.raises(SignViolation) as caught:
                CoeffTable(kind, values, len(values))
            assert not isinstance(caught.value, NonIntegralCoefficient)
        assert issubclass(SignViolation, mockforms.MockformsError)
        assert "SignViolation" in dir(mockforms)

    def test_table_type_fields(self):
        table = coeff_table("k3", 3)
        assert table.kind == "k3" and table.n_max == 3


class TestLambertOracle:
    """The tables against the Lambert-sum oracle (tests/oracles.py), which shares no code with them.

    Every n <= 10 000 of every kind is compared.  Each label's quotient is
    divided once per process (oracles.lambert_quotient), so the k3 row pays
    for all three labels and the other two reuse them: about 0.65 s for the
    three oracle tables (1.8–2.4 s when each kind divided its own labels,
    Python 3.11, 2 CPUs) and 0.33 s for deep_table, which
    test_ale_is_sixteenth_of_the_two_table_difference shares.
    """

    def test_eta_cubed_terms_are_the_cube_of_the_euler_product(self):
        # P = q^{-1/8} eta^3 = prod (1 - q^n)^3, expanded literally
        expanded = {e: c for e, c in triple_product_coeffs(60).items() if c}
        assert dict(analytic._eta_cubed_terms(61)) == expanded

    @pytest.mark.parametrize("kind", ["k3", "noncompact", "ale"])
    def test_every_n_to_10000(self, kind):
        assert deep_table(kind) == lambert_table(kind, DEEP)


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


def _weights(variant, n_max):
    """The tables' weights for the exact decomposition below q^{n_max}: A_n with A_0 = -2, or ALE_n."""
    if variant == "k3":
        return {0: -2, **coeff_table("k3", n_max - 1).values}
    return dict(coeff_table("ale", n_max - 1).values)


class TestDecompositionIdentity:
    # The paper's decomposition as an identity of integer series in q^{1/8}
    # and y, coefficient by coefficient below q^N (tests/oracles.py):
    #   Z_K3 eta^3  = theta_11^2 (24 mu + q^{-1/8} sum_{n>=0} A_n q^n),  A_0 = -2;
    #   Z_dec eta^3 = theta_11^2 (16 mu + 16 q^{-1/8} sum_{n>=1} ALE_n q^n).
    # Unlike the numeric decomposition residual, which sees a wrong A_1 only,
    # this checks every table entry below q^N.
    @pytest.mark.parametrize("variant", ("k3", "decompactified"))
    def test_holds_below_q100(self, variant):
        assert decomposition_mismatches(variant, _weights(variant, 100), 100) == []

    @pytest.mark.parametrize("variant", ("k3", "decompactified"))
    def test_one_wrong_entry_fails(self, variant):
        weights = _weights(variant, 30)
        assert decomposition_mismatches(variant, weights, 30) == []
        weights[29] += 1
        # theta_11^2 / q^{1/4} starts -(y - 2 + 1/y): three coefficients at q^29 move
        assert decomposition_mismatches(variant, weights, 30) == [(8 * 29, -1), (8 * 29, 0), (8 * 29, 1)]


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

"""Dedekind sums, Kloosterman sums and their memo, exact coefficient series."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mockforms import rademacher, shadow

from mockforms.characters import coeff_table
from mockforms.errors import BesselOverflow, NonPositiveArgument, NotCoprime
from mockforms.qseries import FracExp, partition_series
from mockforms.rademacher import (
    DedekindSumValue,
    bessel_i_half,
    bessel_i_three_half,
    cardy_entropy,
    dedekind_sum,
    exact_coefficient,
    kloosterman_quadratic,
    kloosterman_sum,
    leading_asymptotic,
    partition_multiplier_sum,
    rademacher_partition,
    sawtooth,
)
from mockforms.rademacher import _square_roots

from oracles import dedekind_phase_sum, k3_series_truncation

F = Fraction
KRONECKER_12 = {1: 1, 11: 1, 5: -1, 7: -1}  # (12/d) by d mod 12, zero elsewhere


class TestSawtooth:
    def test_integers_map_to_zero(self):
        for n in (-3, 0, 1, 7):
            assert sawtooth(n) == 0

    def test_one_third(self):
        assert sawtooth(F(1, 3)) == F(1, 3) - F(1, 2) == F(-1, 6)

    def test_odd(self):
        rng = random.Random(11)
        for _ in range(200):
            x = F(rng.randrange(-50, 50), rng.randrange(1, 50))
            if x.denominator == 1:
                continue
            assert sawtooth(x) + sawtooth(-x) == 0


class TestDedekindSum:
    def test_modulus_one(self):
        assert dedekind_sum(0, 1, "direct").value == 0
        assert dedekind_sum(5, 1, "euclid").value == 0

    def test_direct_1_3(self):
        # ((1/3))^2 + ((2/3))^2 = 1/36 + 1/36
        assert dedekind_sum(1, 3, "direct").value == F(1, 18)

    def test_euclid_1_2(self):
        # reciprocity with s(2,1) = 0: s(1,2) = -1/4 + (1/2 + 2 + 1/2)/12 = 0
        assert dedekind_sum(1, 2, "euclid").value == 0

    def test_methods_agree_up_to_200(self):
        for c in range(1, 201):
            for d in range(c) if c == 1 else range(1, c):
                if math.gcd(d, c) == 1:
                    assert dedekind_sum(d, c, "direct").value == dedekind_sum(d, c, "euclid").value

    def test_reciprocity_500_random_pairs_up_to_1e6(self):
        rng = random.Random(20090406)
        for _ in range(500):
            while True:
                c = rng.randrange(1, 10 ** 6)
                d = rng.randrange(1, 10 ** 6)
                if math.gcd(c, d) == 1:
                    break
            lhs = dedekind_sum(d, c).value + dedekind_sum(c, d).value
            rhs = F(-1, 4) + (F(d, c) + F(c, d) + F(1, c * d)) / 12
            assert lhs == rhs

    def test_negation_symmetry(self):
        for c in (5, 12, 101):
            for d in range(1, c):
                if math.gcd(d, c) == 1:
                    assert dedekind_sum(c - d, c, "direct").value == -dedekind_sum(d, c, "direct").value

    def test_denominator_divides_6c(self):
        rng = random.Random(13)
        for _ in range(200):
            c = rng.randrange(1, 2000)
            d = rng.randrange(0, c) if c > 1 else 0
            if math.gcd(d, c) != 1:
                continue
            assert (6 * c) % dedekind_sum(d, c).value.denominator == 0

    def test_euclid_rejects_noncoprime(self):
        with pytest.raises(NotCoprime):
            dedekind_sum(2, 4, "euclid")

    def test_wrapper_type(self):
        assert isinstance(dedekind_sum(1, 3), DedekindSumValue)


class TestKloosterman:
    def test_modulus_one(self):
        for n in (-4, 0, 3, 17):
            assert kloosterman_quadratic(n, 1) == 1
            assert kloosterman_sum(n, 1) == 1

    def test_modulus_two(self):
        for n in range(6):
            value = kloosterman_sum(n, 2)
            assert abs(value - (-1) ** n) < 1e-12

    def test_periodicity_in_n(self):
        for c in (3, 7, 12):
            for n in range(0, 15):
                assert kloosterman_sum(n, c) == kloosterman_sum(n + c, c)

    def test_realness(self):
        # the pairing d <-> c - d makes the Dedekind-phase form real; the
        # quadratic form the series use is real by construction
        worst = 0.0
        for c in range(1, 101):
            for n in range(0, 51):
                worst = max(worst, abs(dedekind_phase_sum(n, c).imag))
                assert type(kloosterman_sum(n, c)) is float
        assert worst < 1e-9

    def test_even_family_matches_full_sum(self, monkeypatch):
        # the noncompact series reuses the k3 memo entries at the even moduli
        monkeypatch.setattr(rademacher, "DEFAULT_CACHE", {})
        for n, m in ((1, 7), (4, 30), (9, 60)):
            exact_coefficient("k3", n, 2 * m)
            size = len(rademacher.DEFAULT_CACHE)
            exact_coefficient("noncompact", n, 2 * m)
            assert len(rademacher.DEFAULT_CACHE) == size, (n, m)


class TestKloostermanQuadratic:
    def test_hand_enumeration_c1_n0(self):
        # k in {1, 3} mod 4: -(i/2)[e^{i pi/2} - e^{3 i pi/2}] = 1
        assert abs(kloosterman_quadratic(0, 1) - 1) < 1e-12

    def test_empty_solution_set(self):
        # k^2 = 1 - 8n mod 8c with no odd solutions gives the empty sum
        found_empty = False
        for c in range(1, 10):
            for n in range(0, 10):
                target = (1 - 8 * n) % (8 * c)
                if all((k * k) % (8 * c) != target for k in range(1, 4 * c + 1, 2)):
                    assert kloosterman_quadratic(n, c) == 0
                    found_empty = True
        assert found_empty

    def test_matches_multiplier_sum_exhaustively(self):
        # against the Dedekind-phase form from the sawtooth definition
        for c in range(1, 26):
            for n in range(0, 26):
                delta = abs(kloosterman_quadratic(n, c) - dedekind_phase_sum(n, c))
                assert delta < 1e-9, (n, c, delta)

    def test_matches_odd_k_scan(self):
        # every modulus up to 400, which covers c = 2^k, 3^k, 2 5^k and the
        # moduli sharing a prime with 1 - 8n
        for c in range(1, 401):
            scan = odd_roots_by_square(c)
            for n in range(-20, 41):
                expected = quadratic_scan_value(scan.get((1 - 8 * n) % (8 * c), ()), c)
                got = kloosterman_quadratic(n, c)
                assert type(got) is float and abs(got - expected) < 1e-12, (n, c)

    def test_prime_power_moduli_sharing_a_prime_with_the_target(self):
        # 1 - 8n divisible by high powers of p, with c a power of p
        for p, e_max in ((3, 7), (5, 5), (7, 4), (11, 3)):
            for e in range(1, e_max + 1):
                c = p ** e
                scan = odd_roots_by_square(c)
                for v in range(0, e + 2):
                    n = next(n for n in range(-8 * c * p, 8 * c * p) if (1 - 8 * n) % p ** v == 0
                             and (v > e or (1 - 8 * n) % p ** (v + 1)))
                    expected = quadratic_scan_value(scan.get((1 - 8 * n) % (8 * c), ()), c)
                    assert abs(kloosterman_quadratic(n, c) - expected) < 1e-12, (n, c, v)

    def test_square_roots_against_full_scan(self):
        for m in range(1, 600):
            squares = {}
            for x in range(m):
                squares.setdefault(x * x % m, []).append(x)
            for a in list(range(-10, 30)) + [0, m, 5 * m + 4]:
                assert _square_roots(a, m) == squares.get(a % m, []), (a, m)

    @settings(max_examples=150, deadline=None)
    @given(c=st.integers(1, 5000), n=st.integers(-10 ** 6, 10 ** 6))
    def test_matches_odd_k_scan_property(self, c, n):
        target = (1 - 8 * n) % (8 * c)
        ks = [k for k in range(1, 4 * c + 1, 2) if k * k % (8 * c) == target]
        got = kloosterman_quadratic(n, c)
        assert type(got) is float and abs(got - quadratic_scan_value(ks, c)) < 1e-12

    def test_series_never_build_phase_rows(self, monkeypatch):
        # the Dedekind-phase rows are the reference form only
        def no_dedekind_sums(d, c):
            raise AssertionError("a series computed a Dedekind sum")

        monkeypatch.setattr(rademacher, "_phase_rows", {})
        monkeypatch.setattr(rademacher, "DEFAULT_CACHE", {})
        monkeypatch.setattr(rademacher, "_dedekind_euclid", no_dedekind_sums)
        monkeypatch.setattr(shadow, "_dedekind_euclid", no_dedekind_sums)
        exact_coefficient("k3", 11, 60)
        exact_coefficient("noncompact", 11, 60)
        shadow.shadow_coefficient(1, 60)
        rademacher_partition(40, 20)
        assert rademacher._phase_rows == {}


def odd_roots_by_square(c: int) -> dict[int, list[int]]:
    """Odd k in [1, 4c] grouped by k^2 mod 8c, ascending, by a full scan."""
    by_square: dict[int, list[int]] = {}
    for k in range(1, 4 * c + 1, 2):
        by_square.setdefault(k * k % (8 * c), []).append(k)
    return by_square


def quadratic_scan_value(ks, c: int) -> float:
    """(sqrt(c) / 2) sum (-4/k) sin(pi k / (2c)) over the scanned roots k."""
    return math.sqrt(c) / 2 * math.fsum((1 if k % 4 == 1 else -1) * math.sin(math.pi * k / (2 * c)) for k in ks)


REFERENCE_K3_TABLE = {
    # n: (exact, leading, 5 terms, 20 terms)
    2: (462, 453.018, 462.026, 462.427),
    5: (11592, 11662.495, 11594.141, 11592.421),
    20: (126894174, 126889894.140, 126894174.078, 126894173.718),
    30: (9104078592, 9104043456.138, 9104078600.515, 9104078592.403),
    40: (342322413552, 342322217629.135, 342322413549.736, 342322413551.574),
    45: (1778826191324, 1778826619936.736, 1778826191295.658, 1778826191322.367),
}

REFERENCE_NONCOMPACT_TABLE = {
    # n: (exact, leading, 5 terms = c <= 10, 10 terms = c <= 20)
    5: (-56, -61.111, -56.544, -56.336),
    20: (4510, 4486.206, 4511.303, 4509.981),
    21: (-5544, -5598.785, -5543.374, -5543.584),
    40: (195888, 195787.459, 195888.432, 195887.820),
    60: (3772468, 3772123.173, 3772465.128, 3772468.117),
    100: (438370422, 438366833.884, 438370424.848, 438370421.862),
}


class TestExactCoefficient:
    def test_k3_truncation_table(self):
        for n, (_, _, five, twenty) in REFERENCE_K3_TABLE.items():
            tol = 0.5 if n == 45 else 0.005
            assert exact_coefficient("k3", n, 5).cumulative == pytest.approx(five, abs=tol)
            assert exact_coefficient("k3", n, 20).cumulative == pytest.approx(twenty, abs=tol)

    def test_noncompact_truncation_table(self):
        for n, (_, _, five, ten) in REFERENCE_NONCOMPACT_TABLE.items():
            assert exact_coefficient("noncompact", n, 10).cumulative == pytest.approx(five, abs=0.01)
            assert exact_coefficient("noncompact", n, 20).cumulative == pytest.approx(ten, abs=0.01)

    def test_noncompact_uses_even_moduli_only(self):
        partial = exact_coefficient("noncompact", 5, 20)
        assert [c for c, _ in partial.terms] == list(range(2, 21, 2))

    def test_leading_terms(self):
        for n, (_, lead, _, _) in REFERENCE_K3_TABLE.items():
            tol = 0.5 if n >= 40 else 0.005
            assert leading_asymptotic("k3", n) == pytest.approx(lead, abs=tol)
        for n, (_, lead, _, _) in REFERENCE_NONCOMPACT_TABLE.items():
            assert leading_asymptotic("noncompact", n) == pytest.approx(lead, abs=0.01)

    def test_leading_equals_first_term(self):
        partial = exact_coefficient("k3", 7, 1)
        assert partial.cumulative == pytest.approx(leading_asymptotic("k3", 7), rel=1e-12)
        assert leading_asymptotic("k3", 7) == partial.terms[0][1]

    def test_cumulative_is_prefix_sum_and_reproducible(self):
        a = exact_coefficient("k3", 12, 20)
        b = exact_coefficient("k3", 12, 20)
        assert a.terms == b.terms and a.cumulative == b.cumulative
        assert a.cumulative == pytest.approx(math.fsum(t for _, t in a.terms), abs=0.0)

    def test_twenty_term_misses_belong_to_the_series(self):
        # the quadratic-form oracle (no Dedekind sums) gives the same 20-term
        # sums, and both miss A_n by more than 1/2 here: the misses come from
        # truncating the series, not from how its terms are computed
        compact = coeff_table("k3", 24)
        for n in (6, 11, 14, 24):
            oracle = k3_series_truncation(n, 20)
            assert exact_coefficient("k3", n, 20).cumulative == pytest.approx(oracle, abs=1e-3)
            assert abs(oracle - compact.values[n]) > 0.5

    def test_rounding_recovers_exact_values(self):
        for n, (exact, _, _, _) in REFERENCE_K3_TABLE.items():
            if n <= 30:
                assert round(exact_coefficient("k3", n, 20).cumulative) == exact
        for n, (exact, _, _, _) in REFERENCE_NONCOMPACT_TABLE.items():
            assert round(exact_coefficient("noncompact", n, 20).cumulative) == exact


class TestBesselClosedForms:
    def test_small_argument_law(self):
        # I_alpha(x) ~ (x/2)^alpha / Gamma(alpha + 1); Gamma(3/2) = sqrt(pi)/2
        x = 1e-4
        scaled = bessel_i_half(x) * math.gamma(1.5) * (2.0 / x) ** 0.5
        assert scaled == pytest.approx(1.0, rel=1e-6)

    def test_three_half_small_argument(self):
        x = 1e-3
        scaled = bessel_i_three_half(x) * math.gamma(2.5) * (2.0 / x) ** 1.5
        assert scaled == pytest.approx(1.0, rel=1e-5)

    def test_positive_argument_required(self):
        with pytest.raises(NonPositiveArgument):
            bessel_i_half(0.0)

    def test_reference_combination(self):
        value = 4 * math.pi / 15 ** 0.25 * bessel_i_half(math.pi * math.sqrt(15) / 2)
        assert value == pytest.approx(453.018, abs=0.01)

    def test_overflow_is_typed(self):
        # sinh and cosh leave the double range just above x = 710.47
        assert math.isfinite(bessel_i_half(710.0)) and math.isfinite(bessel_i_three_half(710.0))
        for bessel in (bessel_i_half, bessel_i_three_half):
            with pytest.raises(BesselOverflow):
                bessel(711.0)

    def test_exact_coefficient_overflow_is_typed(self, monkeypatch):
        # the c = 1 argument pi sqrt(8n - 1)/2 passes 710.47 just above n = 25573
        monkeypatch.setattr(rademacher, "DEFAULT_CACHE", {})
        with pytest.raises(BesselOverflow):
            exact_coefficient("k3", 26000, 3)


class TestEntropy:
    def test_square_is_algebraic(self):
        for n in (1, 7, 45):
            assert cardy_entropy(n) ** 2 / (4 * math.pi ** 2) == pytest.approx(n / 2, rel=1e-14)

    def test_a45_ratio_in_band(self):
        ratio = math.log(1778826191324) / cardy_entropy(45)
        assert 0.94 <= ratio <= 1.00

    def test_ratio_monotone_on_tabulated_points(self):
        exact = {10: 521136, 20: 126894174, 30: 9104078592,
                 40: 342322413552, 45: 1778826191324}
        ratios = [math.log(exact[n]) / cardy_entropy(n) for n in (10, 20, 30, 40, 45)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


class TestPartitionSeries:
    def test_p10(self):
        assert round(rademacher_partition(10, 20)) == 42

    def test_p50_against_generating_function(self):
        exact = int(partition_series(FracExp(24 * 52)).coefficient(50))
        assert round(rademacher_partition(50, 20)) == exact

    def test_p1_single_term(self):
        assert round(rademacher_partition(1, 1)) == 1

    def test_multiplier_sum_is_real(self):
        for n in (1, 10, 37):
            for c in range(1, 21):
                assert type(partition_multiplier_sum(n, c)) is float

    def test_multiplier_sum_matches_full_residue_scan(self):
        # sum over every d mod 24c with d^2 = 1 - 24n, normalised to [1, 24c]
        for c in range(1, 61):
            m = 24 * c
            roots: dict[int, list[int]] = {}
            for d in range(1, m + 1):
                roots.setdefault(d * d % m, []).append(d)
            for n in range(1, 201):
                terms = [KRONECKER_12[d % 12] * cmath.exp(1j * math.pi * d / (6 * c))
                         for d in roots.get((1 - 24 * n) % m, ())]
                expected = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
                assert abs(partition_multiplier_sum(n, c) - expected) < 1e-12, (n, c)


class TestCache:
    def test_kloosterman_populates_cache(self, monkeypatch):
        # one miss stores one (c, n mod c) entry; n + c is then a hit
        monkeypatch.setattr(rademacher, "DEFAULT_CACHE", {})
        value = kloosterman_sum(4, 9)
        assert rademacher.DEFAULT_CACHE == {(9, 4): value}

        def no_recompute(n, c):
            raise AssertionError("a memo hit recomputed the sum")

        monkeypatch.setattr(rademacher, "kloosterman_quadratic", no_recompute)
        assert kloosterman_sum(4 + 9, 9) == value
        assert rademacher.DEFAULT_CACHE == {(9, 4): value}

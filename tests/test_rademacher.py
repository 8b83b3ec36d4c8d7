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
from mockforms.rademacher import _partition_sums, _quadratic_sums, _root_sets, _sqrt_mod_prime

from oracles import dedekind_phase_sum, k3_series_truncation

F = Fraction
KRONECKER_12 = {1: 1, 11: 1, 5: -1, 7: -1}  # (12/d) by d mod 12, zero elsewhere

# Odd primes of each class of closed-form root: p = 1 (mod 8), 5 (mod 8), 3 (mod 4)
ROOT_PATH_PRIMES = (17, 41, 73, 89, 97, 5, 13, 29, 37, 53, 3, 7, 11, 19, 23)


def is_square_mod(a: int, p: int) -> bool:
    return any((x * x - a) % p == 0 for x in range(p))


@st.composite
def root_path_cases(draw):
    """(a, c, m): c = shape * q * p^e, a = 1 (mod 8) divisible by p^k, 2mc small enough for a full scan."""
    p = draw(st.sampled_from(ROOT_PATH_PRIMES))
    q = draw(st.sampled_from([q for q in (1, 3, 5, 7, 11, 13) if q != p]))
    shape = draw(st.sampled_from((1, 2, 8)))
    m = draw(st.sampled_from((4, 12)))
    e_max = max(e for e in range(1, 8) if e == 1 or 2 * m * shape * q * p ** e <= 80000)
    e = draw(st.integers(1, e_max))
    k = draw(st.integers(0, e + 1))
    t = draw(st.integers(-10 ** 5, 10 ** 5))
    # a = p^k (8t + s) with p^k s = 1 (mod 8)
    return p ** k * (8 * t + pow(p ** k, -1, 8)), shape * q * p ** e, m


def scanned_roots(a: int, c: int, m: int) -> list[int]:
    """Every x in [0, mc) with x^2 = a (mod 2mc), by a full scan."""
    return [x for x in range(m * c) if (x * x - a) % (2 * m * c) == 0]


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

    def test_even_family_matches_full_sum(self):
        # the noncompact series has the k3 multiplier sums, and terms, at every even modulus
        for n, m in ((1, 7), (4, 30), (9, 60), (30, 400)):
            assert _quadratic_sums(n, range(2, 2 * m + 1, 2)) == _quadratic_sums(n, range(1, 2 * m + 1))[1::2]
            k3 = exact_coefficient("k3", n, 2 * m).terms
            assert exact_coefficient("noncompact", n, 2 * m).terms == k3[1::2], (n, m)


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
        # the kernel's root sets, over a run of moduli and one modulus at a time
        for m, c_max in ((4, 300), (12, 120)):
            squares = [{} for _ in range(c_max + 1)]
            for c in range(1, c_max + 1):
                for x in range(m * c):
                    squares[c].setdefault(x * x % (2 * m * c), []).append(x)
            for a in [1 - 8 * n for n in range(-12, 31)] + [1 - 24 * n for n in range(1, 40)]:
                walk = list(_root_sets(a, range(1, c_max + 1), m))
                assert [c for c, _ in walk] == list(range(1, c_max + 1))
                for c, roots in walk:
                    assert sorted(roots) == squares[c].get(a % (2 * m * c), []), (a, c, m)
            for c in range(1, c_max + 1):
                for a in (1, 9, -7, -23, 1 - 8 * (2 * m * c + 5)):
                    [(_, roots)] = _root_sets(a, (c,), m)
                    assert sorted(roots) == squares[c].get(a % (2 * m * c), []), (a, c, m)

    @settings(max_examples=200, deadline=None)
    @given(case=root_path_cases())
    def test_square_roots_at_every_root_path(self, case):
        # prime powers of each closed-form class, with targets divisible by p^k,
        # a second odd prime before or after p and 2-parts 1, 2 and 8 of c
        a, c, m = case
        [(_, roots)] = _root_sets(a, (c,), m)
        assert sorted(roots) == scanned_roots(a, c, m), (a, c, m)

    def test_prime_roots_by_residue_class(self):
        # Tonelli-Shanks (p = 1 mod 8), Atkin (p = 5 mod 8), one power (p = 3 mod 4)
        seen = set()
        for p in range(3, 2000, 2):
            if any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
                continue
            seen.add(p % 8)
            for x in (1, 2, 3, p // 2, p // 3 + 1, p - 1):
                a = x * x % p
                if a:
                    r = _sqrt_mod_prime(a, p)
                    assert 0 <= r < p and r * r % p == a, (a, p)
        assert seen == {1, 3, 5, 7}

    def test_empty_root_sets_take_no_root(self):
        # one odd prime has no root and the other has, in either order: the
        # root set is empty and so is the sum
        for p in (17, 41, 13, 29, 7, 23):
            for m in (4, 12):
                for shape in (1, 2, 8):
                    c = shape * 5 * p
                    for rootless, rooted in ((5, p), (p, 5)):
                        a = next(a for a in range(1, 8 * c, 8) if not is_square_mod(a, rootless)
                                 and is_square_mod(a, rooted) and a % 3 == 1)
                        [(_, roots)] = _root_sets(a, (c,), m)
                        assert roots == [] == scanned_roots(a, c, m), (a, c, m)
        for c in range(1, 301):
            scan = odd_roots_by_square(c)
            for n in range(-20, 41):
                if not scan.get((1 - 8 * n) % (8 * c)):
                    assert kloosterman_quadratic(n, c) == 0.0

    def test_bit_identical_to_odd_k_scan(self):
        # the kernel's value is the scan's, bit for bit: fsum is correctly
        # rounded, so the order in which the roots come cannot change a bit
        for c in range(1, 301):
            scan = odd_roots_by_square(c)
            for n in range(-20, 41):
                expected = quadratic_scan_value(scan.get((1 - 8 * n) % (8 * c), ()), c)
                assert kloosterman_quadratic(n, c) == expected, (n, c)

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


def partition_scan_value(n: int, c: int, roots_by_square: dict[int, list[int]]) -> float:
    """fsum of (12/d) cos(pi d / (6c)) over every d mod 24c with d^2 = 1 - 24n, from a full scan."""
    return math.fsum(KRONECKER_12[d % 12] * math.cos(math.pi * d / (6 * c))
                     for d in roots_by_square.get((1 - 24 * n) % (24 * c), ()))


def residue_roots_by_square(m: int) -> dict[int, list[int]]:
    """Every d in [0, m) grouped by d^2 mod m, by a full scan."""
    by_square: dict[int, list[int]] = {}
    for d in range(m):
        by_square.setdefault(d * d % m, []).append(d)
    return by_square


# Moduli of the deep 2-parts, of odd prime powers, of a prime square sharing
# its prime with 1 - 8n, and primes p = 1 (mod 8), whose roots take Tonelli-Shanks
DEEP_MODULI = (512, 1024, 3 ** 5, 9 * 49, 9, 27, 2 * 27, 25, 4 * 125, 49, 17, 41, 73, 97, 113, 2 * 17 * 41, 17 ** 2)


class TestSeriesKernel:
    """One pass of the kernel over a series' moduli against full residue scans, bit for bit."""

    def test_quadratic_pass_bit_identical_to_odd_k_scan(self):
        scans = {c: odd_roots_by_square(c) for c in range(1, 201)}
        # the k3 and noncompact series (n <= 30) and the shadow series (-n for n <= 11)
        for n in list(range(1, 31)) + list(range(0, -12, -1)):
            expected = [quadratic_scan_value(scans[c].get((1 - 8 * n) % (8 * c), ()), c) for c in range(1, 201)]
            assert _quadratic_sums(n, range(1, 201)) == expected, n

    def test_quadratic_pass_on_deep_moduli(self):
        scans = {c: odd_roots_by_square(c) for c in DEEP_MODULI}
        branches = set()
        for n in list(range(-11, 61)) + [8, 26, 1 + 9 * 27, 26 + 3 ** 6]:
            a = 1 - 8 * n
            expected = [quadratic_scan_value(scans[c].get(a % (8 * c), ()), c) for c in DEEP_MODULI]
            assert _quadratic_sums(n, DEEP_MODULI) == expected, n
            assert [kloosterman_quadratic(n, c) for c in DEEP_MODULI] == expected, n
            for p, e in ((3, 5), (3, 2), (5, 3), (7, 2)):
                # a = p^v u (mod p^e): u = 0 when p^e divides a, else an
                # even v > 0 with u a square mod p takes the h = v/2 > 0 branch
                v = p_adic_valuation(a, p, e)
                if v == e:
                    branches.add("u = 0")
                elif v and v % 2 == 0 and is_square_mod(a // p ** v, p):
                    branches.add("h > 0")
        assert branches == {"u = 0", "h > 0"}

    def test_partition_pass_bit_identical_to_full_residue_scan(self):
        moduli = list(range(1, 61)) + [512, 243, 441, 17 * 41]
        scans = {c: residue_roots_by_square(24 * c) for c in moduli}
        for n in list(range(1, 201)) + [1 + 9 * 27, 26 + 3 ** 6]:
            expected = [partition_scan_value(n, c, scans[c]) for c in moduli]
            assert _partition_sums(n, moduli) == expected, n

    def test_prime_power_roots_are_shared_across_moduli(self, monkeypatch):
        # one k3 series at 1200 moduli roots each odd prime power once, and
        # computes each odd part once, not once per modulus it divides
        rooted: dict[tuple[int, int], int] = {}
        split: dict[int, int] = {}
        prime_power_roots, odd_roots = rademacher._prime_power_roots, rademacher._odd_roots

        def counted_prime_power(a, p, e):
            rooted[p, e] = rooted.get((p, e), 0) + 1
            return prime_power_roots(a, p, e)

        def counted_odd(a, o, memo):
            split[o] = split.get(o, 0) + 1
            return odd_roots(a, o, memo)

        monkeypatch.setattr(rademacher, "_prime_power_roots", counted_prime_power)
        monkeypatch.setattr(rademacher, "_odd_roots", counted_odd)
        exact_coefficient("k3", 11, 1200)
        assert rooted and max(rooted.values()) == 1
        assert all(p % 2 == 1 and p ** e <= 1200 for p, e in rooted)
        assert split and max(split.values()) == 1
        assert all(o % 2 == 1 and 1 < o <= 1200 for o in split)

    def test_walk_order_does_not_change_the_root_sets(self):
        # the memo is filled in the order the moduli come: a descending and a
        # shuffled walk must give the root sets of the ascending one
        c_max = 400
        ascending = list(range(1, c_max + 1))
        shuffled = ascending[:]
        random.Random(14).shuffle(shuffled)
        for m, targets in ((4, [1 - 8 * n for n in range(-11, 31)] + [1 - 8 * (1 + 9 * 27)]),
                           (12, [1 - 24 * n for n in range(1, 41)] + [1 - 24 * (26 + 3 ** 6)])):
            for a in targets:
                expected = {c: sorted(roots) for c, roots in _root_sets(a, ascending, m)}
                for order in (list(reversed(ascending)), shuffled):
                    walk = list(_root_sets(a, order, m))
                    assert [c for c, _ in walk] == order
                    assert {c: sorted(roots) for c, roots in walk} == expected, (a, m)


def p_adic_valuation(a: int, p: int, e: int) -> int:
    """The largest v <= e with p^v dividing a."""
    v = 0
    while v < e and a % p ** (v + 1) == 0:
        v += 1
    return v


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

    def test_noncompact_without_moduli_is_empty(self):
        # c_max = 1 leaves no even modulus: an empty partial, not an error
        for n in (1, 2, 11):
            partial = exact_coefficient("noncompact", n, 1)
            assert partial.terms == [] and partial.cumulative == 0.0
            assert _quadratic_sums(n, range(2, 2, 2)) == []

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


    def test_multiplier_sum_bit_identical_to_full_residue_scan(self):
        # every d mod 24c with d^2 = 1 - 24n and the kernel's own cosine, bit for bit
        for c in range(1, 41):
            m = 24 * c
            roots: dict[int, list[int]] = {}
            for d in range(m):
                roots.setdefault(d * d % m, []).append(d)
            for n in range(1, 201):
                expected = math.fsum(KRONECKER_12[d % 12] * math.cos(math.pi * d / (6 * c))
                                     for d in roots.get((1 - 24 * n) % m, ()))
                assert partition_multiplier_sum(n, c) == expected, (n, c)


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

"""Dedekind sums, Kloosterman sums and their memo, exact coefficient series."""

import cmath
import hashlib
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    bessel_j_half,
    cardy_entropy,
    dedekind_sum,
    exact_coefficient,
    kloosterman_quadratic,
    kloosterman_sum,
    leading_asymptotic,
    partition_multiplier_sum,
    rademacher_partition,
)
from mockforms.rademacher import (
    _half_roots,
    _multiplier_products,
    _prime_power_roots,
    _sqrt_mod_prime,
)

from oracles import dedekind_phase_sum, k3_series_truncation

F = Fraction


def quadratic_pass(n: int, moduli) -> list[float]:
    """kloosterman_quadratic(n, c) for each c of moduli, in one pass of the kernel, as _series forms it."""
    moduli = list(moduli)
    return [math.sqrt(c) / 2 * product for c, product in zip(moduli, _multiplier_products(1 - 8 * n, moduli, 4))]


def partition_pass(n: int, moduli) -> list[float]:
    """partition_multiplier_sum(n, c) for each c of moduli, in one pass of the kernel, as _series forms it."""
    return [-2.0 * product for product in _multiplier_products(1 - 24 * n, moduli, 12)]


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


def odd_prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, e) for each odd prime power p^e exactly dividing n, by trial division."""
    n //= n & -n
    powers, p = [], 3
    while n > 1:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            powers.append((p, e))
        p += 2
    return powers


def scanned_prime_power_roots(a: int, p: int, e: int) -> list[int]:
    """Every x in [0, p^e) with x^2 = a (mod p^e), by a full scan."""
    return [x for x in range(p ** e) if (x * x - a) % p ** e == 0]


def product_scan_value(a: int, c: int, m: int) -> float:
    """The kernel's P(c) from a full scan: sum (-4/x) sin(2 pi x / 4c) for m = 4, -sum (12/x) cos(2 pi x / 12c) for m = 12."""
    if m == 4:
        return math.fsum((1 if x % 4 == 1 else -1) * math.sin(2 * math.pi * x / (4 * c)) for x in scanned_roots(a, c, 4))
    return -math.fsum(KRONECKER_12[x % 12] * math.cos(2 * math.pi * x / (12 * c)) for x in scanned_roots(a, c, 12))


EPS = 2.0 ** -52  # the spacing of doubles in [1, 2)


def rounding_bound(scale: float, roots: int, parts: int) -> float:
    """Largest |kernel - full scan| that rounding allows for one multiplier sum.

    Both sides are scale times a sum over the same `roots` roots x mod mc
    of +-1 times a sine or cosine; the kernel forms it as a product of
    `parts` factors, one per prime power of mc, and each factor sums the
    terms of R_j roots, with prod R_j = roots.
    - Every angle is fl(fl(pi) k / q) (or with fl(2 pi), exactly twice
      fl(pi)) of exact integers k, q and at most 4 pi: three roundings
      make a relative error below 3 EPS / 2, so an absolute one below
      6 pi EPS < 19 EPS.  The library sine or cosine adds below one EPS,
      so every term, for each root it stands for, is off by < 20 EPS.
    - The scan adds its `roots` terms with fsum: < roots (20 + 1) EPS.
    - A kernel factor adds at most R_j terms of size <= 2 whose sizes sum
      to <= R_j in plain floating point, which adds < R_j^2 EPS / 2 to
      its R_j 20 EPS; |factor| <= R_j.  Over `parts` factors and
      parts - 1 products the product is off by
      < roots (parts (20 + roots / 2) + parts / 2) EPS.
    - The scale sqrt(c) / 2 or -2 adds < 2 roots EPS on the two sides.
    All of it is below scale roots (parts + 1) (23 + roots / 2) EPS.  The
    bound is 0 when there is no root: both sides are then exactly 0.0.
    """
    return scale * roots * (parts + 1) * (23 + roots / 2) * EPS


def prime_count(n: int) -> int:
    """omega(n): the number of distinct primes of n, the kernel's parts for modulus n."""
    return (n % 2 == 0) + len(odd_prime_powers(n))


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
            assert quadratic_pass(n, range(2, 2 * m + 1, 2)) == quadratic_pass(n, range(1, 2 * m + 1))[1::2]
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
        # the roots modulo every odd prime power below 1200, for the targets
        # of the k3, noncompact, shadow and partition series and targets
        # divisible by p and p^2; None exactly when the scan finds no root
        targets = [1 - 8 * n for n in range(-12, 31)] + [1 - 24 * n for n in range(1, 40)]
        for p in range(3, 1200, 2):
            if any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
                continue
            for e in range(1, 12):
                if p ** e >= 1200:
                    break
                q = p ** e
                squares: dict[int, list[int]] = {}
                for x in range(q):
                    squares.setdefault(x * x % q, []).append(x)
                for a in targets + [p * (8 * p + 1), p * p * (8 * p + 1), q, 0]:
                    roots = _prime_power_roots(a, p, e)
                    assert (roots is None) == (a % q not in squares), (a, p, e)
                    assert sorted(roots or []) == squares.get(a % q, []), (a, p, e)

    @settings(max_examples=200, deadline=None)
    @given(case=root_path_cases())
    def test_square_roots_at_every_root_path(self, case):
        # prime powers of each closed-form class, with targets divisible by p^k,
        # a second odd prime before or after p and 2-parts 1, 2 and 8 of c
        a, c, m = case
        for p, e in odd_prime_powers(m * c):
            assert sorted(_prime_power_roots(a, p, e) or []) == scanned_prime_power_roots(a, p, e), (a, p, e)
        if m == 4 or a % 3 == 1:  # the partition kernel takes a = 1 (mod 3), as 1 - 24n is
            [got] = _multiplier_products(a, (c,), m)
            bound = rounding_bound(1, len(scanned_roots(a, c, m)), prime_count(m * c))
            assert abs(got - product_scan_value(a, c, m)) <= bound, (a, c, m)

    def test_prime_roots_by_residue_class(self):
        # Tonelli-Shanks (p = 1 mod 8), Atkin (p = 5 mod 8), one power (p = 3 mod 4):
        # squares and non-residues of every class; None exactly when a is not a square mod p
        seen = set()
        for p in range(3, 2000, 2):
            if any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
                continue
            seen.add(p % 8)
            squares = {x * x % p for x in range(1, p)}
            non_residues = [a for a in range(1, p) if a not in squares]
            targets = {x * x % p for x in (1, 2, 3, p // 2, p // 3 + 1, p - 1)} - {0}
            targets |= set(non_residues[:3] + non_residues[-3:])
            assert targets - squares
            for a in targets:
                r = _sqrt_mod_prime(a, p)
                if a in squares:
                    assert r is not None and 0 <= r < p and r * r % p == a, (a, p)
                else:
                    assert r is None, (a, p)
        assert seen == {1, 3, 5, 7}

    def test_empty_root_sets_take_no_root(self, monkeypatch):
        # one odd prime has no root and the other has, in either order: the
        # sum is exactly 0.0, and a prime after the rootless one is not rooted
        calls = []

        def counted(a, p, e):
            calls.append(p)
            return _half_roots(a, p, e)

        monkeypatch.setattr(rademacher, "_half_roots", counted)
        for p in (17, 41, 13, 29, 7, 23):
            for m in (4, 12):
                for shape in (1, 2, 8):
                    c = shape * 5 * p
                    for rootless, rooted in ((5, p), (p, 5)):
                        a = next(a for a in range(1, 8 * c, 8) if not is_square_mod(a, rootless)
                                 and is_square_mod(a, rooted) and a % 3 == 1)
                        assert _prime_power_roots(a, rootless, 1) is None
                        assert scanned_roots(a, c, m) == []
                        calls.clear()
                        assert _multiplier_products(a, (c,), m) == [0.0], (a, c, m)
                        assert calls[-1] == rootless, (a, c, m)
        for c in range(1, 301):
            scan = odd_roots_by_square(c)
            for n in range(-20, 41):
                if not scan.get((1 - 8 * n) % (8 * c)):
                    assert kloosterman_quadratic(n, c) == 0.0

    def test_within_rounding_of_odd_k_scan(self):
        # the kernel's product agrees with the scan's sum over the roots k
        # within the rounding both may make (rounding_bound)
        for c in range(1, 301):
            scan = odd_roots_by_square(c)
            parts = prime_count(4 * c)
            for n in range(-20, 41):
                ks = scan.get((1 - 8 * n) % (8 * c), ())
                expected = quadratic_scan_value(ks, c)
                bound = rounding_bound(math.sqrt(c) / 2, len(ks), parts)
                assert abs(kloosterman_quadratic(n, c) - expected) <= bound, (n, c)

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
    """One pass of the kernel over a series' moduli against full residue scans, within rounding."""

    def test_quadratic_pass_within_rounding_of_odd_k_scan(self):
        scans = {c: odd_roots_by_square(c) for c in range(1, 201)}
        # the k3 and noncompact series (n <= 30) and the shadow series (-n for n <= 11)
        for n in list(range(1, 31)) + list(range(0, -12, -1)):
            got = quadratic_pass(n, range(1, 201))
            for c, value in zip(range(1, 201), got):
                ks = scans[c].get((1 - 8 * n) % (8 * c), ())
                bound = rounding_bound(math.sqrt(c) / 2, len(ks), prime_count(4 * c))
                assert abs(value - quadratic_scan_value(ks, c)) <= bound, (n, c)

    def test_quadratic_pass_on_deep_moduli(self):
        scans = {c: odd_roots_by_square(c) for c in DEEP_MODULI}
        branches = set()
        for n in list(range(-11, 61)) + [8, 26, 1 + 9 * 27, 26 + 3 ** 6]:
            a = 1 - 8 * n
            got = quadratic_pass(n, DEEP_MODULI)
            for c, value in zip(DEEP_MODULI, got):
                ks = scans[c].get(a % (8 * c), ())
                bound = rounding_bound(math.sqrt(c) / 2, len(ks), prime_count(4 * c))
                assert abs(value - quadratic_scan_value(ks, c)) <= bound, (n, c)
            assert [kloosterman_quadratic(n, c) for c in DEEP_MODULI] == got, n
            for p, e in ((3, 5), (3, 2), (5, 3), (7, 2)):
                # a = p^v u (mod p^e): u = 0 when p^e divides a, else an
                # even v > 0 with u a square mod p takes the h = v/2 > 0 branch
                v = p_adic_valuation(a, p, e)
                if v == e:
                    branches.add("u = 0")
                elif v and v % 2 == 0 and is_square_mod(a // p ** v, p):
                    branches.add("h > 0")
        assert branches == {"u = 0", "h > 0"}

    def test_partition_pass_within_rounding_of_full_residue_scan(self):
        moduli = list(range(1, 61)) + [512, 243, 441, 17 * 41]
        scans = {c: residue_roots_by_square(24 * c) for c in moduli}
        for n in list(range(1, 201)) + [1 + 9 * 27, 26 + 3 ** 6]:
            got = partition_pass(n, moduli)
            for c, value in zip(moduli, got):
                roots = len(scans[c].get((1 - 24 * n) % (24 * c), ())) // 2
                bound = rounding_bound(2, roots, prime_count(12 * c))
                assert abs(value - partition_scan_value(n, c, scans[c])) <= bound, (n, c)

    def test_partition_pass_on_deep_moduli(self):
        # 3^f exactly dividing c with f >= 3, next to odd primes that divide
        # 1 - 24n to the first and second power and past their exponent in c
        moduli = (27, 81, 243, 2 * 81, 27 * 5, 81 * 7, 27 * 25, 27 * 49, 27 * 11 * 13)
        scans = {c: residue_roots_by_square(24 * c) for c in moduli}
        branches = set()
        for n in list(range(1, 121)) + [26, 26 + 25 * 24, 51 + 49 * 24, 1 + 25 * 3 * 24]:
            a = 1 - 24 * n
            got = partition_pass(n, moduli)
            for c, value in zip(moduli, got):
                roots = len(scans[c].get(a % (24 * c), ())) // 2
                bound = rounding_bound(2, roots, prime_count(12 * c))
                assert abs(value - partition_scan_value(n, c, scans[c])) <= bound, (n, c)
            assert [partition_multiplier_sum(n, c) for c in moduli] == got, n
            for p, e in ((5, 2), (7, 2), (11, 1), (13, 1)):
                v = p_adic_valuation(a, p, e)
                if v == e:
                    branches.add(f"p^e | a, p = {p}")
                elif v:
                    branches.add(f"p | a, p = {p}")
        assert {"p^e | a, p = 5", "p^e | a, p = 7", "p^e | a, p = 11", "p | a, p = 5", "p | a, p = 7"} <= branches

    def test_prime_power_roots_are_shared_across_moduli(self, monkeypatch):
        # one series roots each odd prime power once, however many of its
        # moduli it divides: the k3 series at 1200 moduli, the shadow series
        # at 800 and the partition series at 200
        rooted: dict[tuple[int, int], int] = {}

        def counted(a, p, e):
            rooted[p, e] = rooted.get((p, e), 0) + 1
            return _half_roots(a, p, e)

        monkeypatch.setattr(rademacher, "_half_roots", counted)
        by_series = {}
        for name, series, c_max in (("k3", lambda: exact_coefficient("k3", 11, 1200), 1200),
                                    ("shadow", lambda: shadow.shadow_coefficient(3, 800), 800),
                                    ("partition", lambda: rademacher_partition(37, 200), 200)):
            rooted.clear()
            series()
            assert rooted and max(rooted.values()) == 1
            assert all(p % 2 == 1 and p ** e <= 12 * c_max for p, e in rooted)
            by_series[name] = dict(rooted)
        assert by_series["k3"][3, 5] == 1  # 243 divides 4c for c = 243, 486, 729, 972
        # the partition kernel lifts its 3-part (up to 243, which divides 12c for c = 81, 162) instead of rooting it
        assert all(p != 3 for p, _ in by_series["partition"])

    # sha256 over the repr of the kernel's P(c) lists, recorded before the
    # roots came from one checked power and the partition 3-part from one
    # lift: the k3, noncompact and shadow targets 1 - 8n (n in [-11, 100]
    # and two deep n) at 1200 moduli, reaching 3^5 and the p | a branches,
    # and the partition targets 1 - 24n (n in [1, 400] and four deep n) at
    # 300 moduli, reaching 3^5 in 12c for c = 81, 162
    KERNEL_DIGEST = "96ebd7ad2b6f9fa6ed7396ce3896b6cd0244332b9f3467f1a741dddc2e675cf2"

    def test_every_product_is_pinned(self):
        digest = hashlib.sha256()
        for n in (*range(-11, 101), 1 + 9 * 27, 26 + 3 ** 6):
            digest.update(repr(_multiplier_products(1 - 8 * n, range(1, 1201), 4)).encode())
        for n in (*range(1, 401), 26 + 3 ** 6, 26 + 25 * 24, 51 + 49 * 24, 1 + 25 * 3 * 24):
            digest.update(repr(_multiplier_products(1 - 24 * n, range(1, 301), 12)).encode())
        assert digest.hexdigest() == self.KERNEL_DIGEST

    def test_walk_order_does_not_change_the_root_sets(self):
        # the memo is filled in the order the moduli come: a descending and a
        # shuffled walk must find the ascending walk's root sets, so its
        # sums, bit for bit
        c_max = 400
        ascending = list(range(1, c_max + 1))
        shuffled = ascending[:]
        random.Random(14).shuffle(shuffled)
        for m, targets in ((4, [1 - 8 * n for n in range(-11, 31)] + [1 - 8 * (1 + 9 * 27)]),
                           (12, [1 - 24 * n for n in range(1, 41)] + [1 - 24 * (26 + 3 ** 6)])):
            for a in targets:
                expected = dict(zip(ascending, _multiplier_products(a, ascending, m)))
                for order in (list(reversed(ascending)), shuffled):
                    assert dict(zip(order, _multiplier_products(a, order, m))) == expected, (a, m)



def no_frames(mc):
    raise AssertionError(f"a frame for mc = {mc} was built twice")


class TestCrtFrames:
    """The kernel's n-independent data per modulus mc, kept in rademacher._crt_frames."""

    def test_import_leaves_the_frames_empty(self):
        # the same cold start perfbench/child.py checks for DEFAULT_CACHE and
        # _phase_rows; checked in a fresh interpreter, not this one
        src = str(Path(rademacher.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import mockforms; "
                "from mockforms import rademacher; print(len(rademacher._crt_frames))")
        result = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
        assert result.stdout.split() == ["0"]

    def test_frames_factor_each_modulus(self, monkeypatch):
        monkeypatch.setattr(rademacher, "_crt_frames", {})
        exact_coefficient("k3", 11, 300)
        rademacher_partition(37, 100)
        frames = rademacher._crt_frames
        assert set(frames) == {4 * c for c in range(1, 301)} | {12 * c for c in range(1, 101)}
        for mc, (q2, w2, parts) in frames.items():
            assert q2 == mc & -mc and w2 * (mc // q2) % q2 == 1
            assert [(p, e) for _, p, e, _ in parts] == odd_prime_powers(mc)
            for q, p, e, w in parts:
                assert q == p ** e and w * (mc // q) % q == 1

    def test_second_series_builds_no_frame(self, monkeypatch):
        # every frame a series needs was built by the first series over the
        # same moduli, whatever its n
        monkeypatch.setattr(rademacher, "_crt_frames", {})
        first = (exact_coefficient("k3", 11, 400), exact_coefficient("noncompact", 5, 400),
                 shadow.shadow_coefficient(3, 400), rademacher_partition(37, 200))
        monkeypatch.setattr(rademacher, "_crt_frame", no_frames)
        again = (exact_coefficient("k3", 11, 400), exact_coefficient("noncompact", 5, 400),
                 shadow.shadow_coefficient(3, 400), rademacher_partition(37, 200))
        assert again == first
        exact_coefficient("k3", 29, 400)
        shadow.shadow_coefficient(10, 400)
        rademacher_partition(150, 200)

    def test_warm_frames_give_the_cold_sums(self, monkeypatch):
        # 4 (3c) = 12c: a frame the partition kernel built serves the k3
        # kernel at 3c, and the other way round, with == sums
        moduli = range(1, 201)
        tripled = [3 * c for c in moduli]
        cold = {}
        for n in (1, 2, 11, 37):
            monkeypatch.setattr(rademacher, "_crt_frames", {})
            cold["partition", n] = partition_pass(n, moduli)
            monkeypatch.setattr(rademacher, "_crt_frames", {})
            cold["k3", n] = quadratic_pass(n, tripled)
        monkeypatch.setattr(rademacher, "_crt_frames", {})
        partition_pass(5, moduli)
        with monkeypatch.context() as patched:
            patched.setattr(rademacher, "_crt_frame", no_frames)
            for n in (1, 2, 11, 37):
                assert quadratic_pass(n, tripled) == cold["k3", n], n
        monkeypatch.setattr(rademacher, "_crt_frames", {})
        quadratic_pass(5, tripled)
        monkeypatch.setattr(rademacher, "_crt_frame", no_frames)
        for n in (1, 2, 11, 37):
            assert partition_pass(n, moduli) == cold["partition", n], n

    def test_single_modulus_calls_equal_the_pass(self, monkeypatch):
        moduli = list(range(1, 121)) + list(DEEP_MODULI)
        for n in range(-11, 31):
            monkeypatch.setattr(rademacher, "_crt_frames", {})
            quadratic, partition = quadratic_pass(n, moduli), partition_pass(n, moduli)
            assert [kloosterman_quadratic(n, c) for c in moduli] == quadratic, n  # warm
            assert [partition_multiplier_sum(n, c) for c in moduli] == partition, n
            for k, c in enumerate(moduli):
                monkeypatch.setattr(rademacher, "_crt_frames", {})  # cold
                assert kloosterman_quadratic(n, c) == quadratic[k], (n, c)
                monkeypatch.setattr(rademacher, "_crt_frames", {})
                assert partition_multiplier_sum(n, c) == partition[k], (n, c)


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
        # c_max = 1 leaves no even modulus: an empty partial, not an error;
        # the kernel takes no moduli for partitions either
        for n in (1, 2, 11):
            partial = exact_coefficient("noncompact", n, 1)
            assert partial.terms == [] and partial.cumulative == 0.0
            assert quadratic_pass(n, range(2, 2, 2)) == []
            assert partition_pass(n, ()) == []

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
        for bessel in (bessel_i_half, bessel_i_three_half, bessel_j_half):
            with pytest.raises(NonPositiveArgument):
                bessel(0.0)
            with pytest.raises(NonPositiveArgument):
                bessel(-1.0)

    def test_j_vanishes_at_pi(self):
        assert abs(bessel_j_half(math.pi)) < 1e-15

    def test_reference_combination(self):
        value = 4 * math.pi / 15 ** 0.25 * bessel_i_half(math.pi * math.sqrt(15) / 2)
        assert value == pytest.approx(453.018, abs=0.01)

    def test_overflow_is_typed(self):
        # sinh and cosh leave the double range just above x = 710.47; sin never does
        assert math.isfinite(bessel_i_half(710.0)) and math.isfinite(bessel_i_three_half(710.0))
        for bessel in (bessel_i_half, bessel_i_three_half):
            with pytest.raises(BesselOverflow):
                bessel(711.0)
        assert math.isfinite(bessel_j_half(800.0))

    def test_exact_coefficient_overflow_is_typed(self, monkeypatch):
        # the c = 1 argument pi sqrt(8n - 1)/2 passes 710.47 just above n = 25573;
        # the partition one, pi sqrt(24n - 1)/6, at n = 76717
        monkeypatch.setattr(rademacher, "DEFAULT_CACHE", {})
        with pytest.raises(BesselOverflow):
            exact_coefficient("k3", 26000, 3)
        with pytest.raises(BesselOverflow) as caught:
            rademacher_partition(80000, 3)
        assert str(caught.value) == "I_3/2(725.5195567562288) exceeds the range of a double"


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


class TestSeriesDigest:
    # sha256 over the repr of every term of the four series families,
    # recorded before the three term loops became one driver: the k3 and
    # noncompact (c, term) lists for n <= 30 and 45, 70, 100 at 400 and 800
    # moduli, and the nonzero terms that p(n) for n < 260 at 20 moduli and
    # the shadow for n <= 11 at 800 moduli hand to math.fsum
    SERIES_DIGEST = "eed1a415c60293e34b4cfe6fa3cc4875bb8e870141b32e892bfa149d4f57a49b"

    def test_every_term_is_pinned(self, monkeypatch):
        digest = hashlib.sha256()
        for kind in ("k3", "noncompact"):
            for c_max in (400, 800):
                for n in (*range(1, 31), 45, 70, 100):
                    digest.update(repr(exact_coefficient(kind, n, c_max).terms).encode())
        summed, fsum = [], math.fsum

        def recording(terms):
            terms = list(terms)
            summed.append([t for t in terms if t])
            return fsum(terms)

        monkeypatch.setattr(math, "fsum", recording)
        for n in range(1, 260):
            rademacher_partition(n, 20)
        for n in range(12):
            shadow.shadow_coefficient(n, 800)
        monkeypatch.undo()
        assert len(summed) == 259 + 12
        digest.update(repr(summed).encode())
        assert digest.hexdigest() == self.SERIES_DIGEST


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


    def test_multiplier_sum_within_rounding_of_full_residue_scan(self):
        # every d mod 24c with d^2 = 1 - 24n, within the rounding both sides may make
        for c in range(1, 41):
            scan = residue_roots_by_square(24 * c)
            parts = prime_count(12 * c)
            for n in range(1, 201):
                bound = rounding_bound(2, len(scan.get((1 - 24 * n) % (24 * c), ())) // 2, parts)
                assert abs(partition_multiplier_sum(n, c) - partition_scan_value(n, c, scan)) <= bound, (n, c)

    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 2000), n=st.integers(-10 ** 6, 10 ** 6))
    def test_multiplier_sum_matches_full_scan_property(self, c, n):
        # every root has d^2 = 1 (mod 24), so only the d prime to 6 are scanned
        m, target = 24 * c, (1 - 24 * n) % (24 * c)
        ds = [d for d in range(1, m, 2) if d % 3 and d * d % m == target]
        expected = math.fsum(KRONECKER_12[d % 12] * math.cos(math.pi * d / (6 * c)) for d in ds)
        got = partition_multiplier_sum(n, c)
        assert type(got) is float and abs(got - expected) <= rounding_bound(2, len(ds) // 2, prime_count(12 * c))


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

"""Exact q-series arithmetic (ring laws, division and inversion) and the closed-form expansions."""

import random
from fractions import Fraction

import pytest

from mockforms.errors import BeyondTruncation, ZeroLeadingCoefficient
from mockforms.qseries import (
    DEFAULT_TRUNCATION,
    FracExp,
    QSeries,
    eta_series,
    partition_series,
    theta_constant_series,
)
from mockforms.shadow import shadow_reference_coefficients

from oracles import euler_product_coeffs, partition_count, pentagonal_coeffs, triple_product_coeffs

F = Fraction


def random_series(rng, allow_zero=True):
    trunc = rng.randrange(48, 360)
    n_terms = rng.randrange(0 if allow_zero else 1, 7)
    coeffs = {}
    for _ in range(n_terms):
        e = rng.randrange(-36, trunc - 1)
        coeffs[FracExp(e)] = F(rng.randrange(-9, 10), rng.randrange(1, 10))
    if not allow_zero and all(c == 0 for c in coeffs.values()):
        coeffs[FracExp(0)] = F(1)
    return QSeries(coeffs, FracExp(trunc))


class TestFracExp:
    def test_of_int_and_fraction(self):
        assert FracExp.of(2).units24 == 48
        assert FracExp.of(F(1, 8)).units24 == 3
        assert FracExp.of(F(-1, 8)).units24 == -3

    def test_rejects_off_lattice(self):
        with pytest.raises(ValueError):
            FracExp.of(F(1, 7))

    def test_arithmetic_is_exact(self):
        e = FracExp.of(F(1, 24)) + FracExp.of(F(1, 8))
        assert e.as_fraction == F(1, 6)
        assert (3 * FracExp.of(F(1, 8))).units24 == 9


class TestArithmetic:
    def test_add_identity(self):
        rng = random.Random(1)
        f = random_series(rng)
        assert f + QSeries.zero(f.truncation) == f

    def test_add_inverse(self):
        rng = random.Random(2)
        f = random_series(rng)
        assert (f + (-f)).is_zero()

    def test_add_doubles_eta(self):
        eta = eta_series(40)
        doubled = eta + eta
        for e, c in eta.items():
            assert doubled.coefficient(e) == 2 * c

    def test_mul_identity(self):
        rng = random.Random(3)
        f = random_series(rng)
        product = f * QSeries.one(f.truncation)
        assert product == f.truncate(product.truncation)

    def test_mul_monomials_add_exponents(self):
        a = QSeries.monomial(1, F(1, 24), 4)
        b = QSeries.monomial(1, F(1, 24), 4)
        assert (a * b).coefficient(F(2, 24)) == 1

    def test_eta_cubed_matches_triple_product_and_sign_pattern(self):
        # 24 eta(8 tau)^3 = 24 q prod (1 - q^{8n})^3: the brute-force triple
        # product oracle at q^{1+8j}, and the odd-square sign pattern 1, -3, 5, -7
        reference = shadow_reference_coefficients(1 + 8 * 40)
        oracle = triple_product_coeffs(40)
        for j in range(41):
            assert reference[1 + 8 * j] == 24 * oracle.get(j, 0)
        m = 0
        while (2 * m + 1) ** 2 <= 1 + 8 * 40:
            assert reference[(2 * m + 1) ** 2] == 24 * (-1) ** m * (2 * m + 1)
            m += 1

    def test_ring_laws_randomised(self):
        rng = random.Random(20090406)
        for _ in range(120):
            f, g, h = (random_series(rng) for _ in range(3))
            t_add = min(f.truncation, g.truncation, key=lambda e: e.units24)
            assert (f + g).truncate(t_add) == (g + f).truncate(t_add)
            assert ((f + g) + h).truncate(FracExp(0)) == (f + (g + h)).truncate(FracExp(0))
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            lhs = f * (g + h)
            rhs = f * g + f * h
            t = min(lhs.truncation, rhs.truncation, key=lambda e: e.units24)
            assert lhs.truncate(t) == rhs.truncate(t)

    def test_invert_roundtrip_randomised(self):
        rng = random.Random(77)
        for _ in range(100):
            f = random_series(rng, allow_zero=False)
            product = f * f.invert()
            assert product == QSeries.one(product.truncation)

    def test_divide_roundtrip_randomised(self):
        rng = random.Random(78)
        for _ in range(100):
            f, g = random_series(rng), random_series(rng, allow_zero=False)
            product = (f / g) * g
            assert product == f.truncate(product.truncation)

    def test_divide_matches_multiplying_by_inverse(self):
        rng = random.Random(79)
        for _ in range(100):
            f, g = random_series(rng), random_series(rng, allow_zero=False)
            assert f / g == f * g.invert()

    def test_divide_by_zero_raises(self):
        with pytest.raises(ZeroLeadingCoefficient):
            QSeries.one(10) / QSeries.zero(10)

    def test_divide_by_non_series_is_type_error(self):
        with pytest.raises(TypeError):
            QSeries.one(10) / 2

    def test_invert_one(self):
        one = QSeries.one(10)
        assert one.invert() == one

    def test_invert_eta_defining_property(self):
        eta = eta_series(30)
        prod = eta * eta.invert()
        assert prod == QSeries.one(prod.truncation)

    def test_invert_zero_raises(self):
        with pytest.raises(ZeroLeadingCoefficient):
            QSeries.zero(10).invert()

    def test_invert_euler_product_counts_partitions(self):
        inv = QSeries(euler_product_coeffs(11), 12).invert()
        assert inv.coefficient(10) == partition_count(10) == 42

    def test_exponents_stay_on_lattice(self):
        rng = random.Random(8)
        for _ in range(60):
            f, g = random_series(rng), random_series(rng)
            for series in (f + g, f * g):
                assert all(isinstance(e.units24, int) for e, _ in series.items())


class TestCoefficientAccess:
    def test_eta_leading_coefficient(self):
        assert eta_series(4).coefficient(F(1, 24)) == 1

    def test_zero_series_coefficient(self):
        assert QSeries.zero(10).coefficient(F(5, 24)) == 0

    def test_beyond_truncation_raises(self):
        with pytest.raises(BeyondTruncation):
            eta_series(4).coefficient(5)

class TestNamedSeries:
    def test_eta_leading_term(self):
        eta = eta_series(FracExp(240))
        assert eta.offset == FracExp(1)
        assert eta.coefficient(F(1, 24)) == 1

    def test_theta10_leading(self):
        th = theta_constant_series("10", FracExp(240))
        assert th.offset == FracExp(3)
        assert th.coefficient(F(1, 8)) == 2

    def test_partition_gen_against_enumeration(self):
        pg = partition_series(FracExp(24 * 21))
        assert pg.coefficient(5) == partition_count(5) == 7
        for n in range(0, 21):
            assert pg.coefficient(n) == partition_count(n)

    def test_eta_pentagonal_pattern_to_50_terms(self):
        # product expansion oracle and the closed pentagonal pattern, both in-test
        eta = eta_series(51)
        product = euler_product_coeffs(50)
        pattern = pentagonal_coeffs(50)
        assert product == pattern
        for n in range(0, 50):
            assert eta.coefficient(F(1, 24) + n) == pattern.get(n, 0)

    def test_theta01_signs(self):
        th = theta_constant_series("01", 20)
        assert th.coefficient(F(0)) == 1
        assert th.coefficient(F(1, 2)) == -2
        assert th.coefficient(2) == 2

    def test_default_truncation_covers_n50(self):
        assert DEFAULT_TRUNCATION.units24 == 1440


class TestEvaluate:
    def test_matches_direct_sum(self):
        import cmath
        f = QSeries({FracExp(-3): F(2), FracExp(21): F(-90)}, FracExp(45))
        tau = 0.1 + 1.2j
        expected = 2 * cmath.exp(2j * cmath.pi * tau * F(-1, 8)) \
            - 90 * cmath.exp(2j * cmath.pi * tau * F(7, 8))
        assert abs(f.evaluate(tau) - expected) < 1e-14


class TestPartitionSeries:
    def test_matches_fraction_inverse_of_euler_product(self):
        # the pentagonal recurrence against Fraction long division of the
        # literal product expansion, truncation included
        inverse = QSeries(euler_product_coeffs(300), 301).invert()
        assert partition_series(FracExp(24 * 301)) == inverse

    @pytest.mark.parametrize("n, p_n", [
        (1000, 24061467864032622473692149727991),
        (2000, 4720819175619413888601432406799959512200344166),
    ])
    def test_pinned_large_values(self, n, p_n):
        assert partition_series(FracExp(24 * (n + 1))).coefficient(n) == p_n

    @pytest.mark.parametrize("truncation", [0, -3, FracExp(0), FracExp(-1)])
    def test_nonpositive_truncation_raises(self, truncation):
        with pytest.raises(ZeroLeadingCoefficient):
            partition_series(truncation)


def test_eta_matches_euler_product_to_300_terms():
    # the closed pentagonal form against the literal product, truncation included
    truncation = FracExp(24 * 300 + 1)
    product = QSeries({FracExp(24 * n + 1): c for n, c in euler_product_coeffs(299).items()}, truncation)
    assert eta_series(truncation) == product

"""The six record types: construction, field access, equality, hashing,
immutability and repr, as a caller sees them, with the checks each one makes."""

from fractions import Fraction as F

import pytest

from mockforms import (
    CharSpec,
    CoeffTable,
    DedekindSumValue,
    FracExp,
    RademacherPartial,
    ShadowCoeff,
)
from mockforms.errors import UnsupportedSpec

# (type, its fields in order with a valid value each, one field changed, hashable)
RECORDS = [
    pytest.param(CharSpec, {"kind": "massive", "k": 1, "h": F(5, 4), "ell": F(1, 2), "sector": "R"},
                 {"sector": "NS"}, True, id="CharSpec"),
    pytest.param(CoeffTable, {"kind": "k3", "values": {1: 90, 2: 462}, "n_max": 2}, {"n_max": 3}, False,
                 id="CoeffTable"),
    pytest.param(FracExp, {"units24": -3}, {"units24": 3}, True, id="FracExp"),
    pytest.param(DedekindSumValue, {"value": F(-1, 18)}, {"value": F(1, 18)}, True, id="DedekindSumValue"),
    pytest.param(RademacherPartial, {"n": 2, "kind": "k3", "terms": [(1, 453.0), (2, 9.0)], "cumulative": 462.0},
                 {"cumulative": 462.5}, False, id="RademacherPartial"),
    pytest.param(ShadowCoeff, {"n": 1, "c_max": 800, "value": 23.85}, {"c_max": 400}, True, id="ShadowCoeff"),
]
FROZEN = [p for p in RECORDS if p.id != "RademacherPartial"]


@pytest.mark.parametrize("cls, fields, change, hashable", RECORDS)
class TestRecordContract:
    def test_position_and_keyword_agree(self, cls, fields, change, hashable):
        by_position, by_keyword = cls(*fields.values()), cls(**fields)
        assert by_position == by_keyword
        assert not by_position != by_keyword
        for name, value in fields.items():
            assert getattr(by_position, name) == value and getattr(by_keyword, name) == value

    def test_equal_records_hash_equal(self, cls, fields, change, hashable):
        a, b = cls(**fields), cls(**fields)
        if hashable:
            assert hash(a) == hash(b) and len({a, b}) == 1
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_a_changed_field_breaks_equality(self, cls, fields, change, hashable):
        a, b = cls(**fields), cls(**{**fields, **change})
        assert a != b and not a == b

    def test_repr_names_every_field(self, cls, fields, change, hashable):
        body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, fields, change, hashable", FROZEN)
def test_frozen_records_refuse_assignment(cls, fields, change, hashable):
    record = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(**fields)


class TestDefaults:
    def test_charspec_sector_defaults_to_tilded_ramond(self):
        spec = CharSpec("massless_sum_form", 1, F(1, 4), 0)
        assert spec.sector == "Rtilde"
        assert spec == CharSpec(kind="massless_sum_form", k=1, h=F(1, 4), ell=F(0), sector="Rtilde")


class TestFracExp:
    def test_ordering(self):
        a, b, c = FracExp(-3), FracExp(0), FracExp(21)
        assert a < b < c and a <= a and c > b and c >= c
        assert not b < a and not a > b
        assert sorted([c, a, b]) == [a, b, c] and max(a, c, b) == c and min(c, b) == b

    def test_arithmetic(self):
        a, b = FracExp(-3), FracExp(27)
        assert a + b == FracExp(24) and b - a == FracExp(30) and -a == FracExp(3)
        assert a * 5 == FracExp(-15) and 5 * a == FracExp(-15)
        assert isinstance(a + b, FracExp) and isinstance(2 * b, FracExp) and isinstance(-a, FracExp)
        assert (a + b).as_fraction == 1 and str(a) == "-1/8"

    def test_coercion(self):
        a = FracExp(9)
        assert FracExp.of(a) is a
        assert FracExp.of(2) == FracExp(48) and FracExp.of(F(-1, 8)) == FracExp(-3)
        with pytest.raises(ValueError):
            FracExp.of(F(1, 5))
        with pytest.raises(TypeError):
            FracExp.of(0.5)


class TestCharSpecChecks:
    def test_weight_and_isospin_become_fractions(self):
        spec = CharSpec("massless_sum_form", 1, 0.25, 0)
        assert type(spec.h) is F and type(spec.ell) is F
        assert (spec.h, spec.ell) == (F(1, 4), F(0))
        massive = CharSpec("massive", 1, "5/4", 0.5, "NS")
        assert type(massive.h) is F and (massive.h, massive.ell) == (F(5, 4), F(1, 2))
        assert repr(massive) == "CharSpec(kind='massive', k=1, h=Fraction(5, 4), ell=Fraction(1, 2), sector='NS')"

    def test_fractions_are_stored_as_given(self):
        h, ell = F(9, 4), F(1, 2)
        spec = CharSpec("massive", 1, h, ell)
        assert spec.h is h and spec.ell is ell
        # h > 1/4 is strict at every denominator
        for h in (F(1, 4) + F(1, 10 ** 30), F(26, 100), F(7, 4)):
            assert CharSpec("massive", 1, h, ell).h is h
        for h in (F(1, 4), F(1, 4) - F(1, 10 ** 30), F(0), F(-3, 4)):
            with pytest.raises(UnsupportedSpec, match="need h > 1/4"):
                CharSpec("massive", 1, h, ell)

    @pytest.mark.parametrize("args, message", [
        (("bogus", 1, F(1, 4), 0), "unknown character kind"),
        (("massive", 1, F(5, 4), F(1, 2), "Rbar"), "unknown sector"),
        (("massive", 2, F(5, 4), F(1, 2)), "only level k = 1"),
        (("massive", 1, F(1, 4), F(1, 2)), "need h > 1/4"),
        (("massive", 1, F(5, 4), 0), "isospin must be 1/2"),
        (("massless_mu_form", 1, F(1, 2), 0), "need h = 1/4"),
        (("massless_sum_form", 1, F(1, 4), 1), "isospin must be 0 or 1/2"),
    ])
    def test_every_unsupported_path(self, args, message):
        with pytest.raises(UnsupportedSpec, match=message):
            CharSpec(*args)

from fractions import Fraction as F

import pytest

from reswitch import ModelFormatError, format_fixed, parse_rational, round_half_away
from reswitch.rationals import int_decimal, integer_root

from oracles import no_int_str_limit


def test_parse_forms():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("1.25") == F(5, 4)
    assert parse_rational("7") == 7
    assert parse_rational("-0.5") == F(-1, 2)
    assert parse_rational(" 100/3 ") == F(100, 3)


def test_parse_rejects_garbage():
    with pytest.raises(ModelFormatError):
        parse_rational("seven")
    with pytest.raises(ModelFormatError):
        parse_rational("1/0")


@pytest.mark.parametrize("text", ["1e1", "5E1", "2e-1", ".5e1", "1.e+1"])
def test_parse_rejects_exponents(text):
    with pytest.raises(ModelFormatError, match="exponent"):
        parse_rational(text)


def test_integer_root_is_floor_of_root():
    for k in range(1, 8):
        for n in list(range(300)) + [10**40 + 7, 3**(5 * k), 3**(5 * k) - 1]:
            root = integer_root(n, k)
            assert root**k <= n < (root + 1) ** k


def test_half_away_from_zero():
    assert round_half_away(F(354375, 10000), 2) == F(3544, 100)  # 35.4375 -> 35.44
    assert round_half_away(F(2121875, 100000), 2) == F(2122, 100)  # 21.21875 -> 21.22
    assert round_half_away(F(5, 2), 0) == 3
    assert round_half_away(F(-5, 2), 0) == -3
    assert round_half_away(F(1, 3), 2) == F(33, 100)


def test_format_fixed_padding():
    assert format_fixed(F(7), 2) == "7.00"
    assert format_fixed(F(354375, 10000), 2) == "35.44"
    assert format_fixed(F(1, 8), 3) == "0.125"
    assert format_fixed(F(-1, 8), 2) == "-0.13"
    assert format_fixed(F(8, 7) * 100, 2) == "114.29"
    assert format_fixed(F(3), 0) == "3"


def test_int_decimal_matches_str_below_the_digit_limit():
    for n in [0, 7, -7, 10**40 + 3, -(3**2000), 10**4000 - 1]:
        assert int_decimal(n) == str(n)


def test_int_decimal_above_the_digit_limit():
    values = [10**4300, -(10**4300) - 1, 3**20_000, 7 * 10**9000 + 1, 10**9001]
    texts = [int_decimal(n) for n in values]  # under the default limit
    with no_int_str_limit():
        assert texts == [str(n) for n in values]


def test_format_fixed_beyond_the_digit_limit():
    assert format_fixed(F(2, 3), 5000) == "0." + "6" * 4999 + "7"

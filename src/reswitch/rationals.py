"""Exact rational parsing and decimal rendering.

All quantities in this package are `fractions.Fraction` values; binary floats
never enter any computation. Rendering to fixed decimals happens only at the
output boundary, with half-away-from-zero rounding.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Optional

from .errors import ModelFormatError

_EXPONENT = re.compile(r"[\d.][eE][-+]?\d")


def quote_short(text: str) -> str:
    """repr(text), or of its first 40 characters and its length if longer."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def int_limit_problem(text: str) -> Optional[str]:
    """What is wrong when a run of digits in text exceeds the interpreter's
    int-string limit, which no int or Fraction can be parsed past; else
    None."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = max(map(len, re.findall(r"\d+", text)), default=0)
    if 0 < limit < digits:
        return (
            f"{digits} digits exceed the interpreter's int-string limit of "
            f"{limit} (sys.get_int_max_str_digits())"
        )
    return None


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal strings ("1.25", ".5", "-3/4") exactly.

    Exponent notation ("1e5") is rejected: its value can take far more digits
    than its text, so "1e999999999" alone would build a billion-digit integer.
    A run of digits longer than the interpreter's int-string limit is
    reported as such, and long text is quoted by its first characters only.
    """
    text = str(text).strip()
    if _EXPONENT.search(text):
        raise ModelFormatError(f"exponent notation is not accepted: {quote_short(text)}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        problem = int_limit_problem(text) or "not a rational number"
        raise ModelFormatError(f"{problem}: {quote_short(text)}") from exc


def integer_root(n: int, k: int) -> int:
    """The floor of the k-th root of a nonnegative int n, by bisection."""
    low, high = 0, 1
    while high**k <= n:
        high *= 2
    while low + 1 < high:
        mid = (low + high) // 2
        if mid**k <= n:
            low = mid
        else:
            high = mid
    return low


def int_decimal(n: int) -> str:
    """n in decimal, of any size: `str` below the interpreter's digit limit
    for int-to-str conversion, divide and conquer on powers of ten above it."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + int_decimal(-n)
    half = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(n, 10**half)
    return int_decimal(high) + int_decimal(low).rjust(half, "0")


def round_half_away(value: Fraction, places: int = 0) -> Fraction:
    """Round to `places` decimals, ties away from zero (35.4375 -> 35.44)."""
    scale = Fraction(10) ** places
    scaled = abs(value) * scale
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        whole += 1
    result = Fraction(whole, 1) / scale
    return -result if value < 0 else result


def format_fixed(value: Fraction, places: int) -> str:
    """Fixed-point decimal string with exactly `places` digits."""
    rounded = round_half_away(value, places)
    sign = "-" if rounded < 0 else ""
    units = abs(rounded) * Fraction(10) ** places
    digits = int_decimal(units.numerator)  # denominator is 1 after rounding
    if places == 0:
        return sign + digits
    digits = digits.rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"

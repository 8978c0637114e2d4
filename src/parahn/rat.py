"""Exact rationals: stdlib Fraction plus the fixed "a/b" wire format."""

import re
from fractions import Fraction

from .errors import ParseError

RAT_FORMAT = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the schema's rat pattern


def rat_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rat_parse(s) -> Fraction:
    """The rational written "a/b" or "a" (RAT_FORMAT); ParseError for
    anything else, a zero denominator included."""
    if not isinstance(s, str) or not RAT_FORMAT.fullmatch(s):
        raise ParseError(f'expected a rational string "a/b", got {s!r}')
    num, _, den = s.partition("/")
    if den and int(den) == 0:
        raise ParseError(f"zero denominator in {s!r}")
    return Fraction(int(num), int(den or 1))


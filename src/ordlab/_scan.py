"""The scanner under every text grammar (ordinals, theories, rule patterns,
predicates) and the one numeral rule, which worm letters follow too."""

from __future__ import annotations

import re
from typing import NoReturn

from .errors import OrdlabError, ParseError, RangeError

DEFAULT_NAT_CAP = 2**32
"""Largest ordinal numeral, worm letter or reflection level."""

MAX_NUMERAL_DIGITS = 4300
"""Longest numeral: CPython's default limit for int() on a decimal string."""

# Runs for Scanner.word.  In re, \s, \d and \w match exactly the characters
# for which str.isspace, str.isdecimal and str.isalnum (or "_") hold.
DIGITS = re.compile(r"\d*")
NAME = re.compile(r"\w*")
LETTERS = re.compile(r"[^\W\d_]*")
TOKEN = re.compile(r"[^\s()]*")


def numeral_value(digits: str, position: int | None = None, cap: int | None = DEFAULT_NAT_CAP) -> int:
    """The numeral rule: ``digits``, decimal digits in any script, may be at
    most MAX_NUMERAL_DIGITS long and, unless ``cap`` is None, at most ``cap``
    in value; a numeral too wide is a RangeError, naming ``position`` if given."""
    if len(digits) > MAX_NUMERAL_DIGITS:
        raise RangeError(f"numeral{_at(position)} is longer than {MAX_NUMERAL_DIGITS} digits")
    n = int(digits)
    if cap is not None and n > cap:
        raise RangeError(f"numeral {n}{_at(position)} exceeds the natural-number width {cap}")
    return n


def _at(position: int | None) -> str:
    return "" if position is None else f" at position {position}"


class Scanner:
    """A position in ``text``.  Syntax errors are raised as ``error_type``
    with the position; a numeral too wide is a RangeError."""

    def __init__(self, text: str, error_type: type[OrdlabError] = ParseError):
        self.text = text
        self.pos = 0
        self.error_type = error_type

    def error(self, message: str, position: int | None = None) -> NoReturn:
        raise self.error_type(message, self.pos if position is None else position)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        """The next character after whitespace, or "" at the end."""
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self, chars: re.Pattern[str]) -> str:
        """The run of ``chars`` at the cursor, possibly empty; no whitespace
        is skipped first."""
        match = chars.match(self.text, self.pos)
        self.pos = match.end()
        return match.group()

    def keyword(self, word: str) -> bool:
        """Consume ``word`` if it is the whole next alphabetic word."""
        self.skip_ws()
        end = self.pos + len(word)
        if self.text.startswith(word, self.pos) and not self.text[end:end + 1].isalpha():
            self.pos = end
            return True
        return False

    def numeral(self, cap: int | None = DEFAULT_NAT_CAP) -> int:
        """The numeral at the cursor, under numeral_value's rule."""
        self.skip_ws()
        start = self.pos
        digits = self.word(DIGITS)
        if not digits:
            self.error("expected a numeral")
        return numeral_value(digits, start, cap)

    def end(self, message: str = "trailing input"):
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(message)

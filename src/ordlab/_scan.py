"""The scanner under every text grammar (ordinals, theories, predicates),
the one numeral rule, which worm letters follow too, and the limits every
value is made under."""

from __future__ import annotations

import re

from .errors import OrdlabError, ParseError, RangeError

MAX_WIDTH = 2**32
"""Longest run of equal atoms in an ordinal, a natural number included."""

MAX_DEPTH = 100
"""Deepest nesting in every grammar, and the highest reflection level or
worm letter: each nested term, level or letter adds one level to the
recursion that builds, compares and prints a value."""

MAX_NUMERAL_DIGITS = 4300
"""Longest numeral: CPython's default limit for int() on a decimal string."""

MAX_FUEL = 10**6
"""Ceiling on the notation lab's fuel: the most predicate evaluations one
window check, audit or descent search may ask for, and the largest bound
``least_counterexample``, and so ``less``, accepts."""

DEFAULT_FUEL = 10000
"""The notation lab's fuel when none is given."""

# Runs for Scanner.word.  In re, \s and \w match exactly the characters for
# which str.isspace and str.isalnum (or "_") hold.
NAME = re.compile(r"\w*")
TOKEN = re.compile(r"[^\s()]*")


def numeral_value(digits: str) -> int:
    """The numeral rule: ``digits``, decimal digits in any script, may be at
    most MAX_NUMERAL_DIGITS long; a longer numeral is a RangeError."""
    if len(digits) > MAX_NUMERAL_DIGITS:
        raise RangeError(f"numeral is longer than {MAX_NUMERAL_DIGITS} digits")
    return int(digits)


def within_depth(n: int, what: str) -> int:
    """``n``, a reflection level, worm letter or worm length, under the depth cap."""
    if n > MAX_DEPTH:
        raise RangeError(f"{what} {n} exceeds the depth cap {MAX_DEPTH}")
    return n


class Scanner:
    """A position in ``text``.  Syntax errors are raised as the class's
    ``error_type`` with the position; a numeral too long, or nesting deeper
    than MAX_DEPTH, is a RangeError."""

    error_type: type[OrdlabError] = ParseError

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

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
        """Consume ``word`` if it is the whole next word: the character after
        it is no \\w character, neither alphanumeric nor "_"."""
        self.skip_ws()
        end = self.pos + len(word)
        if self.text.startswith(word, self.pos):
            after = self.text[end:end + 1]
            if not (after.isalnum() or after == "_"):
                self.pos = end
                return True
        return False

    def numeral(self) -> int:
        """The numeral at the cursor, under numeral_value's rule.  A numeral
        is a whole word: a \\w run with any character other than a decimal
        digit is refused at its start."""
        self.skip_ws()
        start = self.pos
        digits = self.word(NAME)
        if not digits.isdecimal():
            self.error("expected a numeral", start)
        return numeral_value(digits)

    def down(self):
        """Every grammar's recursion guard: one nesting level down, or a
        RangeError past MAX_DEPTH.  The caller steps back up with
        ``self.depth -= 1``; a scanner is not read again after an error."""
        if self.depth == MAX_DEPTH:
            raise RangeError(f"nesting exceeds the depth cap {MAX_DEPTH}", self.pos)
        self.depth += 1

    def end(self, message: str = "trailing input"):
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(message)

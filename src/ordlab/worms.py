"""Worms: finite words of modality indices from the closed fragment of the
polymodal provability logic GLP, with their ordinal assignment o(.) onto
the ordinals below epsilon_0.

The leftmost letter is the outermost modality; the empty worm is the trivial
assertion (printed "T") and has ordinal 0.  o respects the 0-consistency
ordering, so worms compare by comparing their ordinals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._scan import numeral_value
from .errors import ParseError, RangeError, WormError
from .ordinals import (
    EPSILON0,
    ONE,
    ZERO,
    Ordinal,
    add,
    compare,
    veblen,
)


@dataclass(frozen=True)
class Worm:
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if any(l < 0 for l in self.letters):
            raise WormError("worm letters must be natural numbers")

    def is_top(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return format_worm(self)

    def __repr__(self) -> str:
        return f"Worm({format_worm(self)!r})"


TOP = Worm(())


def lift(w: Worm, k: int) -> Worm:
    """Add k to every letter; o(lift(w,1)) = w^o(w) for nonempty w."""
    if k < 0:
        raise WormError("lift amount must be a natural number")
    return Worm(tuple(l + k for l in w.letters))


def drop(w: Worm) -> Worm:
    """Subtract 1 from every letter; defined only on 0-free worms."""
    if 0 in w.letters:
        raise WormError("cannot drop a worm containing the letter 0")
    return Worm(tuple(l - 1 for l in w.letters))


@lru_cache(maxsize=None)
def worm_ordinal(w: Worm) -> Ordinal:
    """The assignment o: o(T) = 0; splitting at the leftmost 0 into H.<0>.T
    with 0-free H gives o = o(T) + w^o(drop H); a nonempty 0-free worm is
    its own head: o = w^o(drop w)."""
    if w.is_top():
        return ZERO
    letters = w.letters
    if 0 in letters:
        split = letters.index(0)
        head, tail = Worm(letters[:split]), Worm(letters[split + 1:])
        return add(worm_ordinal(tail), veblen(ZERO, worm_ordinal(drop(head))))
    return veblen(ZERO, worm_ordinal(drop(w)))


def worm_compare(u: Worm, v: Worm) -> int:
    """The 0-consistency order: compare(o(u), o(v))."""
    return compare(worm_ordinal(u), worm_ordinal(v))


def worm_of_ordinal(x: Ordinal) -> Worm:
    """Canonical preimage of o for x < epsilon_0.

    Splitting off one copy of the smallest trailing atom w^b of x, the head
    lift(worm(b), 1) contributes that atom and the 0-separated tail carries
    the rest; a purely principal x needs no separator at all.
    """
    if compare(x, EPSILON0) >= 0:
        raise RangeError(f"{x} is not below e0, which worms cannot reach")
    if x.is_zero():
        return TOP
    last_atom, count = x.parts[-1]
    if count > 1:
        rest = Ordinal(x.parts[:-1] + ((last_atom, count - 1),))
    else:
        rest = Ordinal(x.parts[:-1])
    head = lift(worm_of_ordinal(last_atom.arg), 1)
    if rest.is_zero() and not head.is_top():
        return head
    return Worm(head.letters + (0,) + worm_of_ordinal(rest).letters)


def theory_of_worm(w: Worm):
    """Nested single reflections over EA+: the letter n becomes one step of
    Pi_{n+1} reflection, leftmost letter outermost."""
    from .theories import EA_PLUS, Reflect

    expr = EA_PLUS
    for letter in reversed(w.letters):
        expr = Reflect(letter + 1, ONE, expr)
    return expr


def parse_worm(text: str) -> Worm:
    """Space-separated decimal letters; the empty worm is written "T"."""
    if text.strip() == "T":
        return TOP
    letters = []
    for piece in text.split():
        if not piece.isdecimal():
            raise ParseError(f"bad worm letter {piece!r}")
        letters.append(numeral_value(piece))
    if not letters:
        raise ParseError("empty worm text; the empty worm is written 'T'")
    return Worm(tuple(letters))


def format_worm(w: Worm) -> str:
    if w.is_top():
        return "T"
    return " ".join(str(l) for l in w.letters)

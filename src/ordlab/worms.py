"""Worms: finite words of modality indices from the closed fragment of the
polymodal provability logic GLP, with their ordinal assignment o(.) onto
the ordinals below epsilon_0.

The leftmost letter is the outermost modality; the empty worm is the trivial
assertion (printed "T") and has ordinal 0.  o respects the 0-consistency
ordering, so worms compare by comparing their ordinals.

A Worm checks its letters once, when it is made; o and its inverse then
work on bare letters.  The public constructor Worm(...) checks every
letter.  Worms and worm theories are made on hot paths, so, as with
Ordinal and VeblenAtom (ordinals._ordinal and _phi), Worm and Reflect each
have a private unchecked maker that skips __init__: _worm here, and
theories._worm_theory, which makes a worm's whole chain of Reflects in one
loop.  Only a caller that has proved the caps itself uses one: parse_worm
and lift check their largest letter, drop makes letters that are in range
by construction, worm_of_ordinal checks the top letter each level passes
up, theory_of_worm checks the length and the top reflection level once,
not once per letter, and the worm route of theories.pi_ordinal reads
levels its Reflects checked.

o is memoised in one bounded cache of 2**12 entries, which the pieces of a
worm share.  Its keys are bytes, one byte a letter: a letter is at most
MAX_DEPTH = 100, so it fits, and a bytes key stores its letters in an
eighth of a tuple's space and keeps its hash.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from ._scan import MAX_NUMERAL_DIGITS, numeral_value, within_depth
from ._value import Value, set_field
from .errors import ParseError, RangeError, WormError
from .ordinals import (
    EPSILON0,
    ONE,
    ZERO,
    Ordinal,
    _sum,
    compare,
    veblen,
)

MAX_WORM_LENGTH = 10**6
"""Longest worm worm_of_ordinal builds; the worm of a natural number n has n letters."""


class Worm(Value):
    __slots__ = __match_args__ = ("letters",)
    letters: tuple[int, ...]

    def __init__(self, letters=()):
        # Any iterable of int letters; the worm keeps its own tuple of them.
        # bytes() refuses a non-integer letter and reads a bool as 0 or 1; a
        # letter it cannot hold, below 0 or above 255, is checked below.
        letters = tuple(letters)
        try:
            letters = tuple(bytes(letters))
        except ValueError:
            if min(letters) < 0:
                raise WormError("worm letters must be natural numbers") from None
        within_depth(max(letters, default=0), "worm letter")
        set_field(self, "letters", letters)

    def is_top(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return format_worm(self)

    def __repr__(self) -> str:
        return f"Worm({format_worm(self)!r})"


# The unchecked maker, for callers that have proved every letter a natural
# number under the cap: it skips __init__ and writes the slot through its
# descriptor.
_set_letters = Worm.letters.__set__


def _worm(letters: tuple[int, ...]) -> Worm:
    w = object.__new__(Worm)
    _set_letters(w, letters)
    return w


TOP = Worm(())


def lift(w: Worm, k: int) -> Worm:
    """Add k to every letter; o(lift(w,1)) = w^o(w) for nonempty w."""
    k = operator.index(k)
    if k < 0:
        raise WormError("lift amount must be a natural number")
    letters = tuple([l + k for l in w.letters])
    within_depth(max(letters, default=0), "worm letter")
    return _worm(letters)


def drop(w: Worm) -> Worm:
    """Subtract 1 from every letter; defined only on 0-free worms."""
    if 0 in w.letters:
        raise WormError("cannot drop a worm containing the letter 0")
    return _worm(tuple([l - 1 for l in w.letters]))


def worm_ordinal(w: Worm) -> Ordinal:
    """The assignment o: o(T) = 0; splitting at the leftmost 0 into H.<0>.T
    with 0-free H gives o = o(T) + w^o(drop H); a nonempty 0-free worm is
    its own head: o = w^o(drop w).  Unrolled, o sums w^o(drop H) over the
    0-separated pieces H, rightmost first (an empty rightmost piece adds
    nothing), so it recurses through letter values, never along the worm.
    The pieces' ordinals are added in one pass, not folded pair by pair.
    The letters go to the cache as bytes, made once here.
    worm_ordinal.cache_info() and cache_clear() reach its one cache."""
    return _ordinal(bytes(w.letters))


# The translate table that subtracts 1 from every letter but 0, which no
# dropped piece contains.
_DROP = bytes(1) + bytes(range(255))


@lru_cache(maxsize=2**12)
def _ordinal(letters: bytes) -> Ordinal:
    """o on the letters of a checked worm, one byte a letter.  A nonempty
    piece H is 0-free, so o(H) = w^o(drop H) is its summand, cached under
    H's bytes; one ordinals._sum call adds the summands, reusing their runs."""
    if 0 not in letters:
        return veblen(ZERO, _ordinal(letters.translate(_DROP))) if letters else ZERO
    heads = letters.split(b"\0")
    # A plain loop, not a comprehension: on Python 3.10 and 3.11 a
    # comprehension is one more frame on every level of the recursion.
    pieces = [_ordinal(heads.pop())]
    for head in reversed(heads):
        pieces.append(_ordinal(head) if head else ONE)
    return _sum(pieces)


worm_ordinal.cache_info = _ordinal.cache_info
worm_ordinal.cache_clear = _ordinal.cache_clear


def worm_compare(u: Worm, v: Worm) -> int:
    """The 0-consistency order: compare(o(u), o(v))."""
    return compare(worm_ordinal(u), worm_ordinal(v))


def worm_of_ordinal(x: Ordinal) -> Worm:
    """Canonical preimage of o for x < epsilon_0.

    Each copy of an atom w^b of x, smallest first, gives the piece worm(b)
    with every letter raised by 1, which o maps to that atom; a 0 follows
    every piece but the last, and the last too when it is empty (the atom 1).
    """
    if compare(x, EPSILON0) >= 0:
        raise RangeError(f"{x} is not below e0, which worms cannot reach")
    return _worm(_letters_of(x, 0)[0])


def _letters_of(x: Ordinal, k: int) -> tuple[tuple[int, ...], int]:
    """The letters of worm_of_ordinal(x), each raised by k, and the top
    letter among them, k - 1 when there are none.  Every level checks the
    worm it stands for, its letters less k, against the letter cap and
    MAX_WORM_LENGTH, innermost first; a piece's letters are checked once,
    by the top letter its level passes up."""
    if x.is_zero():
        return (), k - 1
    letters: list[int] = []
    top = k
    for atom, count in reversed(x.parts):
        piece, piece_top = _letters_of(atom.arg, k + 1)
        if piece_top > top:
            # A piece no higher than the top so far passes as that top did.
            within_depth(piece_top - k, "worm letter")
            top = piece_top
        piece += (k,)
        if len(letters) + count * len(piece) > MAX_WORM_LENGTH:
            raise RangeError(f"the worm of {x} needs more than {MAX_WORM_LENGTH} letters")
        letters += piece * count
    if len(piece) > 1:
        letters.pop()
    return tuple(letters), top


def theory_of_worm(w: Worm):
    """Nested single reflections over EA+: the letter n becomes one step of
    Pi_{n+1} reflection, leftmost letter outermost, so each letter nests one
    level and a worm may have at most MAX_DEPTH letters."""
    from .theories import _worm_theory

    letters = w.letters
    within_depth(len(letters), "worm length")
    within_depth(max(letters, default=0) + 1, "reflection level")
    return _worm_theory(letters)


def parse_worm(text: str) -> Worm:
    """Space-separated decimal letters; the empty worm is written "T".

    A text no longer than a numeral may be, all of whose pieces are
    decimal, is read by int in one map, since none of its pieces can be
    refused; any other text is read piece by piece, so that the first bad
    or too-long piece is the one reported."""
    if text.strip() == "T":
        return TOP
    pieces = text.split()
    if len(text) <= MAX_NUMERAL_DIGITS and all(map(str.isdecimal, pieces)):
        letters = tuple(map(int, pieces))
    else:
        letters = []
        for piece in pieces:
            if not piece.isdecimal():
                raise ParseError(f"bad worm letter {piece!r}")
            letters.append(numeral_value(piece))
    if not letters:
        raise ParseError("empty worm text; the empty worm is written 'T'")
    within_depth(max(letters), "worm letter")
    return _worm(tuple(letters))


def format_worm(w: Worm) -> str:
    if w.is_top():
        return "T"
    return " ".join(str(l) for l in w.letters)

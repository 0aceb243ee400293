"""The worms layer: o, its cache, the makers, and every refusal at a cap.

Every worm of up to six letters from 0-3 prints the ordinal that
bench/oracle.py's worm_ordinal gives, from an empty cache and from a full
one; that reference is an uncached recursion on Cantor normal forms and
uses neither ordlab's add nor its veblen.  o(.) is memoised on letter
bytes, one byte a letter, in one cache bounded at 2**12 entries, reachable
as worm_ordinal.cache_info() and worm_ordinal.cache_clear(); the pieces a
worm splits into go through the same cache.

parse_worm, lift, drop, worm_of_ordinal and theory_of_worm make their values
with the unchecked makers worms._worm and theories._worm_theory, after
proving the caps themselves: what they make equals what the public Worm and
Reflect make from the same fields, and at each cap they refuse with the
error the public constructors give.  parse_worm reads a short all-decimal
text with int in one map and any other text piece by piece; both paths are
pinned with their answers and their exact first errors.  worm_of_ordinal's
refusals keep their text, each one error line at the CLI.
"""

import itertools

import pytest

import oracle
from conftest import worms_up_to
from ordlab._scan import MAX_DEPTH, MAX_NUMERAL_DIGITS
from ordlab.cli import run
from ordlab.errors import OrdlabError, ParseError, RangeError, WormError
from ordlab.ordinals import (
    EQ,
    GT,
    LT,
    ONE,
    from_int,
    iter_omega,
    parse_ordinal,
)
from ordlab.theories import EA_PLUS, Reflect
from ordlab.worms import (
    TOP,
    Worm,
    drop,
    format_worm,
    lift,
    parse_worm,
    theory_of_worm,
    worm_compare,
    worm_of_ordinal,
    worm_ordinal,
)

MAXSIZE = 2**12


def _error(make) -> tuple[type, str]:
    with pytest.raises(OrdlabError) as caught:
        make()
    return type(caught.value), str(caught.value)


# --- ordinal assignment ---------------------------------------------------------

@pytest.mark.parametrize("letters, expected", [
    ((), "0"),
    ((0,), "1"),
    ((2,), "w^w"),
    ((1, 0, 1), "w*2"),
    ((1,), "w"),
    ((1, 1), "w^2"),
    ((0, 1), "w+1"),
    ((2, 1, 0), "w^w"),
])
def test_worm_ordinal_cases(letters, expected):
    assert worm_ordinal(Worm(letters)) == parse_ordinal(expected)


def test_alphabet_zero_worms_are_naturals():
    for n in range(51):
        assert worm_ordinal(Worm((0,) * n)) == from_int(n)


def test_long_worms_do_not_recurse_along_their_length():
    n = 5000
    assert worm_ordinal(Worm((0,) * n)) == from_int(n)
    assert worm_ordinal(Worm((1, 0) * n)) == parse_ordinal(f"w*{n}")
    assert worm_of_ordinal(from_int(n)) == Worm((0,) * n)
    assert worm_of_ordinal(parse_ordinal(f"w^2*{n}+w+3")) == Worm((0, 0, 0, 1) + (0, 1, 1) * n)
    with pytest.raises(RangeError):
        worm_of_ordinal(from_int(2**32))


# --- the cache ----------------------------------------------------------------------

def _other_worms(count: int) -> list[Worm]:
    """``count`` distinct worms, each led by the letter 5, which no worm of
    the exhaustive check holds."""
    return [Worm((5, *letters))
            for letters in itertools.islice(itertools.product(range(5), repeat=6), count)]


EXHAUSTIVE = [Worm(letters) for n in range(7) for letters in itertools.product(range(4), repeat=n)]


def test_cache_stays_within_its_bound():
    worm_ordinal.cache_clear()
    for w in _other_worms(MAXSIZE + 100):
        worm_ordinal(w)
    info = worm_ordinal.cache_info()
    assert info.misses >= MAXSIZE + 100
    assert info.currsize <= MAXSIZE


def test_letters_fit_in_a_byte():
    # The cache keys a worm by bytes(letters), so a letter must be below 256.
    assert MAX_DEPTH < 256


@pytest.mark.parametrize("full", [False, True], ids=["cleared", "evicting"])
def test_every_short_worm_matches_the_uncached_reference(full):
    assert len(EXHAUSTIVE) == 5461
    worm_ordinal.cache_clear()
    if full:
        for w in _other_worms(MAXSIZE + 100):
            worm_ordinal(w)
        assert worm_ordinal.cache_info().currsize == MAXSIZE
    for w in EXHAUSTIVE + [parse_worm("100"), parse_worm("100 0 100")]:
        assert str(worm_ordinal(w)) == oracle.fmt(oracle.worm_ordinal(w.letters)), w


def test_long_repetitive_worm_round_trips_in_few_misses():
    # The worm and its 40000 equal pieces "1 1 1 3 1 3" take two entries,
    # and that piece's levels the other five.
    x = parse_ordinal("w^(w^w*2+3)*40000")
    w = worm_of_ordinal(x)
    assert len(w.letters) == 279_999
    worm_ordinal.cache_clear()
    assert worm_ordinal(w) == x
    assert worm_ordinal.cache_info().misses == 7


def test_cache_clear_empties_the_cache():
    worm_ordinal(parse_worm("2 0 1 1"))
    assert worm_ordinal.cache_info().currsize > 0
    worm_ordinal.cache_clear()
    info = worm_ordinal.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


# --- comparison -------------------------------------------------------------------

@pytest.mark.parametrize("u, v, expected", [
    ((1,), (0, 0, 0), GT),
    ((0, 1), (1,), GT),
    ((2,), (2,), EQ),
    ((), (0,), LT),
    ((2,), (2, 1), EQ),  # o(<2 1>) = w^o(<1 0>) = w^w as well
    ((2,), (0, 2), LT),
])
def test_worm_compare_cases(u, v, expected):
    assert worm_compare(Worm(u), Worm(v)) == expected


def test_monotone_lift_exhaustive():
    pool = list(worms_up_to(4))
    for u in pool:
        for v in pool:
            assert worm_compare(u, v) == worm_compare(lift(u, 1), lift(v, 1))


# --- lift / drop -------------------------------------------------------------------

def test_lift_drop_basics():
    assert lift(TOP, 3) == TOP
    assert format_worm(TOP) == "T" and repr(TOP) == "Worm('T')"
    assert drop(Worm((2, 1))) == Worm((1, 0))
    assert lift(Worm((0, 2)), 2) == Worm((2, 4))
    assert _error(lambda: lift(Worm((1,)), -1)) == (WormError, "lift amount must be a natural number")
    assert _error(lambda: drop(Worm((1, 0)))) == (WormError, "cannot drop a worm containing the letter 0")
    with pytest.raises(WormError):
        Worm((-1,))


# --- canonical inverse --------------------------------------------------------------

@pytest.mark.parametrize("text, letters", [
    ("0", ()),
    ("2", (0, 0)),
    ("w^w", (2,)),
    ("w", (1,)),
    ("w+1", (0, 1)),
    ("w*2", (1, 0, 1)),
])
def test_worm_of_ordinal_cases(text, letters):
    assert worm_of_ordinal(parse_ordinal(text)) == Worm(letters)


def test_worm_of_ordinal_rejects_epsilon0_and_above():
    for text in ("e0", "e0+1", "phi(1,1)", "phi(2,0)"):
        with pytest.raises(RangeError):
            worm_of_ordinal(parse_ordinal(text))


@pytest.mark.parametrize("text, message", [
    # The inner level w*1000000 overflows first, and its error names it.
    ("w^(w*1000000)", "the worm of w*1000000 needs more than 1000000 letters"),
    ("w^w^w*600000", "the worm of w^w^w*600000 needs more than 1000000 letters"),
    ("e0", "e0 is not below e0, which worms cannot reach"),
])
def test_of_ordinal_errors_at_the_cli(capsys, text, message):
    assert run(["worm", "of-ordinal", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: range: {message}\n"


def test_of_ordinal_letter_cap_at_the_api():
    assert worm_of_ordinal(iter_omega(MAX_DEPTH, 1)).letters == (MAX_DEPTH,)
    with pytest.raises(RangeError) as caught:
        worm_of_ordinal(iter_omega(MAX_DEPTH + 1, 1))
    assert str(caught.value) == f"worm letter {MAX_DEPTH + 1} exceeds the depth cap {MAX_DEPTH}"


# --- the unchecked makers ------------------------------------------------------

def _public_chain(letters) -> Reflect:
    """theory_of_worm's chain, made with the public Reflect."""
    expr = EA_PLUS
    for letter in reversed(letters):
        expr = Reflect(letter + 1, ONE, expr)
    return expr


def _assert_public(made: Worm, letters):
    """``made`` is the worm the public constructor makes from ``letters``."""
    public = Worm(letters)
    assert made == public and hash(made) == hash(public) and repr(made) == repr(public)
    assert type(made.letters) is tuple and all(type(l) is int for l in made.letters)


def test_unchecked_makers_agree_with_the_public_constructors():
    for w in worms_up_to(7):
        letters = w.letters
        _assert_public(parse_worm(format_worm(w)), letters)
        _assert_public(lift(w, 1), [l + 1 for l in letters])
        if 0 not in letters:
            _assert_public(drop(w), [l - 1 for l in letters])
        back = worm_of_ordinal(worm_ordinal(w))
        _assert_public(back, back.letters)
        assert worm_ordinal(back) == worm_ordinal(w)
        made, public = theory_of_worm(w), _public_chain(letters)
        assert made == public and hash(made) == hash(public) and repr(made) == repr(public)
        while made is not EA_PLUS:
            assert made.depth == public.depth
            made, public = made.over, public.over


@pytest.mark.parametrize("letter", [MAX_DEPTH, MAX_DEPTH + 1, 255, 256, 10**5, 2**32 + 1])
def test_parse_worm_refuses_as_the_constructor_does(letter):
    letters = (0, letter, 1)
    text = " ".join(map(str, letters))
    if letter <= MAX_DEPTH:
        _assert_public(parse_worm(text), letters)
    else:
        refusal = _error(lambda: Worm(letters))
        assert refusal == (RangeError, f"worm letter {letter} exceeds the depth cap {MAX_DEPTH}")
        assert _error(lambda: parse_worm(text)) == refusal


_LONG = "1" + "0" * MAX_NUMERAL_DIGITS  # one digit too many
_SMALL = "1 " * 2200  # small letters, but longer than a numeral may be


@pytest.mark.parametrize("text, answer", [
    ("T", ()),
    (" T\n", ()),
    # A text no longer than a numeral, all of whose pieces are decimal,
    # takes the fast path: pieces split on any whitespace, digits in any script.
    ("1\xa02", (1, 2)),
    ("1\t\n2", (1, 2)),
    ("\u0661 \u0662", (1, 2)),
    ("", (ParseError, "empty worm text; the empty worm is written 'T'")),
    (" ", (ParseError, "empty worm text; the empty worm is written 'T'")),
    ("1 101", (RangeError, f"worm letter 101 exceeds the depth cap {MAX_DEPTH}")),
    (_LONG[:-1], (RangeError, f"worm letter {_LONG[:-1]} exceeds the depth cap {MAX_DEPTH}")),
    # Any other text is read piece by piece, and its first bad piece is reported.
    ("2 x 1", (ParseError, "bad worm letter 'x'")),
    (_LONG, (RangeError, f"numeral is longer than {MAX_NUMERAL_DIGITS} digits")),
    (f"{_LONG} x", (RangeError, f"numeral is longer than {MAX_NUMERAL_DIGITS} digits")),
    (f"x {_LONG}", (ParseError, "bad worm letter 'x'")),
    (_SMALL, (1,) * 2200),
    (_SMALL + " x", (ParseError, "bad worm letter 'x'")),
], ids=["T", "spaced-T", "nbsp", "tab-newline", "arabic-indic", "empty", "blank", "letter-101",
        "4300-digits", "bad-letter", "4301-digits", "too-long-then-bad", "bad-then-too-long",
        "2200-letters", "2200-letters-then-bad"])
def test_parse_worm_fast_path_and_fallback(text, answer):
    if answer and isinstance(answer[0], type):
        assert _error(lambda: parse_worm(text)) == answer
    else:
        _assert_public(parse_worm(text), answer)


@pytest.mark.parametrize("k", [1, 2, 10**30])
def test_lift_refuses_as_the_constructor_does(k):
    # Lifted by 1 the letter 99 reaches the cap; by 2, one past it.
    w = Worm((0, MAX_DEPTH - 1, 3))
    letters = [l + k for l in w.letters]
    if max(letters) <= MAX_DEPTH:
        _assert_public(lift(w, k), letters)
    else:
        refusal = _error(lambda: Worm(letters))
        assert refusal[0] is RangeError
        assert _error(lambda: lift(w, k)) == refusal


@pytest.mark.parametrize("letters, message", [
    # A letter n is one step of Pi_{n+1} reflection: the letter 100 is level 101.
    ((0, MAX_DEPTH, 1), f"reflection level {MAX_DEPTH + 1} exceeds the depth cap {MAX_DEPTH}"),
    ((0,) * (MAX_DEPTH + 1), f"worm length {MAX_DEPTH + 1} exceeds the depth cap {MAX_DEPTH}"),
    # The length is checked before the letters.
    ((MAX_DEPTH,) + (0,) * MAX_DEPTH, f"worm length {MAX_DEPTH + 1} exceeds the depth cap {MAX_DEPTH}"),
], ids=["letter-100", "101-letters", "101-letters-with-a-100"])
def test_to_theory_refusals(capsys, letters, message):
    if len(letters) <= MAX_DEPTH:
        assert _error(lambda: _public_chain(letters)) == (RangeError, message)
    assert _error(lambda: theory_of_worm(Worm(letters))) == (RangeError, message)
    assert run(["worm", "to-theory", " ".join(map(str, letters))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: range: {message}\n"

import pytest

from conftest import worms_up_to
from ordlab._scan import MAX_DEPTH
from ordlab.errors import ParseError, RangeError, WormError
from ordlab.ordinals import (
    EQ,
    GT,
    LT,
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
    assert drop(Worm((2, 1))) == Worm((1, 0))
    assert lift(Worm((0, 2)), 2) == Worm((2, 4))
    with pytest.raises(WormError):
        drop(Worm((1, 0)))
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


def test_round_trip_on_worm_images():
    for w in worms_up_to(4):
        o = worm_ordinal(w)
        assert worm_ordinal(worm_of_ordinal(o)) == o


# --- theory translation ---------------------------------------------------------------

def test_theory_of_worm_shapes():
    from ordlab.ordinals import ONE

    assert theory_of_worm(TOP) == EA_PLUS
    assert theory_of_worm(Worm((0,))) == Reflect(1, ONE, EA_PLUS)
    assert theory_of_worm(Worm((1, 1))) == Reflect(2, ONE, Reflect(2, ONE, EA_PLUS))
    assert theory_of_worm(Worm((2, 0))) == Reflect(3, ONE, Reflect(1, ONE, EA_PLUS))


# --- text format ------------------------------------------------------------------------

def test_worm_text_round_trip():
    for w in worms_up_to(3):
        assert parse_worm(format_worm(w)) == w
    assert format_worm(TOP) == "T"
    assert parse_worm("2 0 1") == Worm((2, 0, 1))
    assert repr(Worm((2, 0, 1))) == "Worm('2 0 1')" and repr(TOP) == "Worm('T')"
    with pytest.raises(ParseError):
        parse_worm("2 x 1")
    with pytest.raises(ParseError):
        parse_worm("")


def test_worm_letter_cap_and_lift_validation():
    with pytest.raises(RangeError):
        parse_worm(str(2**32 + 1))
    with pytest.raises(WormError):
        lift(Worm((1,)), -1)


def test_letters_and_worm_theories_stop_at_the_depth_cap():
    top = Worm((MAX_DEPTH,))
    assert worm_ordinal(top) == iter_omega(MAX_DEPTH, 1)
    for make in (lambda: Worm((MAX_DEPTH + 1,)), lambda: lift(top, 1),
                 lambda: lift(Worm((0,)), 2**40), lambda: parse_worm(f"0 {MAX_DEPTH + 1}"),
                 lambda: theory_of_worm(top)):
        with pytest.raises(RangeError):
            make()
    # A letter n nests Pi_{n+1} reflection, and a worm nests one reflection
    # per letter.
    tallest = theory_of_worm(Worm((MAX_DEPTH - 1,) * MAX_DEPTH))
    assert tallest.level == MAX_DEPTH
    with pytest.raises(RangeError):
        theory_of_worm(Worm((0,) * (MAX_DEPTH + 1)))


def test_long_worms_do_not_recurse_along_their_length():
    n = 5000
    assert worm_ordinal(Worm((0,) * n)) == from_int(n)
    assert worm_ordinal(Worm((1, 0) * n)) == parse_ordinal(f"w*{n}")
    assert worm_of_ordinal(from_int(n)) == Worm((0,) * n)
    assert worm_of_ordinal(parse_ordinal(f"w^2*{n}+w+3")) == Worm((0, 0, 0, 1) + (0, 1, 1) * n)
    with pytest.raises(RangeError):
        worm_of_ordinal(from_int(2**32))

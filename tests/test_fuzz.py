"""Every text parser, fed text of at most 60 characters built from its
grammar's alphabet plus two digit-like characters, either returns a value or
raises an OrdlabError; nothing else escapes.  Every command, fed generated
arguments, exits 0, 1 with one error line, or 2 with argparse's usage error
last, within a wall-time bound."""

import contextlib
import io
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlab._scan import MAX_DEPTH
from ordlab.cli import run
from ordlab.errors import OrdlabError
from ordlab.notation import parse_predicate
from ordlab.ordinals import parse_ordinal
from ordlab.theories import parse_theory
from ordlab.worms import parse_worm

# "²" is a digit to str.isdigit but not to int(); "١" (Arabic-Indic one) is
# a decimal digit to both.
DIGITS = list("0123456789²١")

ORDINAL = DIGITS + [" ", "w", "^", "e0", "+", "*", "phi", "(", ",", ")"]
THEORY = ORDINAL + ["(rfn ", "(con ", "EA+", "PA"]
WORM = DIGITS + [" ", "\t", "T"]
PREDICATE = DIGITS + [" ", "x", "+", "*", "<", "<=", ">", ">=", "=", "!=", "(", ")",
                      "and", "or", "not", "true", "false"]


def _text(alphabet: list[str]):
    return st.lists(st.sampled_from(alphabet), max_size=40).map(lambda parts: "".join(parts)[:60])


# Text reaches an inner rule only behind the right opening, so most theories
# open with a head.
THEORIES = st.builds(lambda head, rest: (head + rest)[:60],
                     st.sampled_from(["", "(rfn ", "(con "]), _text(THEORY))

CASES = [
    (parse_ordinal, _text(ORDINAL)),
    (parse_worm, _text(WORM)),
    (parse_theory, THEORIES),
    (parse_predicate, _text(PREDICATE)),
]


@pytest.mark.parametrize("parse, texts", CASES, ids=[parse.__name__ for parse, _ in CASES])
def test_parsers_raise_only_ordlab_errors(parse, texts):
    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(texts)
    def check(text):
        try:
            parse(text)
        except OrdlabError:
            pass

    check()


# cli.run over generated argv: text from the grammar alphabets, and inputs
# deep (nesting around the depth cap), long (worms and sums of thousands of
# pieces) and wide (numerals around the 2**32 width and past 4300 digits).
def _deep(opening: str, core: str, closing: str):
    return st.integers(0, 3 * MAX_DEPTH).map(lambda n: opening * n + core + closing * n)


def _long(piece: str, sep: str):
    return st.integers(0, 6000).map(lambda n: sep.join([piece] * n) or piece)


NUMERALS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from([str(MAX_DEPTH), str(MAX_DEPTH + 1), str(2**32), str(2**32 + 1), "9" * 25, "9" * 4301]),
)
ORDINALS = st.one_of(
    _text(ORDINAL), _deep("(", "1", ")"), _deep("w^", "1", ""), _deep("phi(", "0", ",0)"),
    _long("w", "+"), NUMERALS, NUMERALS.map("w*{}".format), NUMERALS.map("w^{}".format),
)
WORMS = st.one_of(
    _text(WORM), _long("0", " "), _long("1 0", " "), NUMERALS,
    st.lists(st.integers(0, 2 * MAX_DEPTH), max_size=3000).map(lambda ls: " ".join(map(str, ls)) or "T"),
)
THEORY_ARGS = st.one_of(
    THEORIES, _deep("(con 1 ", "EA+", ")"), st.sampled_from(["PA", "PA+Con(PA)", "1Con(EA+)"]),
    st.builds("(rfn {} {} EA+)".format, NUMERALS, ORDINALS),
)
PREDICATES = st.one_of(_text(PREDICATE), _deep("not ", "x = 1", ""), _deep("(", "x", ") != 1"),
                       _long("x", "*").map("{} >= 0".format),
                       # long bodies inside deep parentheses: a sum and an "and" chain
                       _deep("(", " + ".join(["x"] * 3000), ") != 1"),
                       _deep("(", " and ".join(["x != 1"] * 1000), ")"),
                       # several operators on each level, a comparison's side among them
                       _deep("x+x*(", "x", ")").map("{} = 1".format), _deep("x = x+x*(", "x", ")"))
SLOTS = {"o": ORDINALS, "n": NUMERALS, "w": WORMS, "t": THEORY_ARGS, "p": PREDICATES, "x": _text(THEORY)}
COMMANDS = [
    ("ord cmp", "oo"), ("ord add", "oo"), ("ord mul", "on"), ("ord normalize", "o"), ("ord phi", "oo"),
    ("ord next-phi", "oo"), ("ord enum", ""), ("worm o", "w"), ("worm cmp", "ww"), ("worm of-ordinal", "o"),
    ("worm to-theory", "w"), ("theory pi-ordinal", "tn"), ("theory reduce", "tn"), ("theory stage", "to"),
    ("theory catalog", ""), ("theory catalog", "t"), ("dilator eval", "oo"), ("notation kreisel", "pn"),
    ("notation audit", "pn"), ("notation descend", "p"), ("formula slowcon", ""), ("formula slowcon --top", ""),
    ("formula sv", ""), ("formula sv --top", ""), ("formula svstar", ""), ("formula rosser", ""),
    ("formula constar", ""), ("formula constar", "x"), ("formula constar", "xx"),
]
# The dash-heavy flags reach argparse, which reads what the command table does not.
FLAGS = st.lists(st.sampled_from([["--ascii"], ["--fuel", "50"], ["--fuel", "2000000"], ["--max-nodes", "9"],
                                  ["--max-nodes", "11"], ["--fuel=50"], ["--fu", "50"], ["--ascii", "--ascii"],
                                  ["--"], ["-h"], ["-5"], ["-"], [""], ["--top"]]),
                 max_size=2)
ARGVS = st.builds(
    lambda flags, argv: [f for flag in flags for f in flag] + argv,
    FLAGS,
    st.sampled_from(COMMANDS).flatmap(
        lambda command: st.tuples(*(SLOTS[slot] for slot in command[1])).map(
            lambda args: command[0].split() + list(args))),
)


def test_fuzz_covers_every_command(registered_commands):
    assert {tuple(command.split()[:2]) for command, _ in COMMANDS} == set(registered_commands)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(ARGVS)
def test_cli_ends_in_an_answer_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert time.perf_counter() - start < 2
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    if code == 0:
        assert err.getvalue() == ""
    if code == 2:
        assert out.getvalue() == ""
        assert re.match(r"ordlab( [\w-]+)*: error: ", err.getvalue().splitlines()[-1])

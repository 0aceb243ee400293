"""The ordlab CLI, through `cli.run` and as a real process.

Every argv ends in its documented answer or in one refusal line, and tables
of rows state that contract byte for byte:

- an answer row pairs an argv with its whole stdout, less the final newline,
  and `_assert_answer` requires exit 0, exactly that stdout and an empty
  stderr;
- a refusal row pairs an argv with its stderr line, less the newline, and
  `_assert_refusal` requires exit 1 within a second, an empty stdout and
  exactly that one line.

Each table has its own test, which makes that one call a row. Usage errors
(exit 2), help texts, the command table's own reader and the README follow;
`test_subprocess_ends` holds a real process to its exact stdout and stderr.
"""
import contextlib
import doctest
import io
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordlab
from conftest import GOLDEN_CORPUS
from ordlab import cli
from ordlab._scan import MAX_DEPTH
from ordlab.cli import _COMMANDS, _read, build_parser, run
from ordlab.theories import EA_PLUS, default_catalog


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _nest(head, n):
    """The theory text of n levels `head … )` over EA+."""
    return head * n + "EA+" + ")" * n


TOWER = "w^" * MAX_DEPTH + "1"
CONS = _nest("(con 1 ", MAX_DEPTH)


# --- answers: exit 0, exactly this stdout, nothing on stderr ----------------------

def _assert_answer(capsys, argv, text):
    assert invoke(capsys, *argv) == (0, text + "\n", "")


@pytest.mark.parametrize("argv, expected", [
    (("ord", "cmp", "w^w+1", "e0"), "LT"),
    (("ord", "cmp", "e0", "w^(phi(1,0))"), "EQ"),
    (("ord", "add", "w^w+w", "w^2"), "w^w+w^2"),
    (("ord", "mul", "w+1", "2"), "w*2+1"),
    (("ord", "normalize", "1+w+phi(0,phi(1,0))"), "e0"),
    (("ord", "phi", "1", "0"), "e0"),
    (("ord", "next-phi", "0", "w+1"), "w^2"),
    (("worm", "o", "1 0 1"), "w*2"),
    (("worm", "cmp", "0 1", "1"), "GT"),
    (("worm", "of-ordinal", "w^w"), "2"),
    (("worm", "to-theory", "1 1"), "(rfn 2 1 (rfn 2 1 EA+))"),
    (("theory", "pi-ordinal", "PA", "1"), "e0"),
    (("theory", "pi-ordinal", "PA+Con(PA)", "1"), "e0*2"),
    (("theory", "pi-ordinal", "(rfn 2 1 EA+)", "2"), "1"),
    (("theory", "pi-ordinal", "(rfn 2 1 EA+)", "1"), "w"),
    (("theory", "reduce", "1Con(EA+)", "1"), "(con w EA+)"),
    (("theory", "stage", "EA+", "1"), "(con 1 EA+)"),
    (("theory", "catalog", "PA+Con(PA)"), "(con 1 PA)"),
    (("dilator", "eval", "0", "0"), "e0"),
    # The default fuel, 10000, ends the descent.
    (("notation", "descend", "x != 7"), " ".join(map(str, range(7, 10001)))),
    (("ord", "cmp", "w", "e0"), "LT"),
    (("theory", "catalog"), "\n".join([
        "EA+ = EA+", "PA = PA", "Con(EA+) = (con 1 EA+)", "1Con(EA+) = (rfn 2 1 EA+)",
        "2Con(EA+) = (rfn 3 1 EA+)", "PA+Con(PA) = (con 1 PA)", "PA+Con^2(PA) = (con 2 PA)"])),
    (("--fuel", "12", "notation", "descend", "x != 7"), "7 8 9 10 11 12"),
    (("notation", "descend", "true"), "none"),
    # With no fuel the chain is the counterexample 0 alone.
    (("--fuel", "0", "notation", "descend", "x != 0"), "0"),
    (("notation", "kreisel", "x != 7", "100"), "predicate: x != 7\nwindow: 100\nascending: no"),
    (("notation", "audit", "x != 7", "100"), "window: 100\ncounterexamples: 1\ndescents: 93\nequivalent: yes"),
    (("formula", "slowcon"), "∀x(F_e0(x)↓ → Con(ISigma_x + φ))"),
    (("--ascii", "formula", "slowcon"), "forall x (F_e0(x)| -> Con(ISigma_x + phi))"),
    (("--ascii", "formula", "slowcon", "--top"), "forall x (F_e0(x)| -> Con(ISigma_x))"),
    (("--ascii", "formula", "svstar"), "phi or (not phi and psi and forall x (Con(ISigma_x + (not phi and psi)) "
                                       "-> Con^2(ISigma_x + (not phi and psi))) and psi)"),
    (("formula", "constar", "a", "PA"), "PA ⊢ Con★(a,PA) ↔ ∀β ≺ a Con(PA+⌜Con★(β,PA)⌝)"),
    # A character without an ASCII name is escaped, so --ascii output is ASCII.
    (("--ascii", "formula", "constar", "ω", "T"),
     "PA |- Con*(\\u03c9,T) <-> forall beta < \\u03c9 Con(T+[Con*(beta,T)])"),
    # A numeral's digits are str.isdecimal characters of any script, and its
    # value has no width below the 4300-digit limit.
    (("ord", "normalize", "١"), "1"),
    (("theory", "pi-ordinal", "(rfn ٢ 1 EA+)", "1"), "w"),
    (("ord", "normalize", "4294967296"), "4294967296"),
    (("notation", "kreisel", "x != " + "9" * 4300, "10"),
     "predicate: x != " + "9" * 4300 + "\nwindow: 10\nascending: yes"),
])
def test_success_outputs(capsys, argv, expected):
    _assert_answer(capsys, argv, expected)


def test_enum_respects_max_nodes(capsys):
    code, out, _ = invoke(capsys, "--max-nodes", "2", "ord", "enum")
    assert code == 0
    assert out.splitlines() == ["0", "1", "2", "w", "e0"]
    # At the largest size the cap allows, every term of size 8, smallest first.
    code, out, _ = invoke(capsys, "--max-nodes", "8", "ord", "enum")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 10409
    assert (lines[0], lines[-1]) == ("0", "phi(phi(phi(phi(phi(phi(e0,0),0),0),0),0),0)")


# Every integer argument, with None where the integer goes, and its answer at 3.
INTEGER_ARGUMENTS = {
    ("ord", "mul", "w", None): "w*3",
    ("theory", "pi-ordinal", "EA+", None): "0",
    ("theory", "reduce", "(rfn 3 1 EA+)", None): "(rfn 3 1 EA+)",
    ("notation", "kreisel", "x != 7", None): "predicate: x != 7\nwindow: 3\nascending: yes",
    ("notation", "audit", "x != 7", None): "window: 3\ncounterexamples: 0\ndescents: 0\nequivalent: yes",
    ("--fuel", None, "notation", "descend", "x != 7"): "none",
    ("--max-nodes", None, "ord", "enum"): "\n".join([
        "0", "1", "2", "3", "w", "w+1", "w^2", "w^w", "e0", "e0+1", "phi(1,1)", "phi(2,0)", "phi(w,0)",
        "phi(e0,0)"]),
}


def _with_integer(argv, text):
    return [text if arg is None else arg for arg in argv]


@pytest.mark.parametrize("argv", INTEGER_ARGUMENTS)
def test_integer_argument_digits_of_any_script(capsys, argv):
    _assert_answer(capsys, _with_integer(argv, "٣"), INTEGER_ARGUMENTS[argv])


# The tallest values each command can reach at the caps answer in-process.
@pytest.mark.parametrize("argv, expected", [
    (("theory", "pi-ordinal", f"(rfn {MAX_DEPTH} {TOWER} EA+)", "1"), "w^" * (2 * MAX_DEPTH - 2) + "w"),
    (("theory", "reduce", _nest(f"(rfn {MAX_DEPTH} 1 ", MAX_DEPTH), "1"),
     f"(con {'w^' * (MAX_DEPTH - 1)}{MAX_DEPTH} EA+)"),
    (("theory", "stage", CONS, TOWER), "(con " + "w^" * (MAX_DEPTH - 1) + "w" + CONS[6:]),
    (("ord", "cmp", TOWER, TOWER + "+1"), "LT"),
    (("ord", "normalize", "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH), "1"),
    (("dilator", "eval", TOWER, TOWER), "phi(" + "w^" * (MAX_DEPTH - 1) + "w,0)"),
    (("worm", "o", str(MAX_DEPTH)), "w^" * (MAX_DEPTH - 1) + "w"),
    (("worm", "to-theory", f"{MAX_DEPTH - 1} " * MAX_DEPTH), _nest(f"(rfn {MAX_DEPTH} 1 ", MAX_DEPTH)),
    (("worm", "of-ordinal", "w^" * (MAX_DEPTH - 1) + "w"), str(MAX_DEPTH)),
    (("notation", "audit", "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH + " != 1", "10"),
     "window: 10\ncounterexamples: 1\ndescents: 9\nequivalent: yes"),
    # A stage nests one level deeper than its theory, so up to the cap, but
    # over a level-1 theory it concatenates and nests no deeper.
    (("theory", "stage", _nest("(rfn 2 1 ", MAX_DEPTH - 1), "1"),
     "(con 1 " + _nest("(rfn 2 1 ", MAX_DEPTH - 1) + ")"),
    (("theory", "stage", CONS, "1"), "(con 2" + CONS[6:]),
])
def test_tallest_values_answer(capsys, argv, expected):
    _assert_answer(capsys, argv, expected)


# Worm ordinals and their inverse no longer recurse along the worm.
@pytest.mark.parametrize("argv, expected", [
    (("worm", "o", "0 " * 626), "626"),
    (("worm", "o", "0 " * 5000), "5000"),
    (("worm", "of-ordinal", "990"), " ".join(["0"] * 990)),
    (("worm", "of-ordinal", "5000"), " ".join(["0"] * 5000)),
    (("worm", "cmp", "1 0 " * 3000, "2"), "LT"),
])
def test_long_worms_answer(capsys, argv, expected):
    _assert_answer(capsys, argv, expected)


def test_long_worm_round_trips(capsys):
    # 400 pieces of 7 letters with their separators, less the last 0: 2799 letters.
    code, out, err = invoke(capsys, "worm", "of-ordinal", "w^(w^w*2+3)*400")
    assert (code, len(out), err) == (0, 5598, "")
    assert invoke(capsys, "worm", "o", out.rstrip("\n")) == (0, "w^(w^w*2+3)*400\n", "")


@pytest.mark.parametrize("text", GOLDEN_CORPUS)
def test_normalize_round_trip(capsys, text):
    code, out, _ = invoke(capsys, "ord", "normalize", text)
    assert code == 0
    assert out == text + "\n"


def test_byte_identical_reruns(capsys):
    invocations = [
        ("ord", "enum"),
        ("theory", "pi-ordinal", "PA+Con(PA)", "1"),
        ("formula", "svstar"),
        ("notation", "audit", "x != 7", "150"),
        ("worm", "of-ordinal", "w^w+w*2+3"),
    ]
    first = []
    for argv in invocations:
        code, out, err = invoke(capsys, *argv)
        assert code == 0
        first.append((out, err))
    for argv, previous in zip(invocations, first):
        code, out, err = invoke(capsys, *argv)
        assert code == 0
        assert (out, err) == previous


def test_catalog_is_read_only(capsys):
    listing = invoke(capsys, "theory", "catalog")
    with pytest.raises(TypeError):
        default_catalog()["PA"] = EA_PLUS
    with pytest.raises(TypeError):
        del default_catalog()["PA"]
    assert invoke(capsys, "theory", "catalog") == listing
    assert invoke(capsys, "theory", "pi-ordinal", "PA", "1") == (0, "e0\n", "")


# --- refusals: exit 1 within a second, nothing on stdout, this one stderr line -----

def _assert_refusal(capsys, argv, line):
    start = time.perf_counter()
    assert invoke(capsys, *argv) == (1, "", line + "\n")
    assert time.perf_counter() - start < 1


# Each grammar's error line, message and position included.
@pytest.mark.parametrize("argv, line", [
    (("ord", "normalize", "phi(1,2"), "error: parse: expected ')' at position 7"),
    (("ord", "normalize", "w^^"), "error: parse: expected an ordinal term at position 2"),
    (("ord", "normalize", "1 2"), "error: parse: trailing input at position 2"),
    (("ord", "normalize", "foo"), "error: parse: unknown name 'foo' at position 0"),
    (("ord", "normalize", "w*x"), "error: parse: expected a numeral at position 2"),
    (("theory", "pi-ordinal", "(rfn 2 0 EA+)", "1"),
     "error: parse: reflection iterations must be > 0 at position 12"),
    (("theory", "pi-ordinal", "(foo 1 EA+)", "1"),
     "error: parse: expected 'rfn' or 'con', got 'foo' at position 1"),
    (("theory", "pi-ordinal", "(rfn 2 1 EA)", "1"), "error: parse: unknown theory name 'EA' at position 9"),
    (("theory", "pi-ordinal", "(rfn 2 1 EA+", "1"), "error: parse: expected ')' at position 12"),
    (("theory", "pi-ordinal", "(rfn x 1 EA+)", "1"), "error: parse: expected a reflection level at position 5"),
    (("theory", "pi-ordinal", "(rfn 0 1 EA+)", "1"), "error: parse: reflection level must be >= 1 at position 12"),
    (("theory", "pi-ordinal", "(rfn 2 1 EA+) x", "1"),
     "error: parse: trailing input after theory expression at position 14"),
    (("theory", "pi-ordinal", "(rfn 2 1 (con EA+))", "1"), "error: parse: unknown name 'EA' at position 14"),
    (("worm", "o", "1 x 2"), "error: parse: bad worm letter 'x'"),
    (("worm", "o", ""), "error: parse: empty worm text; the empty worm is written 'T'"),
    (("notation", "audit", "x !! 7", "10"), "error: predicate: expected a comparison operator at position 2"),
    (("notation", "audit", "y = 1", "10"), "error: predicate: expected a numeral, 'x', or '(' at position 0"),
    (("notation", "audit", "(x != 1", "10"), "error: predicate: expected ')' at position 7"),
    (("notation", "audit", "x = 1 x", "10"), "error: predicate: trailing input at position 6"),
    (("ord", "mul", "w", "-1"), "error: range: multiplier must be a natural number"),
    (("--max-nodes", "-1", "ord", "enum"), "error: range: max_nodes must be a natural number"),
    # With two bad arguments, the first is the one reported.
    (("ord", "add", "(", "w^^"), "error: parse: expected an ordinal term at position 1"),
    (("theory", "stage", "ZFC", "0"), "error: parse: unknown theory name 'ZFC' at position 0"),
    (("notation", "kreisel", "x !=", "-1"),
     "error: predicate: expected a numeral, 'x', or '(' at position 4"),
    # A parenthesized predicate is no sum; it is read whole before that is checked.
    (("notation", "audit", "x + (x = 1) > 0", "10"), "error: predicate: expected a sum at position 4"),
    (("notation", "audit", "x + (x = 1 and x > " + "9" * 4301 + ") > 0", "10"),
     "error: range: numeral is longer than 4300 digits"),
    # Nesting up to the cap stays within Python's recursion limit, however
    # many operators each level holds.
    (("notation", "audit", "x+x*(" * 100 + "x" + ")" * 100 + " = 1", "10"),
     "error: range: predicate tree deeper than the depth cap 100"),
    (("notation", "audit", "x = x+x*(" * 101 + "x" + ")" * 101, "10"),
     "error: range: nesting exceeds the depth cap 100 at position 909"),
    # A numeral is a whole word: a numeral glued to the word after it is
    # refused at its start.
    (("theory", "pi-ordinal", "(con 1PA)", "1"), "error: parse: expected a numeral at position 5"),
    (("theory", "pi-ordinal", "(rfn 2 1EA+)", "1"), "error: parse: expected a numeral at position 7"),
    (("notation", "kreisel", "x = 1and x = 2", "5"), "error: predicate: expected a numeral at position 4"),
    (("ord", "normalize", "12w"), "error: parse: expected a numeral at position 0"),
    (("notation", "audit", "2x = 1", "10"), "error: predicate: expected a numeral at position 0"),
    # One refusal of each code: parse, range, unsupported and catalog.
    (("ord", "cmp", "w^^", "0"), "error: parse: expected an ordinal term at position 2"),
    (("worm", "of-ordinal", "e0"), "error: range: e0 is not below e0, which worms cannot reach"),
    (("theory", "pi-ordinal", "PA", "2"), "error: unsupported: PA-based expressions are analyzed at level 1 only"),
    # An unknown theory name is a catalog error only to `theory catalog`.
    (("theory", "catalog", "ZFC"), "error: catalog: unknown theory name 'ZFC'"),
    (("theory", "pi-ordinal", "ZFC", "1"), "error: parse: unknown theory name 'ZFC' at position 0"),
    # --fuel is at most its cap, and neither it nor a window is negative.
    (("--fuel", "10000000", "notation", "audit", "true", "10000000"),
     "error: range: fuel 10000000 exceeds the cap 1000000"),
    (("--fuel", "2000000", "notation", "kreisel", "true", "5"),
     "error: range: fuel 2000000 exceeds the cap 1000000"),
    (("--fuel", "2000000", "notation", "descend", "true"),
     "error: range: fuel 2000000 exceeds the cap 1000000"),
    (("notation", "kreisel", "x != 7", "--", "-5"), "error: range: window -5 is negative"),
    (("notation", "audit", "x != 7", "--", "-5"), "error: range: window -5 is negative"),
    (("--fuel", "-3", "notation", "descend", "x != 7"), "error: range: fuel -3 is negative"),
    (("--fuel", "-1", "notation", "kreisel", "x != 7", "5"), "error: range: fuel -1 is negative"),
    # A `not` gives back the one level it took, so the nesting after it
    # still counts from the level before it.
    (("notation", "audit", "not x = 1 and " + "(" * 101 + "x" + ")" * 101 + " = 1", "10"),
     "error: range: nesting exceeds the depth cap 100 at position 115"),
])
def test_error_lines(capsys, argv, line):
    _assert_refusal(capsys, argv, line)


# A row's id is its index and its error code.
@pytest.mark.parametrize("argv, line", [
    # Digits are str.isdecimal characters: "²" is a digit to str.isdigit but
    # not a numeral, while "١" (Arabic-Indic one) is.
    (("ord", "normalize", "²"), "error: parse: expected an ordinal term at position 0"),
    (("worm", "o", "1 ²"), "error: parse: bad worm letter '²'"),
    (("theory", "reduce", "(rfn ² 1 EA+)", "1"), "error: parse: expected a reflection level at position 5"),
    (("notation", "kreisel", "x != ²", "5"), "error: predicate: expected a numeral, 'x', or '(' at position 5"),
    # No numeral is wider than 4300 digits, predicates included.
    (("ord", "normalize", "9" * 4301), "error: range: numeral is longer than 4300 digits"),
    (("worm", "o", "1 " + "9" * 5000), "error: range: numeral is longer than 4300 digits"),
    (("theory", "pi-ordinal", "(rfn " + "9" * 4301 + " 1 EA+)", "1"), "error: range: numeral is longer than 4300 digits"),
    (("notation", "audit", "x != " + "9" * 4301, "10"), "error: range: numeral is longer than 4300 digits"),
    # Reflection levels share the natural-number width 2**32.
    (("theory", "pi-ordinal", "(rfn 4294967297 1 EA+)", "1"),
     "error: range: reflection level 4294967297 exceeds the depth cap 100"),
    (("theory", "reduce", "(rfn 99999999999 1 EA+)", "1"),
     "error: range: reflection level 99999999999 exceeds the depth cap 100"),
], ids=lambda value: value.split(": ")[1] if isinstance(value, str) else None)
def test_numeral_rule_errors(capsys, argv, line):
    _assert_refusal(capsys, argv, line)


# Each predicate, given to `notation audit` with window 10, and its range error.
DEEP_PREDICATES = {
    "x" + "*x" * 299 + " >= 0": "predicate tree deeper than the depth cap 100",
    "not " * 300 + "x = 1": "nesting exceeds the depth cap 100 at position 403",
    "not " * 2000 + "x = 1": "nesting exceeds the depth cap 100 at position 403",
    # Chains of each binary operator one level past the cap.
    " or ".join(["x = 1"] * MAX_DEPTH): "predicate tree deeper than the depth cap 100",
    " and ".join(["x = 1"] * MAX_DEPTH): "predicate tree deeper than the depth cap 100",
    "x" + "+x" * (MAX_DEPTH - 1) + " >= 0": "predicate tree deeper than the depth cap 100",
}


@pytest.mark.parametrize("predicate", DEEP_PREDICATES)
def test_deep_predicate_is_a_range_error(capsys, predicate):
    _assert_refusal(capsys, ("notation", "audit", predicate, "10"), "error: range: " + DEEP_PREDICATES[predicate])


def test_deep_predicate_with_a_later_syntax_error_is_a_predicate_error(capsys):
    # The depth is checked when the predicate compiles, after it parses.
    _assert_refusal(capsys, ("notation", "audit", "x" + "*x" * 299 + " >= 0 )", "10"),
                    "error: predicate: trailing input at position 605")


# Every cap in one place: inputs that crashed, hung or succeeded past a cap
# now end in one range line, promptly.
LIMITS = {
    ("ord", "normalize", "(" * 3000 + "1" + ")" * 3000): "nesting exceeds the depth cap 100 at position 101",
    ("ord", "normalize", "w^" * (MAX_DEPTH + 1) + "1"): "nesting exceeds the depth cap 100 at position 202",
    ("ord", "cmp", "phi(" * (MAX_DEPTH + 1) + "0" + ",0)" * (MAX_DEPTH + 1), "0"):
        "nesting exceeds the depth cap 100 at position 404",
    ("ord", "mul", "w", "99999999999999999999"):
        "run count 99999999999999999999 exceeds the natural-number width 4294967296",
    ("ord", "add", "w*4294967296", "w"): "run count 4294967297 exceeds the natural-number width 4294967296",
    ("worm", "o", "500"): "worm letter 500 exceeds the depth cap 100",
    ("worm", "o", " ".join(str(i) for i in range(1500))): "worm letter 1499 exceeds the depth cap 100",
    ("worm", "o", str(MAX_DEPTH + 1)): "worm letter 101 exceeds the depth cap 100",
    ("worm", "to-theory", "4294967296"): "worm letter 4294967296 exceeds the depth cap 100",
    ("worm", "to-theory", str(MAX_DEPTH)): "reflection level 101 exceeds the depth cap 100",
    ("worm", "to-theory", "0 " * (MAX_DEPTH + 1)): "worm length 101 exceeds the depth cap 100",
    ("worm", "of-ordinal", "w^" * MAX_DEPTH + "w"): "worm letter 101 exceeds the depth cap 100",
    ("worm", "of-ordinal", "4294967296"): "the worm of 4294967296 needs more than 1000000 letters",
    ("theory", "pi-ordinal", "(rfn 200000 1 EA+)", "1"): "reflection level 200000 exceeds the depth cap 100",
    ("theory", "pi-ordinal", "(rfn 4294967296 1 EA+)", "1"): "reflection level 4294967296 exceeds the depth cap 100",
    ("theory", "pi-ordinal", "(rfn 99999999999 1 EA+)", "1"):
        "reflection level 99999999999 exceeds the depth cap 100",
    ("theory", "pi-ordinal", f"(rfn {MAX_DEPTH + 1} 1 EA+)", "1"): "reflection level 101 exceeds the depth cap 100",
    ("theory", "reduce", _nest("(con 1 ", MAX_DEPTH + 1), "1"): "nesting exceeds the depth cap 100 at position 707",
    ("theory", "stage", "EA+", "(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1)):
        "nesting exceeds the depth cap 100 at position 101",
    ("notation", "audit", "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1) + " != 1", "10"):
        "nesting exceeds the depth cap 100 at position 101",
    ("--max-nodes", "9", "ord", "enum"): "enumeration size 9 exceeds the cap 8",
    # A stage over a theory nested to the cap would nest past it.
    ("theory", "stage", _nest("(rfn 2 1 ", MAX_DEPTH), "1"): "theory nesting 101 exceeds the depth cap 100",
}


@pytest.mark.parametrize("argv", LIMITS)
def test_limits_end_in_one_range_line(capsys, argv):
    _assert_refusal(capsys, argv, "error: range: " + LIMITS[argv])


# --- help and usage ------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "1_0", "+3", " 2 ", "²", "", pytest.param("9" * 4301, id="4301-digits")])
@pytest.mark.parametrize("argv", INTEGER_ARGUMENTS)
def test_integer_argument_outside_the_numeral_rule_is_a_usage_error(capsys, argv, text):
    code, out, err = invoke(capsys, *_with_integer(argv, text))
    assert code == 2 and out == ""
    assert err.endswith(f": invalid int value: {text!r}\n")


def test_usage_error_exit_2(capsys):
    assert invoke(capsys, "ord", "bogus")[0] == 2
    assert invoke(capsys, "nonsense")[0] == 2
    assert invoke(capsys, "ord", "cmp", "w")[0] == 2
    assert invoke(capsys, "--bogus-flag", "ord", "enum")[0] == 2


TOP_HELP = """\
usage: ordlab [-h] [--ascii] [--fuel N] [--max-nodes N] GROUP ...

Symbolic ordinal notations, worms, reflection theories, pathological
presentations, and formula constructions.

positional arguments:
  GROUP
    ord       ordinal arithmetic in Veblen normal form
    worm      GLP worms and their ordinals
    theory    iterated-reflection theory algebra
    dilator   omega-model reflection dilator
    notation  pathological presentations of omega
    formula   explicit formula constructions

options:
  -h, --help  show this help message and exit
  --ascii     render formulas in pure ASCII
  --fuel N    search/window cap for the notation lab (default 10000)
  --max-nodes N
              structural-size bound for 'ord enum' (default 6)
"""

THEORY_HELP = """\
usage: ordlab theory [-h] CMD ...

positional arguments:
  CMD
    pi-ordinal
              Pi_k proof-theoretic ordinal
    reduce    reduce to a single reflection level
    stage     consistency-progression stage
    catalog   look up a named theory (or list all)

options:
  -h, --help  show this help message and exit
"""

CONSTAR_HELP = """\
usage: ordlab formula constar [-h] [alpha] [theory]

positional arguments:
  alpha
  theory

options:
  -h, --help  show this help message and exit
"""

SV_HELP = """\
usage: ordlab formula sv [-h] [--top]

options:
  -h, --help  show this help message and exit
  --top       instantiate at verum
"""


@pytest.fixture
def columns_80(monkeypatch):
    # argparse wraps help text to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv, text", [
    (("--help",), TOP_HELP),
    (("theory", "--help"), THEORY_HELP),
    (("formula", "constar", "--help"), CONSTAR_HELP),
    (("formula", "sv", "-h"), SV_HELP),
])
def test_help_text(capsys, columns_80, argv, text):
    assert invoke(capsys, *argv) == (0, text, "")


def test_every_command_answers_help(capsys, columns_80, registered_commands):
    assert len(registered_commands) == 24
    for group, command in registered_commands:
        code, out, err = invoke(capsys, group, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: ordlab {group} {command} ")
    for group in dict(registered_commands):
        code, out, err = invoke(capsys, group, "--help")
        assert (code, err) == (0, "") and out.startswith(f"usage: ordlab {group} [-h] CMD ...")


def test_bare_usage(capsys, columns_80):
    assert invoke(capsys) == (2, "", "usage: ordlab [-h] [--ascii] [--fuel N] [--max-nodes N] GROUP ...\n"
                                     "ordlab: error: the following arguments are required: GROUP\n")
    assert invoke(capsys, "worm") == (2, "", "usage: ordlab worm [-h] CMD ...\n"
                                             "ordlab worm: error: the following arguments are required: CMD\n")
    assert invoke(capsys, "ord", "cmp", "w") == (2, "", "usage: ordlab ord cmp [-h] x y\n"
                                                        "ordlab ord cmp: error: the following arguments are "
                                                        "required: y\n")


MIXED_ARGV = [
    ("ord", "cmp", "w^w+1", "e0"),
    ("ord", "cmp", "w^^", "0"),
    ("ord", "cmp", "w"),
    ("--max-nodes", "x", "ord", "enum"),
    ("--help",),
    ("worm", "--help"),
    ("--ascii", "formula", "sv", "--top"),
]


def test_one_parser_serves_every_call(capsys, columns_80):
    # The parser is built once per process; no call may leave a trace on it.
    first = {}
    for argv in MIXED_ARGV:
        build_parser.cache_clear()
        first[argv] = invoke(capsys, *argv)
        assert invoke(capsys, *argv) == first[argv]
    for argv in MIXED_ARGV + MIXED_ARGV[::-1]:
        assert invoke(capsys, *argv) == first[argv]
    assert build_parser() is build_parser()
    assert first[MIXED_ARGV[0]] == (0, "LT\n", "")
    assert first[MIXED_ARGV[1]] == (1, "", "error: parse: expected an ordinal term at position 2\n")
    assert [first[argv][0] for argv in MIXED_ARGV[2:4]] == [2, 2]
    assert first[("--help",)] == (0, TOP_HELP, "")


# --- the command table's own reader ------------------------------------------------

# argv from the table's vocabulary, weighted towards what the reader must leave
# to argparse: prefixes of names, "=" forms, abbreviations, repeats, misplaced
# options, lone dashes, negative numbers, wrong counts and bad integers.
NAMES = sorted({name for group, command, *_ in _COMMANDS for name in (group, command)})
VALUES = ["w", "e0", "w^^", "1 0 1", "PA", "1Con(EA+)", "x != 7", "x < 3", "0", "3", "٣", "1_0", "+3", " 2 ",
          "²", "", "x"]
WORDS = NAMES + [name[:2] for name in NAMES] + VALUES
INTEGERS = ["0", "3", "٣", "1_0", "-5"]
DASHES = ["--ascii", "--fuel", "--max-nodes", "--top", "--fuel=3", "--max-nodes=2", "--top=1", "--asc",
          "--fu", "--max", "--to", "--", "-h", "--help", "-5", "-٣", "-", "-x y"]
OPTIONS = [["--ascii"], ["--fuel", "3"], ["--fuel", "٣"], ["--max-nodes", "2"], ["--fuel", "1_0"],
           ["--fuel", "-3"], ["--fuel=3"], ["--fu", "3"], ["--top"]]
TOKENS = st.sampled_from(DASHES + WORDS)


def _near_plain(row):
    """A command's argv: options, its names and a value for each of its
    arguments (an integer where it takes one), perhaps with the last
    argument dropped or one more added."""
    group, command, _, arguments, _ = row
    slots = [st.sampled_from(["--top"] if name == "--top" else INTEGERS if options.get("type") else VALUES)
             for name, options in arguments]
    return st.builds(
        lambda options, args, drop, extra: (
            [t for o in options for t in o] + [group, command] + list(args)[:len(args) - drop] + extra),
        st.lists(st.sampled_from(OPTIONS), max_size=2), st.tuples(*slots), st.integers(0, 1),
        st.lists(st.sampled_from(VALUES + ["--top", "-5"]), max_size=1))


READER_ARGV = st.one_of(st.lists(TOKENS, max_size=6), st.sampled_from(_COMMANDS).flatmap(_near_plain))


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=800)
@given(READER_ARGV)
def test_reader_declines_or_agrees_with_argparse(argv):
    ns = _read(argv)
    if ns is not None:
        assert vars(ns) == vars(build_parser().parse_args(argv))
    with mock.patch.object(cli, "_read", lambda argv: None):
        expected = _outcome(argv)
    assert _outcome(argv) == expected


@pytest.mark.parametrize("argv", [
    ["ord", "cmp", "w", "e0"], ["--ascii", "--fuel", "3", "--max-nodes", "2", "ord", "enum"],
    ["formula", "sv", "--top"], ["formula", "constar"], ["formula", "constar", "a", "b"],
    ["theory", "catalog"], ["theory", "catalog", "PA"], ["ord", "mul", "w", "٣"], ["ord", "cmp", "", "w"]])
def test_reader_reads_plain_argv(argv):
    assert vars(_read(argv)) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["ord", "cmp", "--help"], ["--", "ord", "cmp", "w", "e0"], ["ord", "cmp", "--", "w", "e0"],
    ["--fuel=3", "ord", "enum"], ["--fu", "3", "ord", "enum"], ["--ascii", "--ascii", "ord", "enum"],
    ["formula", "sv", "--top", "--top"], ["ord", "--ascii", "enum"], ["ord", "enum", "--ascii"],
    ["ord", "cmp", "--top", "w", "e0"], ["ord", "mul", "w", "-5"], ["ord", "cmp", "-", "w"],
    ["--fuel", "-3", "ord", "enum"], ["--fuel"], ["--fuel", "1_0", "ord", "enum"], ["ord", "mul", "w", ""],
    ["ord", "cmp", "w"], ["ord", "cmp", "w", "e0", "1"], ["formula", "constar", "a", "b", "c"],
    ["ord"], ["or", "cmp", "w", "e0"], ["ord", "frobnicate"], ["ord", "mul", "w", "9" * 4301]])
def test_reader_leaves_argparse_the_rest(argv):
    assert _read(argv) is None


def test_run_without_argv_reads_sys_argv(capsys, monkeypatch):
    fast = ["ord", "cmp", "w", "e0"]
    monkeypatch.setattr(sys, "argv", ["ordlab", *fast])
    assert _read(fast) is not None
    assert (run(), *capsys.readouterr()) == (0, "LT\n", "")
    fallback = ["--fuel=12", "notation", "descend", "x != 7"]
    monkeypatch.setattr(sys, "argv", ["ordlab", *fallback])
    assert _read(fallback) is None
    assert (run(), *capsys.readouterr()) == (0, "7 8 9 10 11 12\n", "")


# The README's CLI block comments these lines in prose; every other comment
# is the last line its command prints.
PROSE = {"all 14 terms of size <= 3", "list the named theories",
         "counterexample/descent report", "7 8 ... 50"}


def test_readme_shows_every_command(capsys, registered_commands):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown, prose = set(), set()
    for line in filter(None, block.splitlines()):
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        shown.update(zip(words, words[1:]))
        assert _read(words[1:]) is not None, line
        code, out, err = invoke(capsys, *words[1:])
        assert (code, err) == (0, ""), line
        comment = comment.strip()
        if comment in PROSE:
            prose.add(comment)
        elif comment:
            assert out.splitlines()[-1] == comment, line
    assert prose == PROSE
    assert [pair for pair in registered_commands if pair not in shown] == []


def test_readme_python_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## The pieces\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    parser = doctest.DocTestParser()
    test = parser.get_doctest(block, {}, "README.md", "README.md", 0)
    assert len(test.examples) >= 5
    results = doctest.DocTestRunner().run(test)
    assert results.failed == 0


# --- real process -------------------------------------------------------------------

def _run_python(*args, stdout=subprocess.PIPE, **popen):
    # The child imports the same ordlab as this process, installed or not.
    src = str(Path(ordlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
        **popen,
    )


def _run_process(*argv, **popen):
    return _run_python("-m", "ordlab.cli", *argv, **popen)


def _assert_ends(proc, code, stderr):
    """proc exited with ``code`` and wrote exactly ``stderr``, so no traceback
    and no report of an exception ignored at exit."""
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr
    assert (proc.returncode, proc.stderr.decode("utf-8")) == (code, stderr)


# A real process ends as `cli.run` does. The first four rows are the commands
# of the benchmark's cold-start probe.
@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (("ord", "cmp", "w^w+1", "e0"), 0, "LT\n", ""),
    (("worm", "o", "1 0 1"), 0, "w*2\n", ""),
    (("theory", "pi-ordinal", "PA+Con(PA)", "1"), 0, "e0*2\n", ""),
    (("formula", "slowcon"), 0, "∀x(F_e0(x)↓ → Con(ISigma_x + φ))\n", ""),
    (("ord", "cmp", "w^^", "0"), 1, "", "error: parse: expected an ordinal term at position 2\n"),
    (("ord", "frobnicate"), 2, "",
     "usage: ordlab ord [-h] CMD ...\n"
     "ordlab ord: error: argument CMD: invalid choice: 'frobnicate' "
     "(choose from 'cmp', 'add', 'mul', 'normalize', 'phi', 'next-phi', 'enum')\n"),
], ids=["cmp", "worm", "pi-ordinal", "utf8", "refusal", "usage-error"])
def test_subprocess_ends(monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    proc = _run_process(*argv)
    _assert_ends(proc, code, stderr)
    assert proc.stdout.decode("utf-8") == stdout


# A stdout that cannot take the answer ends the command with exit 1: silently
# when its reader has gone, as `| head` leaves it, and with one error line when
# the write fails; never with a traceback.
@pytest.mark.parametrize("argv", [("--max-nodes", "8", "ord", "enum"), ("ord", "cmp", "w", "1")])
def test_subprocess_closed_stdout(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_process(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_subprocess_full_stdout():
    with open("/dev/full", "wb") as full:
        proc = _run_process("ord", "cmp", "w", "1", stdout=full)
    assert proc.returncode == 1
    assert proc.stderr.decode("utf-8").splitlines() == ["error: output: No space left on device"]


# A closed stdout (`>&-`) is a failed write when there is an answer to write,
# and no write at all when there is none.
@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 in the child")
@pytest.mark.parametrize("argv, stderr", [
    (("ord", "cmp", "w", "1"), "error: output: Bad file descriptor\n"),
    (("ord", "cmp", "w^^", "0"), "error: parse: expected an ordinal term at position 2\n"),
], ids=["answer", "no-answer"])
def test_subprocess_no_stdout(argv, stderr):
    proc = _run_process(*argv, stdout=None, preexec_fn=lambda: os.close(1))
    _assert_ends(proc, 1, stderr)


# argparse prints help itself; unbuffered, a failed write of it is not lost.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_subprocess_full_stdout_help(monkeypatch):
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    with open("/dev/full", "wb") as full:
        proc = _run_process("-h", stdout=full)
    _assert_ends(proc, 1, "error: output: No space left on device\n")


# An undecodable argument byte reaches the program as a lone surrogate and is
# written as the escape --ascii uses, in usage errors and answers alike.
@pytest.mark.skipif(os.name != "posix", reason="bytes arguments")
@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (("ord", "cmp", "w", "1", b"\xff"), 2, "",
     "usage: ordlab [-h] [--ascii] [--fuel N] [--max-nodes N] GROUP ...\n"
     "ordlab: error: unrecognized arguments: \\udcff\n"),
    (("formula", "constar", b"\xff", "T"), 0,
     "PA ⊢ Con★(\\udcff,T) ↔ ∀β ≺ \\udcff Con(T+⌜Con★(β,T)⌝)\n", ""),
], ids=["usage-error", "answer"])
def test_subprocess_undecodable_argument(monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    proc = _run_process(*argv)
    _assert_ends(proc, code, stderr)
    assert proc.stdout.decode("utf-8") == stdout


def test_main_restores_the_streams_when_run_raises(monkeypatch):
    # So a traceback reaches the real stderr, not main()'s buffer.
    monkeypatch.setattr(cli, "run", lambda: 1 / 0)
    streams = sys.stdout, sys.stderr
    with pytest.raises(ZeroDivisionError):
        cli.main()
    assert (sys.stdout, sys.stderr) == streams


def test_subprocess_byte_identical_reruns():
    first = _run_process("--max-nodes", "4", "ord", "enum")
    second = _run_process("--max-nodes", "4", "ord", "enum")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# The ordlab modules a fresh interpreter has loaded after each step: a command
# imports only the library modules it uses, and worms never imports theories.
# No step loads dataclasses or inspect, whose imports would add several
# milliseconds to every cold command, and only a usage error loads argparse.
IMPORT_STEPS = [
    ("import ordlab", []),
    ("import ordlab; assert not hasattr(ordlab, 'cli')", []),
    ("from ordlab import cli; cli.run(['ord', 'cmp', 'w', 'e0'])",
     ["_scan", "_value", "cli", "errors", "ordinals"]),
    ("from ordlab import cli; cli.run(['formula', 'slowcon'])",
     ["_scan", "_value", "cli", "errors", "formulas"]),
    ("import ordlab.worms", ["_scan", "_value", "errors", "ordinals", "worms"]),
    ("from ordlab import cli; cli.run(['worm', 'o', '1 0 1'])",
     ["_scan", "_value", "cli", "errors", "ordinals", "worms"]),
    ("from ordlab import cli; cli.run(['theory', 'pi-ordinal', 'PA+Con(PA)', '1'])",
     ["_scan", "_value", "cli", "errors", "ordinals", "theories", "worms"]),
    ("from ordlab import cli; assert cli.run(['ord', 'frobnicate']) == 2",
     ["_scan", "cli", "errors"]),
    ("from ordlab import cli; cli.run(['notation', 'kreisel', 'x != 7', '10'])",
     ["_scan", "_value", "cli", "errors", "notation"]),
]


# Each command step runs again under -S, without the site module, whose .pth
# files may load typing or contextlib before ordlab does. There no step loads
# those two either: annotations stay strings, and cli.main() swaps its two
# streams without contextlib.
@pytest.mark.parametrize("step, loaded", IMPORT_STEPS + [
    pytest.param(("-S", step), loaded, id=f"-S {step}")
    for step, loaded in IMPORT_STEPS if "cli.run" in step])
def test_import_boundary(step, loaded):
    *flags, step = (step,) if isinstance(step, str) else step
    watched = ["argparse", "dataclasses", "inspect", *(["contextlib", "typing"] if flags else [])]
    report = ("import sys\n"
              "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'ordlab'))\n"
              f"print(sorted(set(sys.modules).intersection({watched!r})))")
    proc = _run_python(*flags, "-c", f"{step}\n{report}")
    assert proc.returncode == 0, proc.stderr
    *_, modules, machinery = proc.stdout.decode("utf-8").splitlines()
    assert modules == repr(["ordlab", *(f"ordlab.{m}" for m in loaded)])
    assert machinery == ("['argparse']" if "frobnicate" in step else "[]")

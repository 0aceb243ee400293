import random
import re
from functools import cmp_to_key

import pytest

from conftest import GOLDEN_CORPUS, nest, random_term
from ordlab import ordinals
from ordlab._scan import MAX_DEPTH
from ordlab.errors import ParseError, RangeError
from ordlab.ordinals import (
    EPSILON0,
    EQ,
    GT,
    LT,
    MAX_ENUM_SIZE,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    VeblenAtom,
    add,
    compare,
    enumerate_terms,
    format_ordinal,
    from_int,
    is_natural,
    iter_omega,
    mul_nat,
    next_phi_value,
    parse_ordinal,
    phi_plus_iter,
    single_atom,
    successor,
    term_size,
    to_int,
    veblen,
)


# --- parsing ----------------------------------------------------------------

def test_parse_zero():
    assert parse_ordinal("0") == ZERO


def test_parse_collapses_fixed_point_argument():
    assert parse_ordinal("phi(0, phi(1,0))") == EPSILON0


def test_parse_already_normal():
    x = parse_ordinal("w^(w+1)")
    assert x == veblen(ZERO, add(OMEGA, ONE))


# (text, error class, message, position).  A sum adds each term as soon as
# it is read, so a run too wide is a RangeError, without a position, before
# a later syntax error.
PARSE_ERRORS = [
    ("", ParseError, "expected an ordinal term", 0),
    ("w^", ParseError, "expected an ordinal term", 2),
    ("phi(1)", ParseError, "expected ','", 5),
    ("w+", ParseError, "expected an ordinal term", 2),
    ("3*", ParseError, "expected a numeral", 2),
    ("foo", ParseError, "unknown name 'foo'", 0),
    ("phi(1,2", ParseError, "expected ')'", 7),
    ("(w", ParseError, "expected ')'", 2),
    ("w*2*3", ParseError, "trailing input", 3),
    ("2w", ParseError, "expected a numeral", 0),
    ("w2", ParseError, "unknown name 'w2'", 0),
    ("_", ParseError, "expected an ordinal term", 0),
    ("4294967296+1)", RangeError, "run count 4294967297 exceeds the natural-number width 4294967296", None),
    # Runs that merge after a pop, or after a zero term, keep the width rule.
    ("w*4294967295+1+w*2)", RangeError, "run count 4294967297 exceeds the natural-number width 4294967296", None),
    ("0+w*4294967296+w x", RangeError, "run count 4294967297 exceeds the natural-number width 4294967296", None),
]
# One level past the cap, refused where the last level opens.
TOO_DEEP = [("(", "1", ")", 101), ("w^", "1", "", 202), ("phi(", "1", ",0)", 404)]


@pytest.mark.parametrize("text, error, message, position", [
    pytest.param(*case, id=case[0]) for case in PARSE_ERRORS] + [
    pytest.param(nest(opening, core, closing, MAX_DEPTH + 1), RangeError,
                 f"nesting exceeds the depth cap {MAX_DEPTH}", position, id=f"{MAX_DEPTH + 1} {opening}")
    for opening, core, closing, position in TOO_DEEP])
def test_parse_errors_carry_position(text, error, message, position):
    with pytest.raises(error) as err:
        parse_ordinal(text)
    assert type(err.value) is error
    assert err.value.position == position
    assert str(err.value) == message if position is None else f"{message} at position {position}"


@pytest.mark.parametrize("text, value", [("phi ( 1 , w ^ 2 )", "phi(1,w^2)"), ("١+w", "w"),
                                         ("\tw\t+\t1\t", "w+1")])
def test_parse_reads_spacing_and_decimal_digits(text, value):
    assert format_ordinal(parse_ordinal(text)) == value


@pytest.mark.parametrize("text, value", [("0+w", "w"), ("w+0", "w"), ("1+w", "w"), ("w+w*2+1+w", "w*4")])
def test_parse_sums_as_a_fold_of_add(text, value):
    fold = ZERO
    for term in text.split("+"):
        fold = add(fold, parse_ordinal(term))
    assert parse_ordinal(text) == fold
    assert format_ordinal(fold) == value


def test_parse_numeral_overflow():
    with pytest.raises(RangeError):
        parse_ordinal(str(2**32 + 1))
    with pytest.raises(RangeError):
        parse_ordinal("w*99999999999")
    assert to_int(parse_ordinal("4100654080")) == 4100654080


def test_width_rule_holds_for_products_and_sums():
    # A run of equal atoms holds at most 2**32 copies however it is made.
    assert mul_nat(OMEGA, 2**31) == parse_ordinal("w*2147483648")
    assert add(parse_ordinal("w*4294967295"), OMEGA) == parse_ordinal("w*4294967296")
    for make in (lambda: mul_nat(OMEGA, 10**20), lambda: mul_nat(parse_ordinal("w*65536+1"), 65537),
                 lambda: add(from_int(2**32), ONE), lambda: add(parse_ordinal("w*4294967296"), OMEGA),
                 lambda: parse_ordinal("(w*4294967296)*2")):
        with pytest.raises(RangeError):
            make()


@pytest.mark.parametrize("make, message", [
    (lambda: from_int(-1), "ordinals cannot be negative"),
    (lambda: to_int(OMEGA), "w is not a natural number"),
    (lambda: mul_nat(OMEGA, -1), "multiplier must be a natural number"),
    (lambda: iter_omega(-1, 0), "iteration count must be a natural number"),
    (lambda: ordinals.phi_argument(1, OMEGA), "w is not a value of phi_1"),
    (lambda: enumerate_terms(-1), "max_nodes must be a natural number"),
])
def test_range_errors_name_the_bad_argument(make, message):
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        make()


def test_counts_are_read_as_integers():
    assert enumerate_terms(True) == enumerate_terms(1) and iter_omega(True, 1) == OMEGA
    for make in (lambda: enumerate_terms("3"), lambda: iter_omega("3", 1),
                 lambda: enumerate_terms(2.0), lambda: iter_omega(2.0, 1)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            make()


@pytest.mark.parametrize("opening, core, closing", [
    ("(", "1", ")"), ("w^", "1", ""), ("phi(", "0", ",0)"), ("phi(0,", "1", ")"), ("(w^", "1", ")"),
])
def test_nesting_cap(opening, core, closing):
    # "(w^" nests two levels per step.
    depth = MAX_DEPTH // 2 if opening == "(w^" else MAX_DEPTH
    parse_ordinal(nest(opening, core, closing, depth))
    with pytest.raises(RangeError):
        parse_ordinal(nest(opening, core, closing, depth + 1))


# --- comparison ---------------------------------------------------------------

@pytest.mark.parametrize("x, y, expected", [
    ("w", "w^w", LT),
    ("phi(1,0)", "w^(phi(1,0))", EQ),
    ("1+w", "w", EQ),
    ("w^w+1", "e0", LT),
    ("w*2", "w*3", LT),
    ("w*2+1", "w*2", GT),
    ("phi(2,0)", "phi(1,phi(2,0))", EQ),
    ("w^(e0+1)", "e0", GT),
    ("phi(1,1)", "w^(e0+1)", GT),
])
def test_compare_cases(x, y, expected):
    assert compare(parse_ordinal(x), parse_ordinal(y)) == expected


def test_rich_comparisons():
    assert OMEGA < EPSILON0
    assert sorted([EPSILON0, ZERO, OMEGA]) == [ZERO, OMEGA, EPSILON0]


# --- arithmetic ---------------------------------------------------------------

@pytest.mark.parametrize("x, y, out", [
    ("1", "w", "w"),
    ("w", "1", "w+1"),
    ("w^w+w", "w^2", "w^w+w^2"),
    ("0", "e0", "e0"),
    ("e0", "0", "e0"),
    ("w+1", "1", "w+2"),
])
def test_add_cases(x, y, out):
    assert format_ordinal(add(parse_ordinal(x), parse_ordinal(y))) == out


@pytest.mark.parametrize("x, n, out", [
    ("e0", 2, "e0*2"),
    ("w^2+w", 0, "0"),
    ("w+1", 2, "w*2+1"),
    ("3", 4, "12"),
])
def test_mul_nat_cases(x, n, out):
    assert format_ordinal(mul_nat(parse_ordinal(x), n)) == out


def test_mul_nat_matches_iterated_add(pool4):
    for x in pool4:
        acc = ZERO
        for n in range(5):
            assert mul_nat(x, n) == acc
            acc = add(acc, x)


def test_naturals_are_runs_of_phi00():
    three = from_int(3)
    assert is_natural(three) and to_int(three) == 3
    assert add(ONE, add(ONE, ONE)) == three
    assert successor(from_int(2)) == three


# --- veblen -------------------------------------------------------------------

def test_veblen_base_cases():
    assert veblen(0, 1) == OMEGA
    assert veblen(0, EPSILON0) == EPSILON0
    assert veblen(1, 0) == EPSILON0
    assert format_ordinal(veblen(1, 0)) == "e0"


def test_iter_omega(pool4):
    x = parse_ordinal("w+3")
    assert iter_omega(0, x) == x
    for b in pool4:
        assert veblen(0, b) == iter_omega(1, b)
    assert iter_omega(2, ONE) == parse_ordinal("w^w")
    assert iter_omega(1, EPSILON0) == EPSILON0


def test_veblen_fixed_point_law(pool4):
    small = [t for t in pool4 if term_size(t) <= 2]
    for a in small:
        for b in small:
            if compare(a, b) == LT:
                for x in small:
                    assert veblen(a, veblen(b, x)) == veblen(b, x)


# --- next_phi_value / phi_plus_iter ---------------------------------------------

def test_next_phi_small_cases():
    assert next_phi_value(0, 0) == ONE
    assert next_phi_value(1, 0) == EPSILON0
    assert next_phi_value(0, parse_ordinal("w+1")) == parse_ordinal("w^2")
    assert next_phi_value(0, EPSILON0) == parse_ordinal("w^(e0+1)")
    assert next_phi_value(1, EPSILON0) == parse_ordinal("phi(1,1)")


def test_phi_plus_iter_zero_index_is_next(pool4):
    for a in (ZERO, ONE):
        for beta in pool4[:20]:
            assert phi_plus_iter(a, beta, ZERO) == next_phi_value(a, beta)


def test_phi_plus_iter_cases():
    assert phi_plus_iter(0, OMEGA, 1) == parse_ordinal("w^3")
    assert phi_plus_iter(1, 0, OMEGA) == parse_ordinal("phi(1,w)")
    assert phi_plus_iter(0, 0, 2) == parse_ordinal("w^2")


# --- formatting ---------------------------------------------------------------

@pytest.mark.parametrize("text", GOLDEN_CORPUS)
def test_format_round_trip(text):
    assert format_ordinal(parse_ordinal(text)) == text


def test_format_examples():
    assert format_ordinal(ZERO) == "0"
    assert format_ordinal(veblen(0, ONE)) == "w"
    assert format_ordinal(add(EPSILON0, ONE)) == "e0+1"


def test_parse_format_identity_on_enumeration():
    for t in enumerate_terms(MAX_ENUM_SIZE):
        assert parse_ordinal(format_ordinal(t)) == t


# --- enumeration ---------------------------------------------------------------

def test_enumeration_small_counts():
    assert [str(t) for t in enumerate_terms(1)] == ["0", "1"]
    assert [len(enumerate_terms(n)) for n in range(9)] == [1, 2, 5, 14, 46, 163, 626, 2506, 10409]


def test_enumeration_is_strictly_sorted_and_duplicate_free():
    terms = enumerate_terms(MAX_ENUM_SIZE)
    for a, b in zip(terms, terms[1:]):
        assert compare(a, b) == LT
    assert len(set(terms)) == len(terms)


def test_enumeration_cap():
    with pytest.raises(RangeError):
        enumerate_terms(MAX_ENUM_SIZE + 1)
    assert len(enumerate_terms(MAX_ENUM_SIZE)) == 10409


# The reference order, sum and enumeration: plain transcriptions of the
# definitions, which build the atom as a term to compare against, re-sort
# every atom at every size, try every atom at every step and sort the terms.

def _ref_compare(x, y):
    x = from_int(x) if isinstance(x, int) else x
    y = from_int(y) if isinstance(y, int) else y
    for (ax, nx), (ay, ny) in zip(x.parts, y.parts):
        c = _ref_compare_atoms(ax, ay)
        if c:
            return c
        if nx != ny:
            return LT if nx < ny else GT
    if len(x.parts) == len(y.parts):
        return EQ
    return LT if len(x.parts) < len(y.parts) else GT


def _ref_compare_atoms(a, b):
    ci = _ref_compare(a.index, b.index)
    if ci == EQ:
        return _ref_compare(a.arg, b.arg)
    if ci == LT:
        return _ref_compare(a.arg, Ordinal(((b, 1),)))
    return -_ref_compare(b.arg, Ordinal(((a, 1),)))


def _ref_add(x, y):
    """Absorption: the runs of x whose atom, as a term, is below y's leading
    atom go, and a run of an equal atom takes y's leading run's count."""
    if not y.parts:
        return x
    lead = Ordinal(((y.parts[0][0], 1),))
    head = list(x.parts)
    while head and _ref_compare(Ordinal(((head[-1][0], 1),)), lead) == LT:
        head.pop()
    if head and _ref_compare(Ordinal(((head[-1][0], 1),)), lead) == EQ:
        atom, count = head.pop()
        return Ordinal(tuple(head) + ((atom, count + y.parts[0][1]),) + y.parts[1:])
    return Ordinal(tuple(head) + y.parts)


def _ref_sums_of_exact_size(atoms, size):
    desc = sorted(atoms, key=cmp_to_key(lambda p, q: _ref_compare_atoms(p[0], q[0])), reverse=True)
    found = []

    def extend(start, budget, prefix):
        for i in range(start, len(desc)):
            atom, sz = desc[i]
            count = 1
            while count * sz <= budget:
                parts = prefix + ((atom, count),)
                if count * sz == budget:
                    found.append(Ordinal(parts))
                else:
                    extend(i + 1, budget - count * sz, parts)
                count += 1

    extend(0, size, ())
    return found


def _ref_enumerate(max_nodes):
    terms_by_size = {0: [ZERO]}
    atoms = []
    for s in range(1, max_nodes + 1):
        for sa in range(s):
            for a in terms_by_size[sa]:
                for b in terms_by_size[s - 1 - sa]:
                    inner = single_atom(b)
                    if inner is None or _ref_compare(inner.index, a) != GT:
                        atoms.append((VeblenAtom(a, b), s))
        terms_by_size[s] = _ref_sums_of_exact_size(atoms, s)
    out = [t for ts in terms_by_size.values() for t in ts]
    out.sort(key=cmp_to_key(_ref_compare))
    return out


def test_enumeration_matches_reference():
    for n in range(MAX_ENUM_SIZE + 1):
        assert enumerate_terms(n) == _ref_enumerate(n)


def test_add_matches_reference(pool4):
    for x in pool4:
        for y in pool4:
            assert add(x, y) == _ref_add(x, y)


def test_sum_matches_a_fold_of_the_reference(pool5):
    rng = random.Random(25)
    for length in list(range(31)) * 20:
        terms = [rng.choice(pool5) for _ in range(length)]
        expected = ZERO
        for t in terms:
            expected = _ref_add(expected, t)
        assert ordinals._sum(terms) == expected
    # Runs that merge on the way keep the width rule.
    wide = parse_ordinal("w*4294967296")
    assert ordinals._sum([parse_ordinal("w*4294967295"), ONE, OMEGA]) == wide
    with pytest.raises(RangeError):
        ordinals._sum([wide, ONE, OMEGA])


def test_compare_matches_reference(pool5, rng):
    for x in pool5:
        for y in pool5:
            assert compare(x, y) == _ref_compare(x, y)
    terms = [random_term(rng, 5) for _ in range(200)]
    for x, y in zip(terms, terms[1:] + terms[:1]):
        assert compare(x, y) == _ref_compare(x, y)
    for x in terms:
        assert compare(x, x) == EQ
    for n in range(4):
        for y in pool5[:20] + [n]:
            assert compare(n, y) == _ref_compare(n, y)
            assert compare(y, n) == _ref_compare(y, n)
    fixed = veblen(1, add(EPSILON0, 1))
    for x, y in [(fixed, EPSILON0), (veblen(0, EPSILON0), EPSILON0), (veblen(2, fixed), fixed),
                 (veblen(0, fixed), fixed), (add(fixed, EPSILON0), fixed)]:
        assert compare(x, y) == _ref_compare(x, y)
        assert compare(y, x) == _ref_compare(y, x)


def test_compare_builds_no_term(pool4, monkeypatch):
    def refuse(*args):
        raise AssertionError("compare built a term")

    monkeypatch.setattr(ordinals, "atom_term", refuse)
    monkeypatch.setattr(Ordinal, "__init__", refuse)
    for x in pool4:
        for y in pool4:
            compare(x, y)


def test_term_size_counts_indices_and_multiplicity():
    assert term_size(ZERO) == 0
    assert term_size(from_int(3)) == 3
    assert term_size(OMEGA) == 2
    assert term_size(EPSILON0) == 2
    assert term_size(parse_ordinal("w^w")) == 3

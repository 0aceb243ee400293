import random
import re
from functools import cmp_to_key

import pytest

from conftest import oracle_next_phi, random_term
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
    in_phi_range,
    is_natural,
    iter_omega,
    mul_nat,
    next_phi_value,
    omega_power,
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


@pytest.mark.parametrize("text", ["", "w^", "phi(1)", "w+", "3*", "foo", "phi(1,2", "(w"])
def test_parse_errors_carry_position(text):
    with pytest.raises(ParseError) as err:
        parse_ordinal(text)
    assert err.value.position is not None


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


def _nest(opening: str, core: str, closing: str, depth: int) -> str:
    return opening * depth + core + closing * depth


@pytest.mark.parametrize("opening, core, closing", [
    ("(", "1", ")"), ("w^", "1", ""), ("phi(", "0", ",0)"), ("phi(0,", "1", ")"), ("(w^", "1", ")"),
])
def test_nesting_cap(opening, core, closing):
    # "(w^" nests two levels per step.
    depth = MAX_DEPTH // 2 if opening == "(w^" else MAX_DEPTH
    parse_ordinal(_nest(opening, core, closing, depth))
    with pytest.raises(RangeError):
        parse_ordinal(_nest(opening, core, closing, depth + 1))


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
        assert omega_power(b) == veblen(0, b) == iter_omega(1, b)
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


def test_next_phi_against_enumeration_oracle(pool4, pool5):
    for a in (ZERO, ONE):
        for beta in pool4:
            got = next_phi_value(a, beta)
            assert compare(got, beta) == GT
            assert in_phi_range(a, got)
            least = oracle_next_phi(a, beta, pool5 + [got])
            assert least == got


def test_phi_plus_iter_zero_index_is_next(pool4):
    for a in (ZERO, ONE):
        for beta in pool4[:20]:
            assert phi_plus_iter(a, beta, ZERO) == next_phi_value(a, beta)


def test_phi_plus_iter_cases():
    assert phi_plus_iter(0, OMEGA, 1) == parse_ordinal("w^3")
    assert phi_plus_iter(1, 0, OMEGA) == parse_ordinal("phi(1,w)")
    assert phi_plus_iter(0, 0, 2) == parse_ordinal("w^2")


# --- formatting ---------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "0", "1", "7", "w", "w+1", "w*2", "w*2+1", "w^2", "w^w", "w^(w+1)",
    "w^(w*2)", "e0", "e0+1", "e0*2", "e0+w+1", "phi(1,1)", "phi(2,0)",
    "phi(w,0)", "phi(1,w)", "w^(e0+1)", "phi(e0,0)", "phi(1,2)+w^w*3+w+5",
])
def test_format_round_trip(text):
    assert format_ordinal(parse_ordinal(text)) == text


def test_format_examples():
    assert format_ordinal(ZERO) == "0"
    assert format_ordinal(veblen(0, ONE)) == "w"
    assert format_ordinal(add(EPSILON0, ONE)) == "e0+1"


def test_parse_format_identity_on_enumeration():
    for t in enumerate_terms(5):
        assert parse_ordinal(format_ordinal(t)) == t


# --- enumeration ---------------------------------------------------------------

def test_enumeration_small_counts():
    assert [str(t) for t in enumerate_terms(1)] == ["0", "1"]
    assert [len(enumerate_terms(n)) for n in range(9)] == [1, 2, 5, 14, 46, 163, 626, 2506, 10409]


def test_enumeration_is_strictly_sorted_and_duplicate_free():
    terms = enumerate_terms(5)
    for a, b in zip(terms, terms[1:]):
        assert compare(a, b) == LT
    assert len(set(terms)) == len(terms)


def test_enumeration_cap():
    with pytest.raises(RangeError):
        enumerate_terms(MAX_ENUM_SIZE + 1)
    assert len(enumerate_terms(MAX_ENUM_SIZE)) == 10409


# The reference order and enumeration: plain transcriptions of the definitions,
# which build the atom as a term to compare against, re-sort every atom at
# every size and try every atom at every step.

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
    for n in range(8):
        assert enumerate_terms(n) == _ref_enumerate(n)


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


# --- order laws -----------------------------------------------------------------

def test_trichotomy_and_antisymmetry_on_pool(pool4):
    for x in pool4:
        for y in pool4:
            c = compare(x, y)
            assert c in (LT, EQ, GT)
            assert (c == EQ) == (x == y)
            assert compare(y, x) == -c


def test_transitivity_sampled(pool4, rng):
    terms = pool4 + [random_term(rng, 5) for _ in range(300)]
    for _ in range(10_000):
        x, y, z = rng.choice(terms), rng.choice(terms), rng.choice(terms)
        if compare(x, y) <= 0 and compare(y, z) <= 0:
            assert compare(x, z) <= 0


def test_add_laws_sampled(rng):
    terms = [random_term(rng, 4) for _ in range(120)]
    for x in terms:
        assert add(x, ZERO) == x
        assert add(ZERO, x) == x
    for _ in range(2000):
        x, y, z = rng.choice(terms), rng.choice(terms), rng.choice(terms)
        assert add(add(x, y), z) == add(x, add(y, z))
        if compare(y, z) == LT:
            assert compare(add(x, y), add(x, z)) == LT
        assert compare(x, add(x, y)) <= 0


def test_veblen_strictly_monotone_sampled(rng):
    args = [random_term(rng, 3) for _ in range(60)]
    idx = [ZERO, ONE, OMEGA]
    for a in idx:
        for x in args:
            for y in args:
                c = compare(x, y)
                if c == LT:
                    assert compare(veblen(a, x), veblen(a, y)) == LT

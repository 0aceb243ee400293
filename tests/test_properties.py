"""Property tests for the algebraic laws, over randomly built canonical terms."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from ordlab.ordinals import (
    EQ,
    GT,
    LT,
    ZERO,
    add,
    compare,
    from_int,
    mul_nat,
    successor,
    veblen,
)
from ordlab.worms import Worm, lift, worm_compare, worm_ordinal

naturals = st.integers(0, 4).map(from_int)

ordinals = st.recursive(
    naturals,
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda ab: veblen(ab[0], ab[1])),
        st.tuples(kids, kids).map(lambda ab: add(ab[0], ab[1])),
    ),
    max_leaves=10,
)

worms = st.lists(st.integers(0, 3), max_size=6).map(lambda ls: Worm(tuple(ls)))


@given(ordinals, ordinals)
def test_compare_is_antisymmetric_and_total(x, y):
    c = compare(x, y)
    assert c in (LT, EQ, GT)
    assert compare(y, x) == -c
    assert (c == EQ) == (x == y)


@given(ordinals, ordinals, ordinals)
def test_add_associative(x, y, z):
    assert add(add(x, y), z) == add(x, add(y, z))


@given(ordinals)
def test_add_zero_identity(x):
    assert add(x, ZERO) == x
    assert add(ZERO, x) == x


@given(ordinals, ordinals, ordinals)
def test_add_left_monotone(x, y, z):
    if compare(y, z) == LT:
        assert compare(add(x, y), add(x, z)) == LT


@given(ordinals, ordinals)
def test_add_inflationary(x, y):
    assert compare(x, add(x, y)) <= 0


@given(ordinals, st.integers(0, 5))
def test_mul_nat_is_iterated_add(x, n):
    acc = ZERO
    for _ in range(n):
        acc = add(acc, x)
    assert mul_nat(x, n) == acc


@given(ordinals)
def test_successor_strictly_increases(x):
    assert compare(x, successor(x)) == LT


@given(ordinals, ordinals, ordinals)
def test_veblen_fixed_point_absorption(a, b, x):
    if compare(a, b) == LT:
        assert veblen(a, veblen(b, x)) == veblen(b, x)


@given(ordinals, ordinals, ordinals)
@example(ZERO, ZERO, from_int(1))
def test_veblen_monotone_in_argument(a, x, y):
    c = compare(x, y)
    assert compare(veblen(a, x), veblen(a, y)) == c


@settings(max_examples=200)
@given(worms, worms)
def test_lift_preserves_worm_order(u, v):
    assert worm_compare(u, v) == worm_compare(lift(u, 1), lift(v, 1))


@given(worms)
def test_lift_law_on_nonempty_worms(w):
    if not w.is_top():
        assert worm_ordinal(lift(w, 1)) == veblen(ZERO, worm_ordinal(w))

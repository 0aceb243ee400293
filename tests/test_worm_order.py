"""An oracle for the worm order that uses no ordinals.

worm_compare is defined through o, and the other worm tests check o against
its own recursion, so a mistake shared by o and compare would pass them.
This file decides the 0-consistency order <_0 on worms syntactically, by
the head/body recursion of Beklemishev (Provability algebras and
proof-theoretic ordinals I, APAL 2004; see also Fernandez-Duque, Worms and
spiders, 2017), and checks worm_compare against it.

For a worm A whose letters are all >= n, h_n(A) is the longest prefix of A
whose letters are > n, and b_n(A) is what follows the first n in A (the
empty worm T when A has no n).  Then

    A <_n B  iff  B != T and (A = T
                              or not b_n(B) <_n A
                              or (b_n(A) <_n B and h_n(A) <_{n+1} h_n(B))).
"""

import itertools
import random
from functools import lru_cache

from ordlab.ordinals import EQ, GT, LT
from ordlab.worms import Worm, worm_compare


def _head(a: tuple[int, ...], n: int) -> tuple[int, ...]:
    return a[:a.index(n)] if n in a else a


def _body(a: tuple[int, ...], n: int) -> tuple[int, ...]:
    return a[a.index(n) + 1:] if n in a else ()


@lru_cache(maxsize=None)
def less(a: tuple[int, ...], b: tuple[int, ...], n: int = 0) -> bool:
    """A <_n B, for worms A and B whose letters are all >= n."""
    if not b:
        return False
    if not a or not less(_body(b, n), a, n):
        return True
    return less(_body(a, n), b, n) and less(_head(a, n), _head(b, n), n + 1)


def order(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    below, above = less(a, b), less(b, a)
    assert not (below and above), (a, b)
    return LT if below else GT if above else EQ


def test_oracle_cases():
    assert order((), (0,)) == LT
    assert order((1,), (0, 0, 0)) == GT
    assert order((2,), (2, 1)) == EQ
    assert order((1, 0, 1), (1, 1)) == LT


def test_worm_compare_matches_the_syntactic_order_exhaustive():
    # Every pair of worms of length <= 4 over the letters 0-3: 341 worms.
    pool = [w for k in range(5) for w in itertools.product(range(4), repeat=k)]
    assert len(pool) == 341
    try:
        for a in pool:
            wa = Worm(a)
            for b in pool:
                assert worm_compare(wa, Worm(b)) == order(a, b), (a, b)
    finally:
        less.cache_clear()


def test_worm_compare_matches_the_syntactic_order_on_long_worms():
    # The reflection workload's range: lengths up to 49 over the letters 0-4.
    rng = random.Random(20041)
    try:
        for _ in range(2000):
            a, b = (tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 49))) for _ in "ab")
            assert worm_compare(Worm(a), Worm(b)) == order(a, b), (a, b)
    finally:
        less.cache_clear()

"""Every recursive walk stays inside a stack budget at the depth cap.

Each nesting level costs a walk a fixed number f of Python frames: each
parser, and each walk over a value a parser builds at the cap (the
predicate compile, format_ordinal, term_size, compare, add, format_theory,
reduce_to_level, worm_ordinal and worm_of_ordinal).  theory_of_worm's maker
theories._worm_theory loops over a worm's letters, and pi_ordinal's one
walk down a theory's chain loops too: neither spends a frame a letter.
Here each walk runs in a fresh thread under the recursion limit
(f + 1) * MAX_DEPTH, with the caches it keeps cleared first.  That
leaves one spare frame a level, so a change that spends one more frame on
every level of any walk fails.  No budget exceeds N = 500, the bound the
README's "Limits" section states."""

import sys
import threading

from conftest import cold_worm_ordinal, nest
from ordlab._scan import MAX_DEPTH
from ordlab.errors import RangeError
from ordlab.notation import _compile_tree, _PredicateParser, _scanner_factory
from ordlab.ordinals import add, compare, format_ordinal, parse_ordinal, term_size
from ordlab.theories import format_theory, parse_theory, reduce_to_level
from ordlab.worms import Worm, theory_of_worm, worm_of_ordinal, worm_ordinal

D = MAX_DEPTH
N = 500  # the frames the README promises a caller


def _answer(limit: int, call):
    """call() in a fresh thread under the recursion limit ``limit``, which
    is restored before the thread ends: its result or its RangeError.  Any
    other exception, a RecursionError included, is raised here."""
    outcome = []

    def target():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            outcome.append((True, call()))
        except RangeError as error:
            outcome.append((True, error))
        except Exception as error:
            outcome.append((False, error))
        finally:
            sys.setrecursionlimit(old)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    ok, answer = outcome[0]
    if not ok:
        raise answer
    return answer


def _predicate_tree(text: str) -> tuple:
    parser = _PredicateParser(text)
    tree = parser.predicate(parser.or_expr())
    parser.end()
    return tree


def _compile(tree: tuple):
    _scanner_factory.cache_clear()
    return _compile_tree(tree)


def _reduce(theory):
    worm_ordinal.cache_clear()
    return reduce_to_level(theory, 1)


def _rfn(levels) -> str:
    return "".join(f"(rfn {level} 1 " for level in levels) + "EA+" + ")" * len(levels)


PREDICATE_PARENS = lambda n: nest("(", "x = 1", ")", n)
PREDICATE_SUMS = lambda n: nest("x+x*(", "x", ")", n) + " = 1"
PREDICATE_NOTS = lambda n: "not " * n + "x = 1"
ORDINAL_PARENS = lambda n: nest("(", "1", ")", n)
ORDINAL_TOWER = lambda n: "w^" * n + "1"
ORDINAL_INDEXES = lambda n: nest("phi(", "1", ",0)", n)
ORDINAL_ARGUMENTS = lambda n: nest("phi(1,", "1", ")", n)
THEORY_CONS = lambda n: nest("(con 1 ", "EA+", ")", n)
THEORY_RISING = lambda n: _rfn(range(1, n + 1))
THEORY_FALLING = lambda n: _rfn(range(n, 0, -1))

# (parser, frames a level, the text nested n deep): each reads its text at
# the cap and refuses one level more with a RangeError.
PARSES = [
    (_predicate_tree, 4, PREDICATE_PARENS),
    (_predicate_tree, 4, PREDICATE_SUMS),
    (_predicate_tree, 1, PREDICATE_NOTS),
    (parse_ordinal, 2, ORDINAL_PARENS),
    (parse_ordinal, 1, ORDINAL_TOWER),
    (parse_ordinal, 2, ORDINAL_INDEXES),
    (parse_ordinal, 2, ORDINAL_ARGUMENTS),
    (parse_theory, 1, THEORY_CONS),
    (parse_theory, 1, THEORY_RISING),
]


def _ordinals(text, count: int):
    """``count`` parses of ``text`` at the cap: equal values, not one object."""
    return lambda: [parse_ordinal(text(D)) for _ in range(count)]


# (walk, frames a level, its arguments at the cap, built by the parsers
# above).  The deepest compiled predicates are trees MAX_DEPTH deep, one of
# "not" and one of "+" and "*".
WALKS = [
    (_compile, 1, lambda: [_predicate_tree(PREDICATE_NOTS(D - 2))]),
    (_compile, 2, lambda: [_predicate_tree(PREDICATE_SUMS(D // 2 - 1))]),
    (format_ordinal, 1, _ordinals(ORDINAL_TOWER, 1)),
    (format_ordinal, 1, _ordinals(ORDINAL_INDEXES, 1)),
    (format_ordinal, 1, _ordinals(ORDINAL_ARGUMENTS, 1)),
    *((term_size, 3, _ordinals(text, 1))  # 3.10's generator costs a frame; 3.11 keeps two spare
      for text in (ORDINAL_TOWER, ORDINAL_INDEXES, ORDINAL_ARGUMENTS)),
    *((walk, 2, _ordinals(text, 2)) for walk in (compare, add)
      for text in (ORDINAL_TOWER, ORDINAL_INDEXES, ORDINAL_ARGUMENTS)),
    *((format_theory, 1, lambda text=text: [parse_theory(text(D))])
      for text in (THEORY_CONS, THEORY_RISING, THEORY_FALLING)),
    (_reduce, 4, lambda: [parse_theory(THEORY_FALLING(D))]),  # the worm route
    (cold_worm_ordinal, 4, lambda: [Worm(tuple(range(1, D + 1)))]),
    (cold_worm_ordinal, 4, lambda: [Worm(tuple(range(D, 0, -1)))]),
    (worm_of_ordinal, 2, _ordinals(ORDINAL_TOWER, 1)),  # w^w^...^w, the tallest that answers
    # Worms of 100 letters, each one reflection of the chain; "1 0" keeps
    # the worm route's recursion through o shallow.
    (theory_of_worm, 0, lambda: [Worm(tuple(range(D - 1, -1, -1)))]),
    (_reduce, 0, lambda: [theory_of_worm(Worm((1, 0) * (D // 2)))]),
]


def test_every_walk_fits_its_stack_budget():
    for parse, frames, text in PARSES:
        budget = (frames + 1) * D
        assert budget <= N
        assert not isinstance(_answer(budget, lambda: parse(text(D))), RangeError), text(1)
        assert isinstance(_answer(budget, lambda: parse(text(D + 1))), RangeError), text(1)
    for walk, frames, arguments in WALKS:
        budget = (frames + 1) * D
        assert budget <= N
        args = arguments()
        assert not isinstance(_answer(budget, lambda: walk(*args)), RangeError), walk

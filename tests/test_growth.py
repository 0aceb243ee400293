"""Every grammar, and every walk over a long legal value, runs in time linear
in its input.

Each family is timed at the sizes n in SIZES, in rounds that each run every
size once, so that a change of CPU speed mid-run touches every size alike;
each size keeps its best time.  The least-squares slope of log time against
log n reads about 1 for linear cost and 2 for quadratic: empirical
complexity fitting (Goldsmith, Aiken & Wilkerson, "Measuring empirical
computational complexity", ESEC/FSE 2007).  After ROUNDS rounds a slope
above MAX_SLOPE fails, unless more rounds, up to MAX_ROUNDS, bring it under:
on a shared machine a burst of load can slow every run of one size, while a
quadratic family reads about 1.5 however many rounds it gets."""

import gc
import math
import time
from functools import partial
from statistics import linear_regression

import pytest

from conftest import cold_worm_ordinal
from ordlab.errors import RangeError
from ordlab.notation import parse_predicate
from ordlab.ordinals import add, compare, format_ordinal, parse_ordinal
from ordlab.theories import parse_theory
from ordlab.worms import Worm, parse_worm, worm_of_ordinal

SIZES = (500, 1000, 2000, 4000)
ROUNDS, MAX_ROUNDS = 3, 9
MAX_SLOPE = 1.3


def _falling(n: int) -> str:
    """w^n+...+w^1: every term is pushed below the one before it."""
    return "+".join(f"w^{k}" for k in range(n, 0, -1))


def _predicate(text: str):
    # A chain of n links parses in one pass; its tree is n deep, so past
    # MAX_DEPTH links the compile refuses it at once.
    with pytest.raises(RangeError):
        parse_predicate(text)


# name -> n -> the call to time, with its input built beforehand.
FAMILIES = {
    "parse_ordinal falling": lambda n: partial(parse_ordinal, _falling(n)),
    "parse_ordinal flat": lambda n: partial(parse_ordinal, "+".join(["w"] * n)),
    "parse_ordinal rising": lambda n: partial(
        parse_ordinal, "+".join(["1"] + [f"w^{k}" for k in range(1, n + 1)])),
    "parse_theory": lambda n: partial(parse_theory, f"(rfn 1 {_falling(n)} EA+)"),
    "parse_predicate": lambda n: partial(_predicate, " or ".join(f"x != {i}" for i in range(n))),
    "parse_worm": lambda n: partial(parse_worm, " ".join(str(i % 7) for i in range(n))),
    "worm_of_ordinal": lambda n: partial(worm_of_ordinal, parse_ordinal(f"w*{n}")),
    "worm_ordinal": lambda n: partial(cold_worm_ordinal, Worm(i % 7 for i in range(n))),
    "format_ordinal": lambda n: partial(format_ordinal, parse_ordinal(_falling(n))),
    "add": lambda n: partial(add, parse_ordinal(_falling(n)), parse_ordinal(_falling(n))),
    "compare": lambda n: partial(compare, parse_ordinal(_falling(n)), parse_ordinal(_falling(n))),
}


def _slope(calls) -> tuple[float, list[float]]:
    """The fitted slope for ``calls``, one per size, and the best times."""
    best = [math.inf] * len(calls)
    enabled = gc.isenabled()
    gc.disable()  # a full collection would charge one call for the whole heap
    try:
        for rounds in range(1, MAX_ROUNDS + 1):
            for i, call in enumerate(calls):
                start = time.perf_counter()
                call()
                best[i] = min(best[i], time.perf_counter() - start)
            if rounds >= ROUNDS:
                slope = linear_regression([math.log(n) for n in SIZES], [math.log(t) for t in best]).slope
                if slope <= MAX_SLOPE:
                    break
    finally:
        if enabled:
            gc.enable()
    return slope, best


@pytest.mark.parametrize("family", FAMILIES)
def test_cost_grows_linearly(family):
    slope, best = _slope([FAMILIES[family](n) for n in SIZES])
    assert slope <= MAX_SLOPE, f"{family}: slope {slope:.2f}, best times {best}"

import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from ordlab._scan import MAX_DEPTH
from ordlab.errors import PredicateError, RangeError
from ordlab.notation import (
    MAX_FUEL,
    PredicateExpr,
    Presentation,
    _scanner_factory,
    audit,
    check_ascending,
    eval_tree,
    find_descending,
    kreisel_presentation,
    parse_predicate,
)

BATTERY = [
    "true",
    "x != 0",
    "x != 7",
    "x != 199",
    "x*x <= 10000 or x != 50",
    "x != 120 and x != 130",
]


@pytest.fixture(scope="module", params=BATTERY)
def presentation(request):
    return kreisel_presentation(request.param)


# --- predicates ------------------------------------------------------------------

def test_predicate_parsing_and_eval():
    p = parse_predicate("x*x <= 10000 or x != 50")
    assert p.evaluate(50)  # 2500 <= 10000
    assert p.evaluate(51)
    q = parse_predicate("not (x = 3 or x = 5)")
    assert not q.evaluate(3) and not q.evaluate(5) and q.evaluate(4)
    r = parse_predicate("x+1 <= 10")
    assert r.evaluate(9) and not r.evaluate(10)


@pytest.mark.parametrize("text", ["", "x !!", "y != 7", "x >", "x != 7 or", "7", "x"])
def test_predicate_parse_errors(text):
    with pytest.raises(PredicateError):
        parse_predicate(text)


def test_predicate_value_is_its_text_and_tree():
    for text in BATTERY:
        p, q = parse_predicate(text), parse_predicate(text)
        assert p._counterexamples is not q._counterexamples
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert "_counterexamples" not in repr(p)
        assert kreisel_presentation(p) == kreisel_presentation(q)
    assert parse_predicate("x != 7") != parse_predicate("x != 8")


def test_compiled_predicate_agrees_with_ast():
    for text in BATTERY:
        p = parse_predicate(text)
        for n in range(250):
            assert p.evaluate(n) == bool(eval_tree(p.tree, n))


# --- the compiled scanner ---------------------------------------------------------

def test_scanner_agrees_with_ast():
    rng = random.Random(2024)
    windows = [(0, 0), (7, 7), (10, 3), (0, 1)]
    windows += [(s, s + rng.randint(-5, 80)) for s in (rng.randint(0, 260) for _ in range(40))]
    for text in BATTERY:
        p = parse_predicate(text)
        for s, e in windows:
            assert list(p._counterexamples(s, e)) == [
                n for n in range(s, e) if not eval_tree(p.tree, n)], (text, s, e)


@pytest.mark.parametrize("first, second", [
    ("x != 7", "x != 9"),
    ("x*x <= 10 or x != 50", "x*x <= 20 or x != 60"),
])
def test_one_shape_binds_its_own_numerals(first, second):
    p, q = parse_predicate(first), parse_predicate(second)
    assert p._counterexamples(0, 0).gi_code is q._counterexamples(0, 0).gi_code
    for pred in (p, q, p):
        assert list(pred._counterexamples(0, 100)) == [
            n for n in range(100) if not eval_tree(pred.tree, n)]
    assert list(p._counterexamples(0, 100)) != list(q._counterexamples(0, 100))


def test_second_parse_of_a_shape_compiles_nothing():
    parse_predicate("x + 3 != 41 and not x = 2")
    before = _scanner_factory.cache_info()
    p = parse_predicate("x + 5 != 12 and not x = 9")
    after = _scanner_factory.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1
    assert list(p._counterexamples(0, 20)) == [7, 9]


def test_shape_cache_has_a_fixed_size():
    assert _scanner_factory.cache_info().maxsize == 256
    ops = ["<", "<=", ">", ">=", "=", "!="]
    for combo in itertools.islice(itertools.product(ops, repeat=4), 300):
        text = " and ".join(f"x {op} {i}" for i, op in enumerate(combo))
        p = parse_predicate(text)
        assert p.evaluate(2) == bool(eval_tree(p.tree, 2))
    assert _scanner_factory.cache_info().currsize == 256


def test_wide_numerals_and_the_depth_cap_compile():
    nines = "9" * 4300
    wide = [
        (f"x*x <= {nines} or x != 3", []),
        (f"x + {nines} != {nines}", [0]),
        ("(" * MAX_DEPTH + nines + ")" * MAX_DEPTH + " != x + 1", []),
        ("x" + "*x" * (MAX_DEPTH - 3) + f" + {nines} > {nines}", [0]),
    ]
    for text, misses in wide:
        p = parse_predicate(text)
        assert list(p._counterexamples(0, 5)) == misses
        for n in range(5):
            assert p.evaluate(n) == bool(eval_tree(p.tree, n))


def _random_arith(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["x", str(rng.randint(0, 60))])
    op = rng.choice(["+", "*", "()"])
    if op == "()":
        return f"({_random_arith(rng, depth - 1)})"
    return f"{_random_arith(rng, depth - 1)} {op} {_random_arith(rng, depth - 1)}"


def _random_predicate(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return rng.choice(["true", "false"])
        op = rng.choice(["<", "<=", ">", ">=", "=", "==", "!="])
        return f"{_random_arith(rng, 2)} {op} {_random_arith(rng, 2)}"
    kind = rng.choice(["and", "or", "not", "()"])
    if kind == "not":
        return f"not {_random_predicate(rng, depth - 1)}"
    if kind == "()":
        return f"({_random_predicate(rng, depth - 1)})"
    return f"{_random_predicate(rng, depth - 1)} {kind} {_random_predicate(rng, depth - 1)}"


def test_compiled_predicate_agrees_with_ast_on_the_whole_grammar():
    rng = random.Random(2021)
    for _ in range(300):
        p = parse_predicate(_random_predicate(rng, 3))
        for n in range(61):
            assert p.evaluate(n) == bool(eval_tree(p.tree, n)), (p.source, n)


def test_predicate_at_depth_cap():
    # MAX - 1 factors make a product tree MAX - 1 deep; the comparison adds one.
    # MAX - 1 comparisons joined by "or" or "and" make a tree MAX deep too.
    at_cap = [
        "x" + "*x" * (MAX_DEPTH - 2) + " >= 0",
        "not " * (MAX_DEPTH - 2) + "x = 1",
        "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH + " != 1",
        "x" + "+x" * (MAX_DEPTH - 2) + " >= 0",
        " or ".join(["x = 1"] * (MAX_DEPTH - 1)),
        " and ".join(["x = 1"] * (MAX_DEPTH - 1)),
    ]
    for text in at_cap:
        p = parse_predicate(text)
        for n in range(5):
            assert p.evaluate(n) == bool(eval_tree(p.tree, n))
    assert parse_predicate(at_cap[0]).evaluate(3)
    assert parse_predicate(at_cap[1]).evaluate(1) and not parse_predicate(at_cap[1]).evaluate(2)
    over_cap = [
        "x" + "*x" * (MAX_DEPTH - 1) + " >= 0",
        "not " * (MAX_DEPTH - 1) + "x = 1",
        "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1) + " != 1",
        "x" + "+x" * (MAX_DEPTH - 1) + " >= 0",
        " or ".join(["x = 1"] * MAX_DEPTH),
        " and ".join(["x = 1"] * MAX_DEPTH),
    ]
    for text in over_cap:
        with pytest.raises(RangeError):
            parse_predicate(text)


# --- the order -----------------------------------------------------------------------

def test_order_is_on_naturals():
    with pytest.raises(RangeError, match="^the order is on natural numbers$"):
        kreisel_presentation("true").less(-1, 0)


def test_true_predicate_gives_standard_order():
    p = kreisel_presentation("true")
    for a in range(100):
        for b in range(100):
            assert p.less(a, b) == (a < b)


def test_three_zones_around_counterexample():
    p = kreisel_presentation("x != 7")
    assert p.less(3, 6)
    assert p.less(6, 7)
    assert p.less(9, 8)
    assert not p.less(7, 8)
    chain = list(range(7, 58))
    for i in range(len(chain) - 1):
        assert p.less(chain[i + 1], chain[i])


def test_strict_linear_order_exhaustive(presentation):
    p = presentation
    bound = 200
    k = p.least_counterexample(bound)
    ranks = {}
    for i in range(bound + 1):
        if k is None or i < k:
            ranks[i] = i
        else:
            ranks[i] = k + (bound - i)
    # pairwise agreement with a linearization implies trichotomy+transitivity
    for a in range(bound + 1):
        for b in range(bound + 1):
            assert p.less(a, b) == (ranks[a] < ranks[b])
            if a == b:
                assert not p.less(a, b)


def test_locality_instrumented(presentation):
    for a, b in ((0, 1), (13, 2), (150, 170), (199, 0)):
        p, calls = _counting(presentation.predicate.source)
        p.less(a, b)
        assert calls and max(calls) <= max(a, b)
        # The scan runs up to the least counterexample, or to max(a, b):
        # exactly the arguments the answer depends on.
        top = max(a, b)
        k = p.least_counterexample(top)
        assert calls == list(range(top + 1 if k is None else k + 1))
        assert k == next((n for n in range(top + 1) if not presentation.predicate.evaluate(n)), None)


# --- check_ascending -----------------------------------------------------------------

def test_check_ascending_examples():
    assert check_ascending(kreisel_presentation("true"), 100)
    assert not check_ascending(kreisel_presentation("x != 7"), 100)
    assert check_ascending(kreisel_presentation("x != 200"), 100)


def test_ascending_iff_total_below_window(presentation):
    p = presentation
    for n in range(201):
        total_below = all(p.predicate.evaluate(x) for x in range(n))
        assert check_ascending(p, n) == total_below


def _counting(text: str):
    """The presentation of ``text`` and the list of arguments its predicate
    is evaluated at.  The library consumes a scan lazily, so an argument is
    listed once the scan has reached it."""
    calls = []
    predicate = parse_predicate(text)
    scan = predicate._counterexamples

    def counted(s, e):
        for n in range(s, e):
            calls.append(n)
            if next(scan(n, n + 1), None) is not None:
                yield n

    return Presentation(PredicateExpr(predicate.source, predicate.tree, counted)), calls


@pytest.mark.parametrize("text", ["x != 700", "true"])
@pytest.mark.parametrize("window_op", [check_ascending, audit])
def test_window_ops_evaluate_linearly(text, window_op):
    n = 2000
    p, calls = _counting(text)
    window_op(p, n)
    assert len(calls) <= n + 1 and max(calls) <= n


def test_fuel_cap():
    p = kreisel_presentation("true")
    with pytest.raises(RangeError):
        check_ascending(p, 101, fuel=100)
    with pytest.raises(RangeError):
        audit(p, 101, fuel=100)
    for window_op in (check_ascending, audit):
        window_op(p, 5, fuel=MAX_FUEL)
        with pytest.raises(RangeError):
            window_op(p, 5, fuel=MAX_FUEL + 1)
    with pytest.raises(RangeError):
        find_descending(p, MAX_FUEL + 1)
    # A point query is capped at the same fuel, before any evaluation.
    p, calls = _counting("true")
    for query in (lambda: p.less(0, MAX_FUEL + 1), lambda: p.less(10**12, 0),
                  lambda: p.least_counterexample(MAX_FUEL + 1)):
        with pytest.raises(RangeError):
            query()
    assert calls == []
    assert p.less(0, MAX_FUEL) and len(calls) == MAX_FUEL + 1


def test_negative_window_or_fuel():
    p = kreisel_presentation("x != 7")
    for call, message in [
        (lambda: check_ascending(p, -5), "window -5 is negative"),
        (lambda: audit(p, -5), "window -5 is negative"),
        (lambda: find_descending(p, -3), "fuel -3 is negative"),
        (lambda: check_ascending(p, 5, fuel=-1), "fuel -1 is negative"),
        (lambda: audit(p, -5, fuel=-1), "fuel -1 is negative"),
    ]:
        with pytest.raises(RangeError, match=f"^{message}$"):
            call()
    assert check_ascending(p, 0, fuel=0) and find_descending(p, 0) is None


# --- the scanned prefix -------------------------------------------------------------

def _order_key(k, n):
    """Rank of n in the three-zone order around k (None: plain omega)."""
    return (0, n) if k is None or n < k else (1, -n)


@pytest.mark.parametrize("text", ["x != 700", "true"])
def test_less_batch_evaluates_each_argument_once(text):
    rng = random.Random(3)
    pairs = [(rng.randint(0, 2000), rng.randint(0, 2000)) for _ in range(500)]
    p, calls = _counting(text)
    k = 700 if text != "true" else None
    for a, b in pairs:
        assert p.less(a, b) == (_order_key(k, a) < _order_key(k, b))
    assert len(calls) == len(set(calls))
    assert len(calls) <= max(max(pair) for pair in pairs) + 1


_QUERY = st.one_of(
    st.tuples(st.just("less"), st.integers(0, 60), st.integers(0, 60)),
    st.tuples(st.just("least"), st.integers(-1, 60)),
)


@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(["true", "x != 0", "x != 20", "x*x != 900 and x != 45"]),
       queries=st.lists(_QUERY, max_size=12))
@example(text="x != 20", queries=[("less", 50, 3), ("less", 4, 5), ("least", 10), ("least", 20)])
@example(text="x != 20", queries=[("least", 60), ("less", 30, 12), ("least", 19), ("less", 19, 0)])
def test_shared_presentation_answers_like_fresh_ones(text, queries):
    predicate = parse_predicate(text)
    shared = kreisel_presentation(predicate)
    for query in queries:
        answers = []
        for p in (shared, kreisel_presentation(predicate)):
            if query[0] == "less":
                top = max(query[1], query[2])
                # The least counterexample up to max(a, b) is what the
                # comparison depends on.
                answers.append((p.less(query[1], query[2]), p.least_counterexample(top)))
            else:
                answers.append(p.least_counterexample(query[1]))
        assert answers[0] == answers[1], query


def test_queried_presentation_equals_a_fresh_one():
    predicate = parse_predicate("x != 7")
    queried, fresh = kreisel_presentation(predicate), kreisel_presentation(predicate)
    queried.less(30, 12)
    queried.least_counterexample(100)
    assert queried == fresh
    assert hash(queried) == hash(fresh)
    assert repr(queried) == repr(fresh)


@pytest.mark.parametrize("text", BATTERY)
def test_recorder_after_a_larger_query(text):
    p = kreisel_presentation(text)
    p.less(199, 0)
    for a, b in ((4, 5), (30, 12), (2, 0), (150, 170)):
        top = max(a, b)
        k = next((n for n in range(top + 1) if not p.predicate.evaluate(n)), None)
        assert p.less(a, b) == (_order_key(k, a) < _order_key(k, b))
        assert p.least_counterexample(top) == k


def test_presentation_shared_across_threads():
    p = kreisel_presentation("x != 700")

    def batch(seed):
        rng = random.Random(seed)
        pairs = [(rng.randint(0, 1500), rng.randint(0, 1500)) for _ in range(300)]
        return [(a, b, p.less(a, b)) for a, b in pairs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(batch, seed) for seed in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    for rows in results:
        for a, b, got in rows:
            assert got == (_order_key(700, a) < _order_key(700, b))


# --- find_descending -------------------------------------------------------------------

def test_find_descending_examples():
    assert find_descending(kreisel_presentation("true"), 1000) is None
    chain = find_descending(kreisel_presentation("x != 7"), 50)
    assert chain[0] == 7 and len(chain) == 44
    assert find_descending(kreisel_presentation("x != 0"), 5) == [0, 1, 2, 3, 4]


def test_find_descending_chains_verify(presentation):
    p = presentation
    fuel = 200
    chain = find_descending(p, fuel)
    k = p.least_counterexample(fuel)
    if k is None:
        assert chain is None
    else:
        assert chain[0] == k
        assert len(chain) == min(fuel, fuel - k + 1)
        for hi, lo in zip(chain, chain[1:]):
            assert p.less(lo, hi)


# --- audit ----------------------------------------------------------------------------

def test_audit_examples():
    r = audit(kreisel_presentation("true"), 100)
    assert (r.counterexamples, r.descents, r.equivalent) == (0, 0, True)
    r = audit(kreisel_presentation("x != 7"), 100)
    assert r.counterexamples == 1 and r.descents > 0 and r.equivalent
    r = audit(kreisel_presentation("x != 7"), 5)
    assert (r.counterexamples, r.descents, r.equivalent) == (0, 0, True)


def test_audit_agrees_with_pointwise_definition(presentation):
    p = presentation
    for n in range(201):
        report = audit(p, n)
        assert report.counterexamples == sum(not p.predicate.evaluate(i) for i in range(n + 1))
        assert report.descents == sum(p.less(i + 1, i) for i in range(n))


def test_audit_report_text_shape():
    lines = audit(kreisel_presentation("x != 7"), 100).lines()
    assert lines[0] == "window: 100"
    assert lines[1] == "counterexamples: 1"
    assert lines[2] == "descents: 93"
    assert lines[3] == "equivalent: yes"

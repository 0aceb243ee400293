import pytest

from dataclasses import replace

from ordlab._scan import MAX_DEPTH
from ordlab.errors import PredicateError, RangeError
from ordlab.notation import (
    MAX_FUEL,
    Presentation,
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


def test_compiled_predicate_agrees_with_ast():
    for text in BATTERY:
        p = parse_predicate(text)
        for n in range(250):
            assert p.evaluate(n) == bool(eval_tree(p.tree, n))


def test_predicate_at_depth_cap():
    # MAX - 1 factors make a product tree MAX - 1 deep; the comparison adds one.
    at_cap = [
        "x" + "*x" * (MAX_DEPTH - 2) + " >= 0",
        "not " * (MAX_DEPTH - 2) + "x = 1",
        "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH + " != 1",
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
    ]
    for text in over_cap:
        with pytest.raises(RangeError):
            parse_predicate(text)


# --- the order -----------------------------------------------------------------------

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
    p = presentation
    for a, b in ((0, 1), (13, 2), (150, 170), (199, 0)):
        recorder = []
        p.less(a, b, recorder=recorder)
        assert recorder and max(recorder) <= max(a, b)


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
    is evaluated at."""
    calls = []
    predicate = parse_predicate(text)
    fn = predicate._fn

    def counted(n):
        calls.append(n)
        return fn(n)

    return Presentation(replace(predicate, _fn=counted), text), calls


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

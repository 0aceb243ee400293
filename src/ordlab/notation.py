"""Pathological presentations of omega, gated on a decidable predicate.

A presentation reorders the naturals around the least counterexample k of a
predicate P: below k the order is standard, everything below k precedes
everything at or above k, and from k on the order is reversed.  When P holds
everywhere the order is plain omega; when P first fails at k the tail
k, k+1, k+2, ... is an infinite strictly descending chain.  Deciding a single
comparison only ever inspects P at arguments up to max(a, b), so the
well-foundedness of the order is exactly as hidden as the truth of P.
A presentation remembers how far it has scanned P, so a later query never
scans that prefix again.  kreisel_presentation gives every caller of one
text the same presentation, from a cache of 256 texts, so a repeat query
skips the parse and the scan both.

Predicates are a tiny total expression language over one variable x with
+, *, numerals, comparisons and boolean connectives, e.g. "x != 7" or
"x*x <= 10000 or x != 50".  A parsed predicate carries one compiled form, a
scanner that yields its counterexamples in a range lazily; every scan, point
query and audit goes through it.  The scanner is compiled once per shape,
the text with each numeral made a parameter, so "x != 7" and "x != 9" share
one compiled factory and bind their own numerals.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Optional

from ._scan import DEFAULT_FUEL, MAX_DEPTH, MAX_FUEL, Scanner
from ._value import Value, set_field
from .errors import PredicateError, RangeError

# The comparison operators the parser tries, in order: each two-character
# operator precedes its prefix.
_COMPARISONS = ("<=", "<", ">=", ">", "==", "=", "!=")
_SUM_TAGS = ("num", "var", "+", "*")


class PredicateExpr(Value):
    """Parsed predicate; ``source`` is the original text and ``tree`` its
    AST.  ``_counterexamples(s, e)`` is the compiled form: it yields, in
    increasing order and lazily, each n in range(s, e) at which the
    predicate fails.  It is its shape's scanner, compiled once and shared,
    bound to this predicate's numerals.  Equality, hash and repr follow
    ``source`` and ``tree``, so two parses of one text are one value."""

    __slots__ = __match_args__ = ("source", "tree", "_counterexamples")
    source: str
    tree: tuple
    _counterexamples: Callable[[int, int], Iterator[int]]

    def evaluate(self, n: int) -> bool:
        return next(self._counterexamples(n, n + 1), None) is None


class _PredicateParser(Scanner):
    """One-pass recursive descent: or < and < not < comparison < + < *.  Each
    "(" and "not" nests one level; chains are loops, and _tree_to_python caps
    tree depth.  A chain still builds a left-nested tree, one tree level a
    link of "and", "or", "+" or "*": 99 comparisons joined by "or" compile
    and 100 are refused, and a sum x+x+... of 99 terms compiles and one of
    100 is refused.  Only factor reads "(", and a group is a sum or a
    predicate as its tag says; a predicate group ends the sum and comparison
    it starts.  One rule reads both "or" and "and", one "not" and
    comparisons, one "+" and "*": a "(" costs four Python frames (or_expr,
    not_expr, arith, factor) and a "not" one, so MAX_DEPTH of them stay well
    inside the recursion limit."""

    error_type = PredicateError

    def or_expr(self) -> tuple:
        """A disjunction of conjunctions, and binding tighter; both chains are one loop."""
        total, node = None, self.not_expr()
        while node[0] not in _SUM_TAGS:
            if self.keyword("and"):
                node = ("and", node, self.predicate(self.not_expr()))
            elif self.keyword("or"):
                total = node if total is None else ("or", total, node)
                node = self.predicate(self.not_expr())
            else:
                break
        return node if total is None else ("or", total, node)

    def not_expr(self) -> tuple:
        if self.keyword("not"):
            self.down()
            node = self.predicate(self.not_expr())
            self.depth -= 1
            return ("not", node)
        if self.keyword("true"):
            return ("bool", True)
        if self.keyword("false"):
            return ("bool", False)
        left = self.arith()
        if left[0] in _SUM_TAGS:
            for op in _COMPARISONS:
                if self.text.startswith(op, self.pos):
                    self.pos += len(op)
                    return (op if op != "==" else "=", left, self.sum_at(self.pos, self.arith()))
        return left

    def arith(self) -> tuple:
        """A sum of products, * binding tighter; both chains are one loop."""
        total, node = None, self.factor()
        while node[0] in _SUM_TAGS and (op := self.peek()) in ("+", "*"):
            self.pos += 1
            right = self.sum_at(self.pos, self.factor())
            if op == "*":
                node = ("*", node, right)
            else:
                total, node = node if total is None else ("+", total, node), right
        return node if total is None else ("+", total, node)

    def factor(self) -> tuple:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            self.down()
            node = self.or_expr()
            self.depth -= 1
            self.eat(")")
            return node
        if ch.isdecimal():
            return ("num", self.numeral())
        if self.keyword("x"):
            return ("var",)
        self.error("expected a numeral, 'x', or '('")

    def predicate(self, node: tuple) -> tuple:
        if node[0] in _SUM_TAGS:
            self.error("expected a comparison operator")
        return node

    def sum_at(self, start: int, node: tuple) -> tuple:
        """``node``, an operand read from ``start`` on, if it is a sum; a
        predicate is an error at its first character."""
        if node[0] not in _SUM_TAGS:
            self.error("expected a sum", len(self.text) - len(self.text[start:].lstrip()))
        return node


@lru_cache(maxsize=256)
def _scanner_factory(src: str) -> Callable[..., Callable[[int, int], Iterator[int]]]:
    """The compiled factory for one shape's source, ``lambda n0, ...:
    lambda s, e: <generator of counterexamples>``."""
    return eval(src, {"__builtins__": {}, "range": range})


def _compile_tree(tree: tuple) -> Callable[[int, int], Iterator[int]]:
    numerals = []
    shape = _tree_to_python(tree, numerals, 1)
    params = ", ".join(f"n{i}" for i in range(len(numerals)))
    factory = _scanner_factory(
        f"lambda {params}: lambda s, e: (x for x in range(s, e) if not {shape})")
    return factory(*numerals)


def _tree_to_python(tree: tuple, numerals: list[int], depth: int) -> str:
    """Python source for ``tree`` at level ``depth``, each numeral written
    as the parameter n<i> and its value appended to ``numerals``.  The
    source nests one pair of parentheses per level, and CPython's compiler
    refuses more than 200: a level past MAX_DEPTH is a RangeError.  Each
    link of an "and", "or", "+" or "*" chain is a level, so a chain of 100
    comparisons or terms is refused and one of 99 compiles."""
    if depth > MAX_DEPTH:
        raise RangeError(f"predicate tree deeper than the depth cap {MAX_DEPTH}")
    tag = tree[0]
    if tag == "bool":
        return "True" if tree[1] else "False"
    if tag == "num":
        numerals.append(tree[1])
        return f"n{len(numerals) - 1}"
    if tag == "var":
        return "x"
    if tag == "not":
        return f"(not {_tree_to_python(tree[1], numerals, depth + 1)})"
    op = {"=": "=="}.get(tag, tag)
    left, right = (_tree_to_python(child, numerals, depth + 1) for child in tree[1:])
    return f"({left} {op} {right})"


def parse_predicate(text: str) -> PredicateExpr:
    parser = _PredicateParser(text)
    tree = parser.predicate(parser.or_expr())
    parser.end()
    return PredicateExpr(text.strip(), tree, _compile_tree(tree))


class Presentation(Value):
    """A decidable strict linear order on the naturals derived from a
    predicate; see the module docstring for the three-zone definition."""

    __slots__ = ("predicate", "_scanned")
    __match_args__ = ("predicate",)
    predicate: PredicateExpr

    def __init__(self, predicate: PredicateExpr):
        set_field(self, "predicate", predicate)
        # (s, k): P holds on 0..s-1, and k is the least counterexample (then
        # s == k) or None.  Each stored pair is a true fact about a pure
        # predicate, swapped in whole, so a presentation may be shared.
        set_field(self, "_scanned", (0, None))

    def least_counterexample(self, bound: int) -> Optional[int]:
        """First n <= bound with not P(n), scanning upward, or None; never
        inspects the predicate above bound, nor at an argument an earlier
        call on this presentation already inspected: a presentation that
        kreisel_presentation gave for a text is shared by every caller of
        that text.  The answer names the arguments it depends on: P at
        0..k for an answer k, at 0..bound for None."""
        if bound > MAX_FUEL:
            raise RangeError(f"bound {bound} exceeds the fuel cap {MAX_FUEL}")
        s, k = self._scanned
        if k is None and s <= bound:
            k = next(self.predicate._counterexamples(s, bound + 1), None)
            s = bound + 1 if k is None else k
            set_field(self, "_scanned", (s, k))
        if k is not None and k > bound:
            k = None
        return k

    def less(self, a: int, b: int) -> bool:
        if a < 0 or b < 0:
            raise RangeError("the order is on natural numbers")
        k = self.least_counterexample(max(a, b))
        if k is None or (a < k and b < k):
            return a < b
        if (a < k) != (b < k):
            return a < k
        return a > b


def kreisel_presentation(predicate: PredicateExpr | str) -> Presentation:
    """The presentation of ``predicate``.  A text goes through one shared
    cache of 256 entries keyed by the exact text, so every caller of a text
    gets one presentation and its scanned prefix; a refused text is not
    cached.  kreisel_presentation.cache_info() and cache_clear() reach it.
    A parsed predicate gets a fresh presentation."""
    if isinstance(predicate, str):
        return _text_presentation(predicate)
    return Presentation(predicate)


@lru_cache(maxsize=256)
def _text_presentation(text: str) -> Presentation:
    return Presentation(parse_predicate(text))


kreisel_presentation.cache_info = _text_presentation.cache_info
kreisel_presentation.cache_clear = _text_presentation.cache_clear


def _check_fuel(fuel: int, window: int):
    if fuel < 0:
        raise RangeError(f"fuel {fuel} is negative")
    if window < 0:
        raise RangeError(f"window {window} is negative")
    if fuel > MAX_FUEL:
        raise RangeError(f"fuel {fuel} exceeds the cap {MAX_FUEL}")
    if window > fuel:
        raise RangeError(f"window {window} exceeds the fuel cap {fuel}")


def check_ascending(p: Presentation, n: int, fuel: int = DEFAULT_FUEL) -> bool:
    """True iff 0 < 1 < ... < n holds in the presentation order.

    By the three-zone rule the chain breaks exactly at the adjacent pairs
    at or above the least counterexample k, and the pair (k-1, k) still
    ascends; so the answer is whether k is absent or k >= n.  One upward
    scan finds that with at most n evaluations of the predicate, none
    above n - 1."""
    _check_fuel(fuel, n)
    return p.least_counterexample(n - 1) is None


def find_descending(p: Presentation, fuel: int) -> Optional[list[int]]:
    """A strictly descending chain starting at the least counterexample
    within the window 0..fuel, of length min(fuel, what the window holds)
    but at least 1; None when the predicate has no counterexample there."""
    _check_fuel(fuel, fuel)
    k = p.least_counterexample(fuel)
    if k is None:
        return None
    return list(range(k, k + max(1, min(fuel, fuel - k + 1))))


class AuditReport(Value):
    __slots__ = __match_args__ = ("window", "counterexamples", "descents", "equivalent")
    window: int
    counterexamples: int
    descents: int
    equivalent: bool

    def lines(self) -> list[str]:
        return [
            f"window: {self.window}",
            f"counterexamples: {self.counterexamples}",
            f"descents: {self.descents}",
            f"equivalent: {'yes' if self.equivalent else 'no'}",
        ]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def audit(p: Presentation, n: int, fuel: int = DEFAULT_FUEL) -> AuditReport:
    """Count the predicate's counterexamples and the order's adjacent
    descents inside the window, and record whether the two observations
    agree (prefix looks well-ordered iff no counterexample was seen) --
    computed, never assumed.

    One pass over 0..n evaluates the predicate n + 1 times: it scans up to
    the least counterexample k, then counts the counterexamples above it.
    By the three-zone rule the pair (i+1, i) descends exactly when i >= k,
    so there are n - k descents, or none without k."""
    _check_fuel(fuel, n)
    k = p.least_counterexample(n)
    if k is None:
        counterexamples = descents = 0
    else:
        counterexamples = 1 + sum(1 for _ in p.predicate._counterexamples(k + 1, n + 1))
        descents = n - k
    equivalent = (descents == 0) == (counterexamples == 0)
    return AuditReport(n, counterexamples, descents, equivalent)

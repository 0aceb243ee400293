"""Pathological presentations of omega, gated on a decidable predicate.

A presentation reorders the naturals around the least counterexample k of a
predicate P: below k the order is standard, everything below k precedes
everything at or above k, and from k on the order is reversed.  When P holds
everywhere the order is plain omega; when P first fails at k the tail
k, k+1, k+2, ... is an infinite strictly descending chain.  Deciding a single
comparison only ever inspects P at arguments up to max(a, b), so the
well-foundedness of the order is exactly as hidden as the truth of P.
A presentation remembers how far it has scanned P, so a later query never
scans that prefix again.

Predicates are a tiny total expression language over one variable x with
+, *, numerals, comparisons and boolean connectives, e.g. "x != 7" or
"x*x <= 10000 or x != 50".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ._scan import MAX_DEPTH, Scanner
from .errors import PredicateError, RangeError

MAX_FUEL = 10**6
"""Ceiling on the notation lab's fuel: the most predicate evaluations one
window check, audit or descent search may ask for, and the largest bound
``least_counterexample``, and so ``less``, accepts."""

_COMPARISONS = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class PredicateExpr:
    """Parsed predicate; ``source`` is the original text and ``_fn`` an
    equivalent compiled form of the AST stored in ``tree``."""

    source: str
    tree: tuple
    _fn: Callable[[int], bool]

    def evaluate(self, n: int) -> bool:
        return bool(self._fn(n))


def eval_tree(tree: tuple, n: int):
    """Reference evaluator for the predicate AST (the compiled form must
    agree with this on every input)."""
    tag = tree[0]
    if tag == "bool":
        return tree[1]
    if tag == "num":
        return tree[1]
    if tag == "var":
        return n
    if tag == "not":
        return not eval_tree(tree[1], n)
    if tag == "and":
        return eval_tree(tree[1], n) and eval_tree(tree[2], n)
    if tag == "or":
        return eval_tree(tree[1], n) or eval_tree(tree[2], n)
    if tag == "+":
        return eval_tree(tree[1], n) + eval_tree(tree[2], n)
    if tag == "*":
        return eval_tree(tree[1], n) * eval_tree(tree[2], n)
    return _COMPARISONS[tag](eval_tree(tree[1], n), eval_tree(tree[2], n))


class _PredicateParser(Scanner):
    """Recursive descent: or < and < not < comparison < + < *; each "(" and
    "not" nests one level.  Each rule returns a (tree, depth) pair, so a
    tree deeper than MAX_DEPTH is refused as it is built: the compiled form
    nests one pair of parentheses per tree level, and CPython's compiler
    refuses more than 200."""

    def node(self, tag: str, *children: tuple) -> tuple:
        depth = 1 + max(d for _, d in children)
        if depth > MAX_DEPTH:
            # A RangeError, so that the backtracking in comparison() cannot
            # swallow it as a failed parse.
            raise RangeError(f"predicate tree deeper than the depth cap {MAX_DEPTH}")
        return (tag, *(tree for tree, _ in children)), depth

    def or_expr(self) -> tuple:
        node = self.and_expr()
        while self.keyword("or"):
            node = self.node("or", node, self.and_expr())
        return node

    def and_expr(self) -> tuple:
        node = self.not_expr()
        while self.keyword("and"):
            node = self.node("and", node, self.not_expr())
        return node

    def not_expr(self) -> tuple:
        if self.keyword("not"):
            return self.node("not", self.nested(self.not_expr))
        return self.comparison()

    def comparison(self) -> tuple:
        if self.keyword("true"):
            return ("bool", True), 1
        if self.keyword("false"):
            return ("bool", False), 1
        if self.peek() == "(":
            # parenthesized boolean, e.g. "(x != 7 and x != 9)"
            save = self.pos
            self.pos += 1
            try:
                node = self.nested(self.or_expr)
                self.eat(")")
                return node
            except PredicateError:
                self.pos = save
        left = self.arith()
        self.skip_ws()
        for op in ("<=", ">=", "==", "!=", "<", ">", "="):
            if self.text.startswith(op, self.pos):
                self.pos += len(op)
                return self.node(op if op != "==" else "=", left, self.arith())
        self.error("expected a comparison operator")

    def arith(self) -> tuple:
        node = self.term()
        while self.peek() == "+":
            self.pos += 1
            node = self.node("+", node, self.term())
        return node

    def term(self) -> tuple:
        node = self.factor()
        while self.peek() == "*":
            self.pos += 1
            node = self.node("*", node, self.factor())
        return node

    def factor(self) -> tuple:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.nested(self.arith)
            self.eat(")")
            return node
        if ch.isdecimal():
            return ("num", self.numeral()), 1
        if self.keyword("x"):
            return ("var",), 1
        self.error("expected a numeral, 'x', or '('")


def _compile_tree(tree: tuple) -> Callable[[int], bool]:
    src = _tree_to_python(tree)
    return eval(f"lambda x: {src}", {"__builtins__": {}})


def _tree_to_python(tree: tuple) -> str:
    tag = tree[0]
    if tag == "bool":
        return "True" if tree[1] else "False"
    if tag == "num":
        return str(tree[1])
    if tag == "var":
        return "x"
    if tag == "not":
        return f"(not {_tree_to_python(tree[1])})"
    if tag in ("and", "or"):
        return f"({_tree_to_python(tree[1])} {tag} {_tree_to_python(tree[2])})"
    op = {"=": "=="}.get(tag, tag)
    return f"({_tree_to_python(tree[1])} {op} {_tree_to_python(tree[2])})"


def parse_predicate(text: str) -> PredicateExpr:
    parser = _PredicateParser(text, PredicateError)
    tree, _ = parser.or_expr()
    parser.end()
    return PredicateExpr(text.strip(), tree, _compile_tree(tree))


@dataclass(frozen=True)
class Presentation:
    """A decidable strict linear order on the naturals derived from a
    predicate; see the module docstring for the three-zone definition."""

    predicate: PredicateExpr
    description: str
    # (s, k): P holds on 0..s-1, and k is the least counterexample (then
    # s == k) or None.  Each stored pair is a true fact about a pure
    # predicate, swapped in whole, so a presentation may be shared.
    _scanned: tuple = field(default=(0, None), init=False, compare=False, repr=False)

    def least_counterexample(self, bound: int, recorder: list | None = None) -> Optional[int]:
        """First n <= bound with not P(n), scanning upward; never inspects
        the predicate above bound, nor at an argument an earlier call on
        this presentation already inspected.  ``recorder`` receives
        0..min(k, bound), the arguments the answer depends on, whether or
        not this call evaluated them."""
        if bound > MAX_FUEL:
            raise RangeError(f"bound {bound} exceeds the fuel cap {MAX_FUEL}")
        s, k = self._scanned
        if k is None and s <= bound:
            fn = self.predicate._fn
            for n in range(s, bound + 1):
                if not fn(n):
                    k = s = n
                    break
            else:
                s = bound + 1
            object.__setattr__(self, "_scanned", (s, k))
        if k is not None and k > bound:
            k = None
        if recorder is not None:
            recorder.extend(range(bound + 1 if k is None else k + 1))
        return k

    def less(self, a: int, b: int, recorder: list | None = None) -> bool:
        if a < 0 or b < 0:
            raise RangeError("the order is on natural numbers")
        k = self.least_counterexample(max(a, b), recorder)
        if k is None or (a < k and b < k):
            return a < b
        if (a < k) != (b < k):
            return a < k
        return a > b


def kreisel_presentation(predicate: PredicateExpr | str) -> Presentation:
    if isinstance(predicate, str):
        predicate = parse_predicate(predicate)
    return Presentation(predicate, f"order of omega gated on [{predicate.source}]")


def _check_fuel(fuel: int, window: int | None = None):
    if fuel > MAX_FUEL:
        raise RangeError(f"fuel {fuel} exceeds the cap {MAX_FUEL}")
    if window is not None and window > fuel:
        raise RangeError(f"window {window} exceeds the fuel cap {fuel}")


def check_ascending(p: Presentation, n: int, fuel: int = 10000) -> bool:
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
    within the window, of length min(fuel, what the window holds); None when
    the predicate has no counterexample at or below fuel."""
    _check_fuel(fuel)
    k = p.least_counterexample(fuel)
    if k is None:
        return None
    length = min(fuel, fuel - k + 1)
    return list(range(k, k + length))


@dataclass(frozen=True)
class AuditReport:
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


def audit(p: Presentation, n: int, fuel: int = 10000) -> AuditReport:
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
        counterexamples = 1 + sum(1 for i in range(k + 1, n + 1) if not p.predicate.evaluate(i))
        descents = n - k
    equivalent = (descents == 0) == (counterexamples == 0)
    return AuditReport(n, counterexamples, descents, equivalent)

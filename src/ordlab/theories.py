"""Symbolic theories built by iterated reflection over the bases EA+ and PA,
with Schmerl-style reduction to a single reflection level, Pi_n
proof-theoretic ordinals, progression-stage algebra, and the dilator that
measures iterated omega-model reflection.

The two core reductions are
  level drop:      (rfn n+1 a T)  ~>  (rfn n w^a T)   at level n,
  concatenation:   (rfn n a (rfn n b T))  ~>  (rfn n b+a T),
and they live in a declarative rules file so the rule set is inspectable and
extensible without code changes.  Mixed-level nestings the rules cannot reach
are routed through the worm assignment when they are worm-shaped (all
iteration counts 1); anything else is rejected rather than approximated.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache

from ._scan import LETTERS, TOKEN, Scanner, numeral_value, within_depth
from .errors import CatalogError, RangeError, ShapeError
from .ordinals import (
    EPSILON0,
    ONE,
    ZERO,
    Ordinal,
    add,
    format_ordinal,
    from_int,
    is_natural,
    mul_nat,
    next_phi_value,
    to_int,
    veblen,
    _Parser,
)
from .worms import Worm, worm_ordinal


class TheoryExpr:
    depth = 0
    """Reflections nested around the base theory: at most MAX_DEPTH, the
    nesting the theory grammar reads."""

    def __str__(self) -> str:
        return format_theory(self)


@dataclass(frozen=True)
class Base(TheoryExpr):
    name: str

    def __post_init__(self):
        if self.name not in ("EA+", "PA"):
            raise ShapeError(f"unknown base theory {self.name!r}")

    def __repr__(self) -> str:
        return f"Base({self.name!r})"


@dataclass(frozen=True)
class Reflect(TheoryExpr):
    """iterations-fold iteration of uniform Pi_level reflection over a theory."""

    level: int
    iterations: Ordinal
    over: TheoryExpr

    def __post_init__(self):
        if self.level < 1:
            raise ShapeError("reflection level must be >= 1")
        within_depth(self.level, "reflection level")
        if self.iterations.is_zero():
            raise ShapeError("reflection iterations must be > 0")
        object.__setattr__(self, "depth", within_depth(self.over.depth + 1, "theory nesting"))

    def __repr__(self) -> str:
        return f"Reflect({self.level}, {self.iterations!r}, {self.over!r})"


EA_PLUS = Base("EA+")
PA = Base("PA")

TRANSFORMS = ("level-drop-omega-power", "concatenation", "pa-con-product")


# ---------------------------------------------------------------------------
# Rule and catalog files

@dataclass(frozen=True)
class ReductionRule:
    name: str
    pattern: "Pattern"
    ordinal_transform: str
    citation: str


@dataclass(frozen=True)
class Pattern:
    """Shape over TheoryExpr: kind is 'base' (literal), 'theory-var', or
    'rfn' with a level spec ('lit', n) | ('var', v) | ('succ', v), an
    iteration variable, and a nested body pattern."""

    kind: str
    base: str = ""
    var: str = ""
    level: tuple = ()
    iter_var: str = ""
    body: "Pattern | None" = None


def parse_pattern(text: str) -> Pattern:
    scan = Scanner(text, CatalogError)
    pattern = _pattern(scan)
    if scan.peek():
        raise CatalogError(f"trailing tokens in pattern {text!r}")
    return pattern


def _token(scan: Scanner) -> str:
    scan.skip_ws()
    return scan.word(TOKEN)


def _pattern(scan: Scanner) -> Pattern:
    ch = scan.peek()
    if ch != "(":
        head = scan.word(TOKEN)
        if head in ("EA+", "PA"):
            return Pattern("base", base=head)
        if head.isalpha() and head.islower():
            return Pattern("theory-var", var=head)
        raise CatalogError(f"bad pattern token {head or ch!r}" if ch else "empty pattern")
    scan.pos += 1
    if _token(scan) != "rfn":
        raise CatalogError("only (rfn ...) patterns are supported")
    scan.skip_ws()
    level_tok = scan.word(TOKEN)
    if level_tok.isdecimal():
        level = ("lit", within_depth(numeral_value(level_tok), "reflection level"))
    elif level_tok.endswith("+1"):
        level = ("succ", level_tok[:-2])
    else:
        level = ("var", level_tok)
    iter_var = _token(scan)
    if not level_tok or not iter_var:
        raise CatalogError("an (rfn ...) pattern needs a level, an iteration variable and a body")
    body = scan.nested(_pattern, scan)
    if scan.peek() != ")":
        raise CatalogError("unbalanced pattern parentheses")
    scan.pos += 1
    return Pattern("rfn", level=level, iter_var=iter_var, body=body)


def pattern_matches(pattern: Pattern, expr: TheoryExpr, bindings: dict | None = None) -> bool:
    if bindings is None:
        bindings = {}
    if pattern.kind == "base":
        return isinstance(expr, Base) and expr.name == pattern.base
    if pattern.kind == "theory-var":
        seen = bindings.setdefault(("t", pattern.var), expr)
        return seen == expr
    if not isinstance(expr, Reflect):
        return False
    tag, value = pattern.level
    if tag == "lit":
        if expr.level != value:
            return False
    elif tag == "succ":
        if expr.level < 2:
            return False
        seen = bindings.setdefault(("n", value), expr.level - 1)
        if seen != expr.level - 1:
            return False
    else:
        seen = bindings.setdefault(("n", value), expr.level)
        if seen != expr.level:
            return False
    seen = bindings.setdefault(("a", pattern.iter_var), expr.iterations)
    if seen != expr.iterations:
        return False
    return pattern_matches(pattern.body, expr.over, bindings)


class RuleSet:
    def __init__(self, rules: list[ReductionRule]):
        self.rules = tuple(rules)
        self._by_transform: dict[str, list[ReductionRule]] = {}
        for rule in rules:
            self._by_transform.setdefault(rule.ordinal_transform, []).append(rule)

    def authorize(self, transform: str, shape: TheoryExpr) -> ReductionRule:
        for rule in self._by_transform.get(transform, ()):
            if pattern_matches(rule.pattern, shape):
                return rule
        raise ShapeError(f"no {transform} rule matches {format_theory(shape)}")

    def has(self, transform: str) -> bool:
        return transform in self._by_transform


def parse_rules(text: str) -> RuleSet:
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("rule "):
            raise CatalogError(f"rules line {lineno}: expected 'rule <name>: ...'")
        rest = line[len("rule "):]
        name, sep, rest = rest.partition(":")
        if not sep:
            raise CatalogError(f"rules line {lineno}: missing ':' after the rule name")
        pattern_text, sep, rest = rest.partition("=>")
        if not sep:
            raise CatalogError(f"rules line {lineno}: missing '=>'")
        transform, sep, citation = rest.partition("cite")
        transform = transform.strip()
        citation = citation.strip()
        if transform not in TRANSFORMS:
            raise CatalogError(f"rules line {lineno}: unknown transform {transform!r}")
        if not sep or not citation:
            raise CatalogError(f"rules line {lineno}: every rule needs a citation")
        pattern = parse_pattern(pattern_text.strip())
        rules.append(ReductionRule(name.strip(), pattern, transform, citation))
    return RuleSet(rules)


def parse_catalog(text: str) -> dict[str, TheoryExpr]:
    catalog: dict[str, TheoryExpr] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, expr_text = line.partition(" = ")
        if not sep:
            raise CatalogError(f"catalog line {lineno}: expected 'name = expression'")
        catalog[name.strip()] = parse_theory(expr_text.strip())
    return catalog


def _data_text(filename: str) -> str:
    return importlib.resources.files("ordlab.data").joinpath(filename).read_text("utf-8")


@lru_cache(maxsize=None)
def default_rules() -> RuleSet:
    return parse_rules(_data_text("rules.txt"))


@lru_cache(maxsize=None)
def default_catalog() -> dict[str, TheoryExpr]:
    return parse_catalog(_data_text("catalog.txt"))


def catalog_lookup(name: str, catalog: dict[str, TheoryExpr] | None = None) -> TheoryExpr:
    catalog = default_catalog() if catalog is None else catalog
    try:
        return catalog[name]
    except KeyError:
        raise CatalogError(f"unknown theory name {name!r}") from None


# ---------------------------------------------------------------------------
# Reduction and ordinals

class _LevelGap(Exception):
    """Inner reflection sits below the level the outer one needs."""


def reduce_to_level(t: TheoryExpr, k: int, rules: RuleSet | None = None) -> TheoryExpr:
    """Canonical form Reflect(k, gamma, EA+) of t (or EA+ itself when gamma
    would be 0), via level drops and concatenation; PA-based input reduces
    through the level-1 catalog rule."""
    rules = default_rules() if rules is None else rules
    if k < 1:
        raise ShapeError("reflection level must be >= 1")
    if _innermost_base(t) == PA:
        return _reduce_pa(t, k, rules)
    try:
        gamma = _reduce_ea(t, k, rules)
    except _LevelGap:
        letters = _worm_letters(t)
        if letters is None or k != 1:
            raise ShapeError(
                f"{format_theory(t)} is outside the supported shapes at level {k}"
            ) from None
        gamma = worm_ordinal(Worm(letters))
    if gamma.is_zero():
        return EA_PLUS
    return Reflect(k, gamma, EA_PLUS)


def _innermost_base(t: TheoryExpr) -> Base:
    while isinstance(t, Reflect):
        t = t.over
    return t


def _reduce_ea(t: TheoryExpr, k: int, rules: RuleSet) -> Ordinal:
    if isinstance(t, Base):
        return ZERO
    if t.level < k:
        raise _LevelGap()
    inner = _reduce_ea(t.over, t.level, rules)
    if inner.is_zero():
        gamma = t.iterations
    else:
        rules.authorize("concatenation", Reflect(t.level, t.iterations, Reflect(t.level, inner, EA_PLUS)))
        gamma = add(inner, t.iterations)
    for level in range(t.level, k, -1):
        rules.authorize("level-drop-omega-power", Reflect(level, gamma, EA_PLUS))
        gamma = veblen(ZERO, gamma)
    return gamma


def _worm_letters(t: TheoryExpr) -> tuple[int, ...] | None:
    letters = []
    while isinstance(t, Reflect):
        if t.iterations != ONE:
            return None
        letters.append(t.level - 1)
        t = t.over
    return tuple(letters) if t == EA_PLUS else None


def _reduce_pa(t: TheoryExpr, k: int, rules: RuleSet) -> TheoryExpr:
    if k != 1:
        raise ShapeError("PA-based expressions are analyzed at level 1 only")
    iterations = ZERO
    node = t
    while isinstance(node, Reflect):
        if node.level != 1:
            raise ShapeError("only level-1 reflection towers over PA are in the catalog")
        iterations = add(node.iterations, iterations)
        node = node.over
    if not is_natural(iterations):
        raise ShapeError("transfinite iteration over PA is outside the catalog")
    if isinstance(t, Reflect):
        rules.authorize("pa-con-product", Reflect(1, iterations, PA))
    elif not rules.has("pa-con-product"):
        raise ShapeError("no pa-con-product rule is loaded")
    return Reflect(1, mul_nat(EPSILON0, 1 + to_int(iterations)), EA_PLUS)


def pi_ordinal(t: TheoryExpr, k: int, rules: RuleSet | None = None) -> Ordinal:
    """Pi_k proof-theoretic ordinal: the number of level-k reflection
    iterations over EA+ that t reduces to."""
    reduced = reduce_to_level(t, k, rules)
    return ZERO if isinstance(reduced, Base) else reduced.iterations


def progression_stage(t: TheoryExpr, alpha: Ordinal) -> TheoryExpr:
    """The alpha-th consistency-progression stage over t; stages over a
    level-1 stage concatenate."""
    if alpha.is_zero():
        raise RangeError("progression stages start at 1")
    if isinstance(t, Reflect) and t.level == 1:
        return Reflect(1, add(t.iterations, alpha), t.over)
    return Reflect(1, alpha, t)


def omega_model_dilator(alpha: Ordinal | int, beta: Ordinal | int) -> Ordinal:
    """Value at beta of the dilator measuring alpha-fold omega-model
    reflection: the least value of phi_{1+alpha} strictly above beta."""
    if isinstance(alpha, int):
        alpha = from_int(alpha)
    return next_phi_value(add(ONE, alpha), beta)


# ---------------------------------------------------------------------------
# Text format (s-expressions)

def parse_theory(text: str) -> TheoryExpr:
    parser = _Parser(text)
    expr = _theory(parser)
    parser.end("trailing input after theory expression")
    return expr


def _theory(p: _Parser) -> TheoryExpr:
    """theory := base | "(rfn" level ord theory ")" | "(con" ord theory ")",
    with the iterations read by the ordinal grammar on the same scanner and
    the inner theory one nesting level down."""
    ch = p.peek()
    if not ch:
        p.error("expected a theory expression")
    if ch != "(":
        start = p.pos
        name = p.word(TOKEN)
        if name in ("EA+", "PA"):
            return Base(name)
        p.error(f"unknown theory name {name!r}", start)
    p.pos += 1
    start = p.pos
    head = p.word(LETTERS)
    if head == "rfn":
        if not p.peek().isdecimal():
            p.error("expected a reflection level")
        level = p.numeral()
    elif head == "con":
        level = 1
    else:
        p.error(f"expected 'rfn' or 'con', got {head!r}", start)
    iterations = p.sum()
    over = p.nested(_theory, p)
    if p.peek() != ")":
        p.error("expected ')'")
    if iterations.is_zero():
        p.error("reflection iterations must be > 0")
    if level < 1:
        p.error("reflection level must be >= 1")
    p.pos += 1
    return Reflect(level, iterations, over)


def format_theory(t: TheoryExpr) -> str:
    if isinstance(t, Base):
        return t.name
    inner = format_theory(t.over)
    iterations = format_ordinal(t.iterations)
    if t.level == 1:
        return f"(con {iterations} {inner})"
    return f"(rfn {t.level} {iterations} {inner})"

"""Symbolic theories built by iterated reflection over the bases EA+ and PA,
with Schmerl-style reduction to a single reflection level, Pi_n
proof-theoretic ordinals, progression-stage algebra, and the dilator that
measures iterated omega-model reflection.

The reduction has four transforms:
  level drop:      (rfn n+1 a T)  ~>  (rfn n w^a T)   at level n,
  concatenation:   (rfn n a (rfn n b T))  ~>  (rfn n b+a T),
  pa-con-product:  (rfn 1 a PA), or PA for a = 0  ~>  (rfn 1 e0*(1+a) EA+), a finite,
  worm route:      a worm-shaped theory (every iteration count 1) at level 1
                   ~>  (rfn 1 o(w) EA+), o(w) the ordinal of its worm w.
A step, or a progression stage over a level-1 stage, asks default_rules() for
its rule by transform alone; the shapes above only describe the transforms.
Mixed-level nestings no transform reaches are rejected, not approximated.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from types import MappingProxyType

from ._scan import NAME, TOKEN, within_depth
from ._value import Value, set_field
from .errors import CatalogError, RangeError, ShapeError
from .ordinals import (
    EPSILON0,
    ONE,
    ZERO,
    Ordinal,
    add,
    format_ordinal,
    is_natural,
    mul_nat,
    next_phi_value,
    to_int,
    veblen,
    _Parser,
)
from .worms import _worm, worm_ordinal


class TheoryExpr(Value):
    __slots__ = ()
    depth = 0
    """Reflections nested around the base theory: at most MAX_DEPTH, the
    nesting the theory grammar reads."""

    def __str__(self) -> str:
        return format_theory(self)


class Base(TheoryExpr):
    __slots__ = __match_args__ = ("name",)
    name: str

    def __init__(self, name: str):
        if name not in ("EA+", "PA"):
            raise ShapeError(f"unknown base theory {name!r}")
        set_field(self, "name", name)

    def __repr__(self) -> str:
        return f"Base({self.name!r})"


class Reflect(TheoryExpr):
    """iterations-fold iteration of uniform Pi_level reflection over a theory."""

    __slots__ = ("level", "iterations", "over", "depth")
    __match_args__ = ("level", "iterations", "over")
    level: int
    iterations: Ordinal
    over: TheoryExpr

    def __init__(self, level: int, iterations: Ordinal, over: TheoryExpr):
        level = operator.index(level)
        if level < 1:
            raise ShapeError("reflection level must be >= 1")
        within_depth(level, "reflection level")
        if iterations.is_zero():
            raise ShapeError("reflection iterations must be > 0")
        set_field(self, "depth", within_depth(over.depth + 1, "theory nesting"))
        set_field(self, "level", level)
        set_field(self, "iterations", iterations)
        set_field(self, "over", over)

    def __repr__(self) -> str:
        return f"Reflect({self.level}, {self.iterations!r}, {self.over!r})"


# The unchecked maker, for theory_of_worm, which has proved the length and
# the top level under the cap: it skips __init__ and writes the slots
# through their descriptors.
_set_level, _set_iterations = Reflect.level.__set__, Reflect.iterations.__set__
_set_over, _set_depth = Reflect.over.__set__, Reflect.depth.__set__


def _worm_theory(letters: tuple[int, ...]) -> TheoryExpr:
    """The chain of single reflections over EA+ for the worm ``letters``,
    made in one loop: the letter n becomes Reflect(n + 1, 1, ...), leftmost
    letter outermost."""
    expr, new = EA_PLUS, object.__new__
    for depth, letter in enumerate(reversed(letters), 1):
        t = new(Reflect)
        _set_level(t, letter + 1)
        _set_iterations(t, ONE)
        _set_over(t, expr)
        _set_depth(t, depth)
        expr = t
    return expr


EA_PLUS = Base("EA+")
PA = Base("PA")

TRANSFORMS = ("level-drop-omega-power", "concatenation", "pa-con-product", "worm-route")


# ---------------------------------------------------------------------------
# The rule set and the theory catalog

class ReductionRule(Value):
    __slots__ = __match_args__ = ("name", "ordinal_transform", "citation")
    name: str
    ordinal_transform: str
    citation: str


class RuleSet(Value):
    """Exactly one rule per transform: the rule that licenses, and cites,
    every step of that transform, in a reduction or a progression stage."""

    __slots__ = __match_args__ = ("rules",)
    rules: tuple[ReductionRule, ...]

    def __init__(self, rules: list[ReductionRule]):
        rules = tuple(rules)
        for transform in TRANSFORMS:
            count = [rule.ordinal_transform for rule in rules].count(transform)
            if count != 1:
                raise CatalogError(f"a rule set needs exactly one {transform} rule, not {count}")
        set_field(self, "rules", rules)

    def authorize(self, transform: str) -> ReductionRule:
        """The rule that licenses a step of this transform."""
        for rule in self.rules:
            if rule.ordinal_transform == transform:
                return rule
        raise KeyError(transform)


@lru_cache(maxsize=None)
def default_rules() -> RuleSet:
    """The one rule set: every step of a reduction or a progression stage
    asks it for the rule of its transform."""
    return RuleSet([
        ReductionRule("level-drop", "level-drop-omega-power",
                      "Schmerl-style conservation: one step of Pi_{n+1} reflection"
                      " trades for omega^alpha steps at Pi_n"),
        ReductionRule("stage-concat", "concatenation",
                      "composition of consistency progressions: the alpha-th stage"
                      " over the beta-th stage is stage beta+alpha"),
        ReductionRule("pa-con-product", "pa-con-product",
                      "classical level-1 analysis: PA plus n-fold iterated consistency"
                      " sits at e0*(1+n) over EA+"),
        ReductionRule("worm-route", "worm-route",
                      "Beklemishev, Provability algebras and proof-theoretic ordinals I"
                      " (APAL 2004): a worm-shaped theory is measured at level 1 by the"
                      " ordinal of its worm"),
    ])


@lru_cache(maxsize=None)
def default_catalog() -> MappingProxyType[str, TheoryExpr]:
    """The named theories, in the order `ordlab theory catalog` lists them."""
    return MappingProxyType({name: parse_theory(text) for name, text in (
        ("EA+", "EA+"),
        ("PA", "PA"),
        ("Con(EA+)", "(con 1 EA+)"),
        ("1Con(EA+)", "(rfn 2 1 EA+)"),
        ("2Con(EA+)", "(rfn 3 1 EA+)"),
        ("PA+Con(PA)", "(con 1 PA)"),
        ("PA+Con^2(PA)", "(con 2 PA)"),
    )})


def catalog_lookup(name: str) -> TheoryExpr:
    try:
        return default_catalog()[name]
    except KeyError:
        raise CatalogError(f"unknown theory name {name!r}") from None


# ---------------------------------------------------------------------------
# Reduction and ordinals

def reduce_to_level(t: TheoryExpr, k: int) -> TheoryExpr:
    """Canonical form Reflect(k, gamma, EA+) of t, gamma = pi_ordinal(t, k)
    (EA+ itself when gamma is 0)."""
    gamma = pi_ordinal(t, k)
    return EA_PLUS if gamma.is_zero() else Reflect(k, gamma, EA_PLUS)


def pi_ordinal(t: TheoryExpr, k: int) -> Ordinal:
    """Pi_k proof-theoretic ordinal: the gamma with t equivalent to
    Reflect(k, gamma, EA+), reached by level drops and concatenation, the worm
    route at a level gap, or pa-con-product for PA-based input; each step is
    authorized by the rule default_rules() gives its transform.

    One walk down t decides the route: it reads the base, whether some
    reflection sits below the level the one around it needs (a gap), and
    whether every iteration count is 1."""
    if k < 1:
        raise ShapeError("reflection level must be >= 1")
    chain = []  # the reflections, from the outermost inward
    need, gap, ones = k, False, True
    base = t
    while isinstance(base, Reflect):
        chain.append(base)
        if base.level < need:
            gap = True
        if base.iterations is not ONE and ones and base.iterations != ONE:
            ones = False
        need = base.level
        base = base.over
    if base == PA:
        return _reduce_pa(chain, k)
    if not gap:
        return _reduce_ea(chain, k)
    # A level gap the rules cannot bridge: a worm-shaped theory is measured
    # at level 1 by its worm (Beklemishev 2004).  Each level was checked
    # when its Reflect was made, so the worm is made unchecked.
    if k != 1 or not ones:
        raise ShapeError(f"{format_theory(t)} is outside the supported shapes at level {k}")
    default_rules().authorize("worm-route")
    return worm_ordinal(_worm(tuple([r.level - 1 for r in chain])))


def _reduce_ea(chain: list[Reflect], k: int) -> Ordinal:
    """gamma with a gap-free chain over EA+ equivalent to Reflect(k, gamma,
    EA+): innermost first, each reflection concatenates onto the gamma of
    the chain below it, then drops to the level the one around it needs."""
    gamma = ZERO
    for i in range(len(chain) - 1, -1, -1):
        r = chain[i]
        if gamma.is_zero():
            gamma = r.iterations
        else:
            default_rules().authorize("concatenation")
            gamma = add(gamma, r.iterations)
        for _ in range(r.level - (chain[i - 1].level if i else k)):
            default_rules().authorize("level-drop-omega-power")
            gamma = veblen(ZERO, gamma)
    return gamma


def _reduce_pa(chain: list[Reflect], k: int) -> Ordinal:
    if k != 1:
        raise ShapeError("PA-based expressions are analyzed at level 1 only")
    total = ZERO
    for r in chain:
        if r.level != 1:
            raise ShapeError("only level-1 reflection towers over PA are in the catalog")
        total = add(r.iterations, total)
    if not is_natural(total):
        raise ShapeError("transfinite iteration over PA is outside the catalog")
    default_rules().authorize("pa-con-product")
    return mul_nat(EPSILON0, 1 + to_int(total))


def progression_stage(t: TheoryExpr, alpha: Ordinal) -> TheoryExpr:
    """The alpha-th consistency-progression stage over t; stages over a
    level-1 stage concatenate."""
    if alpha.is_zero():
        raise RangeError("progression stages start at 1")
    if isinstance(t, Reflect) and t.level == 1:
        default_rules().authorize("concatenation")
        return Reflect(1, add(t.iterations, alpha), t.over)
    return Reflect(1, alpha, t)


def omega_model_dilator(alpha: Ordinal | int, beta: Ordinal | int) -> Ordinal:
    """Value at beta of the dilator measuring alpha-fold omega-model
    reflection: the least value of phi_{1+alpha} strictly above beta."""
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
    head = p.word(NAME)
    if head == "rfn":
        if not p.peek().isdecimal():
            p.error("expected a reflection level")
        level = p.numeral()
    elif head == "con":
        level = 1
    else:
        p.error(f"expected 'rfn' or 'con', got {head!r}", start)
    iterations = p.sum()
    p.down()
    over = _theory(p)
    p.depth -= 1
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

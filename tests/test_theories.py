import itertools
import random

import pytest

from ordlab import theories
from ordlab._scan import MAX_DEPTH, MAX_WIDTH
from ordlab._value import set_field
from ordlab.errors import CatalogError, ParseError, RangeError, ShapeError
from ordlab.ordinals import (
    EPSILON0,
    ONE,
    OMEGA,
    ZERO,
    add,
    compare,
    enumerate_terms,
    from_int,
    in_phi_range,
    is_natural,
    mul_nat,
    parse_ordinal,
    to_int,
    veblen,
)
from ordlab.theories import (
    EA_PLUS,
    PA,
    TRANSFORMS,
    Base,
    Reflect,
    RuleSet,
    catalog_lookup,
    default_rules,
    format_theory,
    omega_model_dilator,
    parse_theory,
    pi_ordinal,
    progression_stage,
    reduce_to_level,
)
from ordlab.worms import Worm, worm_ordinal


# --- reduction --------------------------------------------------------------------

def test_level_drop_single_step():
    assert reduce_to_level(Reflect(2, ONE, EA_PLUS), 1) == Reflect(1, OMEGA, EA_PLUS)


def test_reduce_identity_at_level():
    t = Reflect(1, parse_ordinal("w^2+3"), EA_PLUS)
    assert reduce_to_level(t, 1) == t


def test_level_drop_two_iterations():
    assert reduce_to_level(Reflect(2, from_int(2), EA_PLUS), 1) == Reflect(
        1, parse_ordinal("w^2"), EA_PLUS
    )


def test_reduce_nested_and_double_drop():
    t = parse_theory("(con 2 (rfn 2 w EA+))")
    assert reduce_to_level(t, 1) == Reflect(1, parse_ordinal("w^w+2"), EA_PLUS)
    t2 = parse_theory("(rfn 3 1 EA+)")
    assert reduce_to_level(t2, 1) == Reflect(1, parse_ordinal("w^w"), EA_PLUS)


def test_reduce_base_is_base():
    assert reduce_to_level(EA_PLUS, 1) == EA_PLUS
    assert pi_ordinal(EA_PLUS, 3) == ZERO


def test_reduction_confluence_small():
    iteration_pool = [ONE, from_int(2), OMEGA, parse_ordinal("w+1")]
    for levels in itertools.product((1, 2, 3), repeat=2):
        for iters in itertools.product(iteration_pool, repeat=2):
            t = Reflect(levels[0], iters[0], Reflect(levels[1], iters[1], EA_PLUS))
            for m in (1, 2, 3):
                for k in range(1, m + 1):
                    try:
                        via_m = reduce_to_level(reduce_to_level(t, m), k)
                    except ShapeError:
                        continue
                    assert via_m == reduce_to_level(t, k)


def test_unsupported_shapes_error():
    with pytest.raises(ShapeError):
        reduce_to_level(parse_theory("(rfn 2 2 (con 1 EA+))"), 1)
    with pytest.raises(ShapeError):
        reduce_to_level(parse_theory("(con 1 EA+)"), 2)
    with pytest.raises(ShapeError):
        reduce_to_level(EA_PLUS, 0)


def test_worm_shaped_mixed_levels_reduce_at_level_one():
    t = parse_theory("(rfn 2 1 (con 1 EA+))")
    assert pi_ordinal(t, 1) == worm_ordinal(Worm((1, 0)))


# --- reference reduction ------------------------------------------------------------
# The recursive form of the reduction: one call per nesting level, a level
# gap raised up to the top, and the worm route read off the theory after it.

class _RefLevelGap(Exception):
    pass


def _ref_reduce_to_level(t, k, rules):
    if k < 1:
        raise ShapeError("reflection level must be >= 1")
    base = t
    while isinstance(base, Reflect):
        base = base.over
    if base == PA:
        return _ref_reduce_pa(t, k, rules)
    try:
        gamma = _ref_reduce_ea(t, k, rules)
    except _RefLevelGap:
        letters = _ref_worm_letters(t)
        if letters is None or k != 1:
            raise ShapeError(
                f"{format_theory(t)} is outside the supported shapes at level {k}"
            ) from None
        rules.authorize("worm-route")
        gamma = rules.worm_ordinal(Worm(letters))
    if gamma.is_zero():
        return EA_PLUS
    return Reflect(k, gamma, EA_PLUS)


def _ref_reduce_ea(t, k, rules):
    if isinstance(t, Base):
        return ZERO
    if t.level < k:
        raise _RefLevelGap()
    inner = _ref_reduce_ea(t.over, t.level, rules)
    if inner.is_zero():
        gamma = t.iterations
    else:
        rules.authorize("concatenation")
        gamma = rules.add(inner, t.iterations)
    for _ in range(t.level, k, -1):
        rules.authorize("level-drop-omega-power")
        gamma = rules.veblen(ZERO, gamma)
    return gamma


def _ref_worm_letters(t):
    letters = []
    while isinstance(t, Reflect):
        if t.iterations != ONE:
            return None
        letters.append(t.level - 1)
        t = t.over
    return tuple(letters) if t == EA_PLUS else None


def _ref_reduce_pa(t, k, rules):
    if k != 1:
        raise ShapeError("PA-based expressions are analyzed at level 1 only")
    iterations = ZERO
    node = t
    while isinstance(node, Reflect):
        if node.level != 1:
            raise ShapeError("only level-1 reflection towers over PA are in the catalog")
        iterations = rules.add(node.iterations, iterations)
        node = node.over
    if not is_natural(iterations):
        raise ShapeError("transfinite iteration over PA is outside the catalog")
    rules.authorize("pa-con-product")
    return Reflect(1, mul_nat(EPSILON0, 1 + to_int(iterations)), EA_PLUS)


class _LoggedRules(RuleSet):
    """The default rules, logging each authorize call by its transform.  Its
    add, veblen and worm_ordinal log each call, as (name, operands...), into
    the same log, so a licensed step is logged with the operation after it."""

    def __init__(self, log):
        super().__init__(list(default_rules().rules))
        set_field(self, "log", log)
        for fn in (add, veblen, worm_ordinal):
            set_field(self, fn.__name__, self._logged(fn))

    def _logged(self, fn):
        def logged(*args):
            self.log.append((fn.__name__, *map(repr, args)))
            return fn(*args)
        return logged

    def authorize(self, transform):
        self.log.append(transform)
        return super().authorize(transform)


_REF_ITERATIONS = [ONE] * 8 + [
    from_int(2), from_int(3), OMEGA, parse_ordinal("w+1"), parse_ordinal("w^2"),
    EPSILON0, from_int(MAX_WIDTH), mul_nat(OMEGA, MAX_WIDTH),
]


def _random_chain(rng):
    levels = [rng.choice((1, 2, 3, 4, 5)) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.5:
        levels.sort()  # non-decreasing inward: the rules route
    if levels and rng.random() < 0.01:
        levels[-1] = MAX_DEPTH
    t = PA if rng.random() < 0.25 else EA_PLUS
    for level in reversed(levels):
        iterations = rng.choice(_REF_ITERATIONS)
        t = Reflect(1 if t == PA and rng.random() < 0.8 else level, iterations, t)
    return t, rng.choice((0, 1, 1, 1, 2, 3, 4, 5))


def _outcome(reduce, t, k):
    try:
        return ("ok", reduce(t, k))
    except (ShapeError, RangeError) as exc:
        return (type(exc).__name__, str(exc))


def test_reduction_matches_the_recursive_reference(monkeypatch):
    rng = random.Random(20041)
    ref_log, log = [], []
    ref_rules, rules = _LoggedRules(ref_log), _LoggedRules(log)
    monkeypatch.setattr(theories, "default_rules", lambda: rules)
    for name in ("add", "veblen", "worm_ordinal"):
        monkeypatch.setattr(theories, name, getattr(rules, name))
    seen = set()
    for _ in range(6000):
        t, k = _random_chain(rng)
        ref_log.clear()
        log.clear()
        expected = _outcome(lambda t, k: _ref_reduce_to_level(t, k, ref_rules), t, k)
        assert _outcome(reduce_to_level, t, k) == expected, (format_theory(t), k)
        assert log == ref_log, (format_theory(t), k)
        transforms = [entry for entry in log if entry in TRANSFORMS]
        seen.add("worm" if "worm-route" in transforms else "rules" if transforms else expected[0])
    # Both routes, answers no rule was needed for, and both error kinds.
    assert seen == {"worm", "rules", "ok", "ShapeError", "RangeError"}


# --- pi ordinals ---------------------------------------------------------------------

def test_pa_values():
    assert pi_ordinal(PA, 1) == EPSILON0
    assert pi_ordinal(Reflect(1, ONE, PA), 1) == mul_nat(EPSILON0, 2)
    assert pi_ordinal(Reflect(1, from_int(3), PA), 1) == mul_nat(EPSILON0, 4)
    assert pi_ordinal(Reflect(1, ONE, Reflect(1, ONE, PA)), 1) == mul_nat(EPSILON0, 3)


def test_pa_errors():
    with pytest.raises(ShapeError):
        pi_ordinal(PA, 2)
    with pytest.raises(ShapeError):
        pi_ordinal(Reflect(1, OMEGA, PA), 1)
    with pytest.raises(ShapeError):
        pi_ordinal(Reflect(2, ONE, PA), 1)


def test_pi_ordinal_definitional_on_level_one():
    for alpha in (ONE, OMEGA, parse_ordinal("w^w+w*2")):
        assert pi_ordinal(Reflect(1, alpha, EA_PLUS), 1) == alpha


def test_pi_ordinal_monotone_sampled():
    pool = [t for t in enumerate_terms(4) if not t.is_zero()]
    for n in (1, 2, 3):
        for a in pool[:15]:
            for b in pool[:15]:
                if compare(a, b) < 0:
                    pa = pi_ordinal(Reflect(n, a, EA_PLUS), 1)
                    pb = pi_ordinal(Reflect(n, b, EA_PLUS), 1)
                    assert compare(pa, pb) < 0


# --- progression stages -----------------------------------------------------------------

def test_progression_stage_cases():
    assert progression_stage(EA_PLUS, ONE) == Reflect(1, ONE, EA_PLUS)
    assert progression_stage(PA, OMEGA) == Reflect(1, OMEGA, PA)
    t = Reflect(1, parse_ordinal("w"), EA_PLUS)
    assert progression_stage(t, from_int(2)) == Reflect(1, parse_ordinal("w+2"), EA_PLUS)
    with pytest.raises(RangeError):
        progression_stage(EA_PLUS, ZERO)


def test_progression_law_sampled():
    pool = [t for t in enumerate_terms(3) if not t.is_zero()]
    for beta in pool:
        for alpha in pool:
            staged = progression_stage(Reflect(1, beta, EA_PLUS), alpha)
            assert pi_ordinal(staged, 1) == add(beta, alpha)


# --- dilator ----------------------------------------------------------------------------

def test_dilator_values():
    assert omega_model_dilator(ZERO, ZERO) == EPSILON0
    assert omega_model_dilator(ZERO, EPSILON0) == parse_ordinal("phi(1,1)")
    assert omega_model_dilator(OMEGA, ZERO) == parse_ordinal("phi(w,0)")


def test_dilator_outputs_are_phi_values_and_chain_increases():
    for alpha in (ZERO, ONE, OMEGA):
        beta = ZERO
        seen = []
        for _ in range(30):
            value = omega_model_dilator(alpha, beta)
            assert in_phi_range(add(ONE, alpha), value)
            assert compare(value, beta) > 0
            seen.append(value)
            beta = value
        for u, v in zip(seen, seen[1:]):
            assert compare(u, v) < 0


# --- catalog and rules --------------------------------------------------------------------

def test_catalog_entries():
    assert catalog_lookup("PA") == PA
    assert catalog_lookup("EA+") == EA_PLUS
    assert catalog_lookup("PA+Con(PA)") == Reflect(1, ONE, PA)
    assert catalog_lookup("1Con(EA+)") == Reflect(2, ONE, EA_PLUS)
    with pytest.raises(CatalogError):
        catalog_lookup("ZFC")


def test_every_rule_has_citation_and_known_transform():
    rules = default_rules()
    assert [(rule.name, rule.ordinal_transform, rule.citation) for rule in rules.rules] == [
        ("level-drop", "level-drop-omega-power",
         "Schmerl-style conservation: one step of Pi_{n+1} reflection trades for omega^alpha steps at Pi_n"),
        ("stage-concat", "concatenation",
         "composition of consistency progressions: the alpha-th stage over the beta-th stage is stage beta+alpha"),
        ("pa-con-product", "pa-con-product",
         "classical level-1 analysis: PA plus n-fold iterated consistency sits at e0*(1+n) over EA+"),
        ("worm-route", "worm-route",
         "Beklemishev, Provability algebras and proof-theoretic ordinals I (APAL 2004): a worm-shaped "
         "theory is measured at level 1 by the ordinal of its worm"),
    ]
    # Exactly one rule for each transform: a second could never fire.
    assert sorted(rule.ordinal_transform for rule in rules.rules) == sorted(TRANSFORMS)
    for transform in TRANSFORMS:
        assert rules.authorize(transform).ordinal_transform == transform
    with pytest.raises(KeyError):
        rules.authorize("nope")


def test_rule_set_names_each_transform_once():
    rules = list(default_rules().rules)
    with pytest.raises(CatalogError, match="exactly one level-drop-omega-power rule, not 0"):
        RuleSet([])
    for i, rule in enumerate(rules):
        with pytest.raises(CatalogError, match=f"exactly one {rule.ordinal_transform} rule, not 0"):
            RuleSet(rules[:i] + rules[i + 1:])
        with pytest.raises(CatalogError, match=f"exactly one {rule.ordinal_transform} rule, not 2"):
            RuleSet(rules + [rule])


def test_rule_set_is_read_only():
    # Each write puts back what is there, so a rule set that takes it stays whole.
    rules = default_rules()
    before = rules.rules
    with pytest.raises(AttributeError):
        rules.rules = before
    with pytest.raises(AttributeError):
        del rules.rules
    assert default_rules() is rules and rules.rules is before
    assert rules.authorize("concatenation").ordinal_transform == "concatenation"
    assert reduce_to_level(parse_theory("(con 1 (rfn 2 1 EA+))"), 1) == Reflect(
        1, add(OMEGA, ONE), EA_PLUS)


def test_every_route_asks_its_rule(monkeypatch):
    log = []
    monkeypatch.setattr(theories, "default_rules", lambda: _LoggedRules(log))
    for t, calls in [
        (PA, ["pa-con-product"]),
        (Reflect(1, from_int(2), PA), ["pa-con-product"]),
        (parse_theory("(con 1 (rfn 3 1 (con 1 EA+)))"), ["worm-route"]),
        (parse_theory("(con 1 (rfn 2 1 EA+))"), ["level-drop-omega-power", "concatenation"]),
    ]:
        log.clear()
        reduce_to_level(t, 1)
        assert log == calls
    # A stage over a level-1 stage concatenates; any other stage is new.
    for t, calls in [(Reflect(1, OMEGA, EA_PLUS), ["concatenation"]), (EA_PLUS, [])]:
        log.clear()
        progression_stage(t, ONE)
        assert log == calls


def test_rules_route_constructs_only_its_answer(monkeypatch):
    t = EA_PLUS
    for level in (3,) * 8 + (2,) * 8 + (1,) * 8:
        t = Reflect(level, OMEGA if level == 2 else ONE, t)
    built = []
    init = Reflect.__init__
    monkeypatch.setattr(Reflect, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    answer = reduce_to_level(t, 1)
    assert built == [answer]
    assert isinstance(answer, Reflect) and answer.level == 1


# --- text format ------------------------------------------------------------------------

@pytest.mark.parametrize("text, expected", [
    ("EA+", EA_PLUS),
    ("PA", PA),
    ("(con 1 EA+)", Reflect(1, ONE, EA_PLUS)),
    ("(rfn 2 w EA+)", Reflect(2, OMEGA, EA_PLUS)),
    ("(rfn 1 w+1 PA)", Reflect(1, add(OMEGA, ONE), PA)),
    ("(con 2 (rfn 3 1 EA+))", Reflect(1, from_int(2), Reflect(3, ONE, EA_PLUS))),
    # Any whitespace ends a base name, as it separates tokens everywhere else.
    ("(con 1 EA+\r)", Reflect(1, ONE, EA_PLUS)),
])
def test_parse_theory(text, expected):
    assert parse_theory(text) == expected


def test_theory_format_round_trip():
    for text in ("EA+", "PA", "(con w EA+)", "(rfn 2 1 (con 3 PA))", "(rfn 3 e0+1 EA+)"):
        assert format_theory(parse_theory(text)) == text
    assert repr(PA) == "Base('PA')"
    assert repr(parse_theory("(rfn 2 w EA+)")) == "Reflect(2, Ordinal('w'), Base('EA+'))"


@pytest.mark.parametrize("text", [
    "ZFC", "(rfn EA+)", "(con 0 EA+)", "(rfn 0 1 EA+)", "(con 1 EA+) junk", "(foo 1 EA+)",
    "(rfn3 1 EA+)", "(con1 EA+)",
])
def test_parse_theory_errors(text):
    with pytest.raises(ParseError):
        parse_theory(text)


def test_depth_cap_on_levels_and_nesting():
    assert Reflect(MAX_DEPTH, ONE, EA_PLUS).level == MAX_DEPTH
    nested = "(con 1 " * MAX_DEPTH + "EA+" + ")" * MAX_DEPTH
    assert pi_ordinal(parse_theory(nested), 1) == from_int(MAX_DEPTH)
    for make in (lambda: Reflect(MAX_DEPTH + 1, ONE, EA_PLUS),
                 lambda: parse_theory(f"(rfn {MAX_DEPTH + 1} 1 EA+)"),
                 lambda: parse_theory("(con 1 " + nested + ")")):
        with pytest.raises(RangeError):
            make()


def test_theories_nest_at_most_to_the_depth_cap():
    tower = parse_theory("(rfn 2 1 " * (MAX_DEPTH - 1) + "EA+" + ")" * (MAX_DEPTH - 1))
    stage = progression_stage(tower, ONE)
    assert stage.depth == MAX_DEPTH
    assert parse_theory(format_theory(stage)) == stage
    assert progression_stage(stage, OMEGA).depth == MAX_DEPTH  # concatenates
    with pytest.raises(RangeError, match="theory nesting"):
        progression_stage(Reflect(2, ONE, tower), ONE)
    # Hand-built chains meet the same cap as parsed ones.
    t = EA_PLUS
    for _ in range(MAX_DEPTH):
        t = Reflect(2, ONE, t)
    with pytest.raises(RangeError, match="theory nesting"):
        Reflect(2, ONE, t)


def test_base_validation():
    with pytest.raises(ShapeError):
        Base("ZFC")
    with pytest.raises(ShapeError):
        Reflect(0, ONE, EA_PLUS)
    with pytest.raises(ShapeError):
        Reflect(1, ZERO, EA_PLUS)

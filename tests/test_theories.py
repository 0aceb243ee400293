import itertools

import pytest

from ordlab._scan import MAX_DEPTH
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
    mul_nat,
    parse_ordinal,
    veblen,
)
from ordlab.theories import (
    EA_PLUS,
    PA,
    Base,
    Reflect,
    catalog_lookup,
    default_catalog,
    default_rules,
    format_theory,
    omega_model_dilator,
    parse_pattern,
    parse_rules,
    parse_theory,
    pattern_matches,
    pi_ordinal,
    progression_stage,
    reduce_to_level,
)
from ordlab.worms import Worm, theory_of_worm, worm_ordinal


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


def test_worm_coherence_exhaustive():
    for n in range(5):
        for letters in itertools.product((0, 1, 2), repeat=n):
            w = Worm(letters)
            assert pi_ordinal(theory_of_worm(w), 1) == worm_ordinal(w)


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
    assert len(rules.rules) >= 3
    for rule in rules.rules:
        assert rule.citation
        assert rule.ordinal_transform in (
            "level-drop-omega-power", "concatenation", "pa-con-product",
        )


def test_rule_file_rejects_bad_lines():
    with pytest.raises(CatalogError):
        parse_rules("rule broken: (rfn n a t) => mystery-transform cite somewhere")
    with pytest.raises(CatalogError):
        parse_rules("rule broken: (rfn n a t) => concatenation")
    with pytest.raises(CatalogError):
        parse_rules("this is not a rule line")
    with pytest.raises(CatalogError):
        parse_rules("rule x: (rfn => concatenation cite y")
    for short in ("(rfn", "(rfn 1", "(rfn n a", "(rfn n a t", ")", ""):
        with pytest.raises(CatalogError):
            parse_pattern(short)


def test_reduction_requires_rules():
    empty = parse_rules("")
    with pytest.raises(ShapeError):
        reduce_to_level(Reflect(2, ONE, EA_PLUS), 1, rules=empty)
    with pytest.raises(ShapeError):
        reduce_to_level(PA, 1, rules=empty)


def test_pattern_matching():
    drop_pat = parse_pattern("(rfn n+1 a t)")
    assert pattern_matches(drop_pat, Reflect(2, ONE, EA_PLUS))
    assert not pattern_matches(drop_pat, Reflect(1, ONE, EA_PLUS))
    concat = parse_pattern("(rfn n a (rfn n b t))")
    assert pattern_matches(concat, Reflect(2, ONE, Reflect(2, OMEGA, EA_PLUS)))
    assert not pattern_matches(concat, Reflect(2, ONE, Reflect(1, OMEGA, EA_PLUS)))
    # Only a numeral is a level literal; any other token is a level variable.
    assert parse_pattern("(rfn ² a t)").level == ("var", "²")
    assert parse_pattern("(rfn 2x a t)").level == ("var", "2x")
    with pytest.raises(RangeError):
        parse_pattern("(rfn 99999999999 a t)")
    pa_pat = parse_pattern("(rfn 1 a PA)")
    assert pattern_matches(pa_pat, Reflect(1, from_int(2), PA))
    assert not pattern_matches(pa_pat, Reflect(1, from_int(2), EA_PLUS))


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


@pytest.mark.parametrize("text", [
    "ZFC", "(rfn EA+)", "(con 0 EA+)", "(rfn 0 1 EA+)", "(con 1 EA+) junk", "(foo 1 EA+)",
])
def test_parse_theory_errors(text):
    with pytest.raises(ParseError):
        parse_theory(text)


def test_depth_cap_on_levels_and_nesting():
    assert Reflect(MAX_DEPTH, ONE, EA_PLUS).level == MAX_DEPTH
    nested = "(con 1 " * MAX_DEPTH + "EA+" + ")" * MAX_DEPTH
    assert pi_ordinal(parse_theory(nested), 1) == from_int(MAX_DEPTH)
    pattern = "(rfn n a " * MAX_DEPTH + "t" + ")" * MAX_DEPTH
    assert parse_pattern(pattern).level == ("var", "n")
    assert parse_pattern(f"(rfn {MAX_DEPTH} a t)").level == ("lit", MAX_DEPTH)
    for make in (lambda: Reflect(MAX_DEPTH + 1, ONE, EA_PLUS),
                 lambda: parse_theory(f"(rfn {MAX_DEPTH + 1} 1 EA+)"),
                 lambda: parse_theory("(con 1 " + nested + ")"),
                 lambda: parse_pattern("(rfn n a " + pattern + ")"),
                 lambda: parse_pattern(f"(rfn {MAX_DEPTH + 1} a t)")):
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

import random

import pytest

from conftest import PHI, PSI
from ordlab.errors import CaptureError, RangeError
from ordlab.formulas import (
    TOP,
    And,
    ConAtom,
    Defined,
    Equals,
    Exists,
    ForAll,
    Hole,
    Implies,
    Leq,
    Not,
    Num,
    Or,
    TheoryRef,
    Var,
    con_star_equation,
    free_vars,
    pretty,
    rosser_combination,
    slowcon,
    sv,
    sv_star,
)


def test_constar_avoids_bound_name_collision():
    text = con_star_equation("β", "T")
    assert "∀γ" in text
    # The bound variable cannot capture the theory name either, in either mode.
    assert con_star_equation("α", "β") == "PA ⊢ Con★(α,β) ↔ ∀γ ≺ α Con(β+⌜Con★(γ,β)⌝)"
    assert con_star_equation("a", "beta", ascii_mode=True) == (
        "PA |- Con*(a,beta) <-> forall gamma < a Con(beta+[Con*(gamma,beta)])"
    )
    assert "∀δ" in con_star_equation("β", "gamma")
    with pytest.raises(RangeError):
        con_star_equation("", "T")


# --- shapes ---------------------------------------------------------------------

def test_slowcon_shape():
    f = slowcon(PHI)
    assert isinstance(f, ForAll) and f.var == "x"
    assert isinstance(f.body, Implies)
    assert f.body.left == Defined("F_e0", Var("x"))
    con = f.body.right
    assert isinstance(con, ConAtom) and con.power == 1
    assert con.theory == TheoryRef("ISigma", index=Var("x"), added=PHI)


def test_slowcon_top_omits_added_component():
    con = slowcon(TOP).body.right
    assert con.theory.added is None


def test_sv_shape():
    f = sv(PHI)
    assert isinstance(f, And) and f.left is PHI
    inner = f.right.body
    assert isinstance(inner.left, ConAtom) and inner.left.power == 1
    assert isinstance(inner.right, ConAtom) and inner.right.power == 2


def test_sv_star_shape():
    f = sv_star(PHI, PSI)
    assert isinstance(f, Or) and f.left is PHI
    assert isinstance(f.right, And) and f.right.right is PSI
    assert f.right.left.left == And(Not(PHI), PSI)  # sv receives ¬φ∧ψ
    assert f.right.left == sv(And(Not(PHI), PSI))


def test_rosser_keeps_shape_unsimplified():
    f = rosser_combination(PHI, PSI, TOP)
    assert f == Or(PHI, And(PSI, TOP))


def test_constructions_closed_except_holes():
    for f in (slowcon(PHI), sv(PHI), sv_star(PHI, PSI), slowcon(TOP)):
        assert free_vars(f) == frozenset()


# --- pretty -----------------------------------------------------------------------

def test_precedence_rendering():
    a, b, c = Hole("a"), Hole("b"), Hole("c")
    assert pretty(And(a, Or(b, c))) == "a ∧ (b ∨ c)"
    assert pretty(Or(a, And(b, c))) == "a ∨ (b ∧ c)"
    assert pretty(Implies(a, Implies(b, c))) == "a → b → c"
    assert pretty(Implies(Implies(a, b), c)) == "(a → b) → c"
    assert pretty(And(And(a, b), c)) == "a ∧ b ∧ c"
    assert pretty(And(a, And(b, c))) == "a ∧ (b ∧ c)"
    assert pretty(Not(And(a, b))) == "¬(a ∧ b)"
    assert pretty(Not(a)) == "¬a"


def test_power_rendering():
    ref = TheoryRef("PA")
    assert pretty(ConAtom(ref)) == "Con(PA)"
    assert pretty(ConAtom(ref, power=2)) == "Con²(PA)"
    assert pretty(ConAtom(ref, power=12)) == "Con¹²(PA)"
    assert pretty(ConAtom(ref, power=3), ascii_mode=True) == "Con^3(PA)"
    assert pretty(ConAtom(ref, power=12), ascii_mode=True) == "Con^12(PA)"
    with pytest.raises(RangeError):
        ConAtom(ref, power=0)


def test_equation_renders_and_str_is_pretty():
    equation = Equals(Var("y"), Num(3))
    assert pretty(equation) == pretty(equation, ascii_mode=True) == "y = 3"
    for not_a_formula in (Var("y"), And(PHI, Var("y"))):
        with pytest.raises(TypeError, match="not a formula"):
            pretty(not_a_formula)
    template = slowcon(PHI)
    assert str(template) == pretty(template)


def test_ascii_mode_is_ascii():
    # Every name is transliterated, not only hole names, and a character
    # without an ASCII name is escaped.
    f = ForAll("α", Implies(Leq(Var("α"), Var("β")), Hole("φ")))
    assert pretty(f) == "∀α(α ≤ β → φ)"
    assert pretty(f, ascii_mode=True) == "forall alpha (alpha <= beta -> phi)"
    assert pretty(Exists("ξ", Defined("F_e0", Var("ξ"))), ascii_mode=True) == "exists xi (F_e0(xi)|)"
    assert pretty(ForAll("x₁", Hole("χ")), ascii_mode=True) == "forall x\\u2081 (\\u03c7)"
    rng = random.Random(14)
    for _ in range(300):
        assert pretty(_named_formula(rng, 4), ascii_mode=True).isascii()
    # A binder is spaced from its body whatever its variable's name; the
    # bounded quantifier of the Con★ equation has no body in parentheses.
    assert pretty(ForAll("x", PHI), ascii_mode=True) == "forall x (phi)"
    assert pretty(ForAll("x'", PHI), ascii_mode=True) == "forall x' (phi)"
    assert "forall beta < alpha Con(T+" in con_star_equation("α", "T", ascii_mode=True)


def test_determinism():
    renders = {(pretty(sv_star(PHI, PSI)), con_star_equation("α", "T")) for _ in range(3)}
    assert len(renders) == 1


# --- capture --------------------------------------------------------------------------

NAMES = ("φ", "χ", "x₁", "ω", "α", "x'", "y")


def _named_formula(rng, depth):
    """A formula of every node type, its names drawn from NAMES."""
    def term():
        return Var(rng.choice(NAMES)) if rng.random() < 0.5 else Num(rng.randint(0, 20))
    if depth == 0 or rng.random() < 0.3:
        hole = Hole(rng.choice(NAMES))
        added = rng.choice([None, hole, Or(hole, Leq(term(), term()))])
        return rng.choice([
            hole, TOP, Equals(term(), term()), Leq(term(), term()),
            Defined("F_" + rng.choice(NAMES), term()),
            ConAtom(TheoryRef(rng.choice(NAMES), term(), added), rng.randint(1, 12)),
        ])
    kind = rng.choice([And, Or, Implies, Not, ForAll, Exists])
    if kind is Not:
        return Not(_named_formula(rng, depth - 1))
    if kind in (ForAll, Exists):
        return kind(rng.choice(NAMES), _named_formula(rng, depth - 1))
    return kind(_named_formula(rng, depth - 1), _named_formula(rng, depth - 1))


def test_capture_is_rejected():
    open_x = Equals(Var("x"), Num(1))
    with pytest.raises(CaptureError):
        slowcon(open_x)
    with pytest.raises(CaptureError):
        sv(open_x)
    with pytest.raises(CaptureError):
        sv_star(PHI, open_x)
    with pytest.raises(TypeError, match="not a formula"):
        free_vars(Var("x"))


def test_fresh_binder_with_respect_to_inputs():
    ok = Equals(Var("y"), Num(1))
    f = slowcon(ok)
    assert free_vars(f) == {"y"}

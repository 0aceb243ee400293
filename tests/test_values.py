"""The contract of ordlab's 25 immutable value classes: equality and hash
over the fields, only within one class; today's repr; assignment and
deletion refused; no instance __dict__; keyword construction and defaults;
the checks each constructor makes; copies, pickles and class patterns."""

import copy
import pickle

import pytest

from ordlab import formulas, notation, ordinals, theories, worms
from ordlab._scan import MAX_DEPTH
from ordlab._value import Value
from ordlab.errors import RangeError, ShapeError, WormError
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
    Verum,
)
from ordlab.notation import AuditReport, PredicateExpr, Presentation, parse_predicate
from ordlab.ordinals import EPSILON0, ONE, ZERO, Ordinal, VeblenAtom
from ordlab.theories import EA_PLUS, PA, TRANSFORMS, Base, Reflect, ReductionRule, RuleSet
from ordlab.worms import Worm

X, Y = Var("x"), Var("y")
REF = TheoryRef("PA")
SEVEN = "x != 7"
RULES = [ReductionRule("r", transform, "c") for transform in TRANSFORMS]

# Per class: a factory of fresh, equal instances; an instance of the same
# class that differs in one field (None for Verum, which has none); the
# factory's repr.
CASES = {
    Var: (lambda: Var("x"), Y, "Var(name='x')"),
    Num: (lambda: Num(3), Num(4), "Num(value=3)"),
    Verum: (Verum, None, "Verum()"),
    Equals: (lambda: Equals(X, Num(0)), Equals(X, Num(1)),
             "Equals(left=Var(name='x'), right=Num(value=0))"),
    Leq: (lambda: Leq(X, Num(0)), Leq(Y, Num(0)), "Leq(left=Var(name='x'), right=Num(value=0))"),
    Defined: (lambda: Defined("F_e0", X), Defined("F_e0", Y),
              "Defined(function='F_e0', argument=Var(name='x'))"),
    TheoryRef: (lambda: TheoryRef("ISigma", X, TOP), TheoryRef("ISigma", X, None),
                "TheoryRef(base='ISigma', index=Var(name='x'), added=Verum())"),
    ConAtom: (lambda: ConAtom(REF, 2), ConAtom(REF),
              "ConAtom(theory=TheoryRef(base='PA', index=None, added=None), power=2)"),
    Not: (lambda: Not(TOP), Not(Hole("A")), "Not(body=Verum())"),
    And: (lambda: And(TOP, Hole("A")), And(Hole("A"), Hole("A")),
          "And(left=Verum(), right=Hole(name='A'))"),
    Or: (lambda: Or(TOP, Hole("A")), Or(TOP, TOP), "Or(left=Verum(), right=Hole(name='A'))"),
    Implies: (lambda: Implies(TOP, Hole("A")), Implies(TOP, Hole("B")),
              "Implies(left=Verum(), right=Hole(name='A'))"),
    ForAll: (lambda: ForAll("x", TOP), ForAll("y", TOP), "ForAll(var='x', body=Verum())"),
    Exists: (lambda: Exists("x", TOP), Exists("x", Hole("A")), "Exists(var='x', body=Verum())"),
    Hole: (lambda: Hole("A"), Hole("B"), "Hole(name='A')"),
    PredicateExpr: (lambda: parse_predicate(SEVEN), parse_predicate("x != 8"),
                    "PredicateExpr(source='x != 7', tree=('!=', ('var',), ('num', 7)))"),
    Presentation: (lambda: Presentation(parse_predicate(SEVEN)),
                   Presentation(parse_predicate("x != 8")),
                   "Presentation(predicate=PredicateExpr(source='x != 7', "
                   "tree=('!=', ('var',), ('num', 7))))"),
    AuditReport: (lambda: AuditReport(10, 3, 3, True), AuditReport(10, 3, 3, False),
                  "AuditReport(window=10, counterexamples=3, descents=3, equivalent=True)"),
    Base: (lambda: Base("EA+"), PA, "Base('EA+')"),
    Reflect: (lambda: Reflect(2, EPSILON0, PA), Reflect(2, EPSILON0, EA_PLUS),
              "Reflect(2, Ordinal('e0'), Base('PA'))"),
    ReductionRule: (lambda: ReductionRule("r", "concatenation", "Schmerl 1979"),
                    ReductionRule("r", "worm-route", "Schmerl 1979"),
                    "ReductionRule(name='r', ordinal_transform='concatenation', "
                    "citation='Schmerl 1979')"),
    RuleSet: (lambda: RuleSet(RULES), RuleSet(RULES[::-1]),
              "RuleSet(rules=(ReductionRule(name='r', "
              "ordinal_transform='level-drop-omega-power', citation='c'), "
              "ReductionRule(name='r', ordinal_transform='concatenation', citation='c'), "
              "ReductionRule(name='r', ordinal_transform='pa-con-product', citation='c'), "
              "ReductionRule(name='r', ordinal_transform='worm-route', citation='c')))"),
    Ordinal: (lambda: Ordinal(EPSILON0.parts), ONE, "Ordinal('e0')"),
    VeblenAtom: (lambda: VeblenAtom(ZERO, ZERO), VeblenAtom(ZERO, ONE),
                 "VeblenAtom(index=Ordinal('0'), arg=Ordinal('0'))"),
    Worm: (lambda: Worm((1, 0, 1)), Worm((1, 0)), "Worm('1 0 1')"),
}

# The fields that == and hash compare: the constructor's whose names do not
# start with "_", so not PredicateExpr's compiled predicate, which follows
# from the other two.
FIELDS = {cls: tuple(f for f in cls.__match_args__ if not f.startswith("_")) for cls in CASES}

MODULES = (formulas, notation, ordinals, theories, worms)
VALUE_CLASSES = {cls for module in MODULES for cls in vars(module).values()
                 if isinstance(cls, type) and issubclass(cls, Value)} - {Value}


def test_every_value_class_is_covered():
    found = VALUE_CLASSES - {formulas.Formula, theories.TheoryExpr}
    assert found == set(CASES) and len(CASES) == 25


def test_only_the_ordinal_core_writes_out_equality():
    written = {cls for cls in VALUE_CLASSES if {"__eq__", "__hash__"} & vars(cls).keys()}
    assert written == {Ordinal, VeblenAtom}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_follow_the_fields(cls):
    make, differs, golden = CASES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in FIELDS[cls]))
    if differs is not None:
        assert a != differs and differs != a
    assert a != object() and a != golden
    assert repr(a) == golden


@pytest.mark.parametrize("a, b", [
    (And(X, Y), Or(X, Y)),
    (And(X, Y), Implies(X, Y)),
    (Equals(X, Y), Leq(X, Y)),
    (ForAll("x", TOP), Exists("x", TOP)),
    (Hole("x"), Var("x")),
    (Base("PA"), Hole("PA")),
    (Worm(()), Ordinal(())),
])
def test_equal_fields_in_another_class_are_not_equal(a, b):
    assert a != b and b != a
    assert {a: 1} != {b: 1}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_are_refused(cls):
    value = CASES[cls][0]()
    for name in (*cls.__match_args__, "depth", "_scanned", "other"):
        before = getattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert repr(value) == CASES[cls][2]


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_copies_and_rebuilds_are_equal_values(cls):
    value = CASES[cls][0]()
    assert copy.copy(value) == value == copy.deepcopy(value)
    assert cls(*(getattr(value, name) for name in cls.__match_args__)) == value
    if cls not in (PredicateExpr, Presentation):  # a compiled scanner does not pickle
        assert pickle.loads(pickle.dumps(value)) == value


def test_keyword_construction_and_defaults():
    assert TheoryRef("PA") == TheoryRef(base="PA", index=None, added=None) == REF
    assert TheoryRef("ISigma", added=TOP).index is None
    assert ConAtom(REF).power == 1
    assert ConAtom(REF, power=2) == ConAtom(theory=REF, power=2) == ConAtom(REF, 2)
    assert Worm() == Worm(()) == Worm(letters=())
    assert Ordinal() == ZERO == Ordinal(parts=())
    assert VeblenAtom(index=ZERO, arg=ZERO) == VeblenAtom(ZERO, ZERO)
    assert And(left=X, right=Y) == And(X, right=Y) == And(X, Y)
    assert Verum() == TOP
    assert Base(name="PA") == PA
    assert Reflect(level=1, iterations=ONE, over=PA) == Reflect(1, ONE, PA)
    assert AuditReport(window=1, counterexamples=0, descents=0, equivalent=True).window == 1
    predicate = parse_predicate(SEVEN)
    assert Presentation(predicate=predicate) == Presentation(predicate)
    assert PredicateExpr(source=SEVEN, tree=predicate.tree,
                         _counterexamples=predicate._counterexamples) == predicate


@pytest.mark.parametrize("call", [
    lambda: And(X),
    lambda: And(X, Y, X),
    lambda: And(X, left=Y),
    lambda: And(X, Y, right=Y),
    lambda: And(X, other=Y),
    lambda: Verum(X),
    lambda: Verum(name="x"),
    lambda: Var(),
    lambda: TheoryRef(),
    lambda: ConAtom(REF, 1, 2),
    lambda: Ordinal((), ()),
    lambda: Presentation(parse_predicate(SEVEN), (0, None)),
    lambda: Presentation(parse_predicate(SEVEN), _scanned=(0, None)),
    lambda: PredicateExpr(SEVEN),
])
def test_constructors_refuse_wrong_arguments(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: Reflect(0, ONE, PA), ShapeError),
    (lambda: Reflect(MAX_DEPTH + 1, ONE, PA), RangeError),
    (lambda: Reflect(1, ZERO, PA), ShapeError),
    (lambda: Base("ZFC"), ShapeError),
    (lambda: Worm((1, -1)), WormError),
    (lambda: Worm((MAX_DEPTH + 1,)), RangeError),
    (lambda: ConAtom(REF, 0), RangeError),
    (lambda: ConAtom(REF, power=-1), RangeError),
])
def test_constructor_checks(call, error):
    with pytest.raises(error):
        call()


def test_worm_keeps_a_tuple_of_its_letters():
    letters = [1, 0]
    worm = Worm(letters)
    letters.append(500)
    assert worm == Worm((1, 0)) and hash(worm) == hash(Worm((1, 0)))
    assert Worm(iter([1, 0])) == worm and str(Worm(iter([1, 0]))) == "1 0"
    assert Worm((1, 0)).letters == (1, 0)


# The naturals from_int and mul_nat take, worm letters, lift amounts and
# reflection levels are ints: a bool counts as 0 or 1, and a float is refused rather than printed.
def test_integer_fields_are_ints():
    assert str(ordinals.from_int(True)) == "1" and ordinals.from_int(True) == ONE
    assert ordinals.mul_nat(ordinals.OMEGA, True) == ordinals.OMEGA
    assert worms.lift(Worm((1, 0)), True) == Worm((2, 1))
    assert str(Worm((True, 0))) == "1 0" and Worm((True, 0)) == Worm((1, 0))
    assert str(Reflect(True, ONE, EA_PLUS)) == str(Reflect(1, ONE, EA_PLUS))
    for call in (lambda: ordinals.mul_nat(ordinals.OMEGA, 2.0),
                 lambda: worms.lift(Worm((1, 0)), 1.5),
                 lambda: Worm((1.5, 0)),
                 lambda: Reflect(2.0, ONE, EA_PLUS),
                 lambda: ordinals.from_int(2.0)):
        with pytest.raises(TypeError):
            call()


def test_hidden_fields_stay_out_of_equality_hash_and_repr():
    predicate = parse_predicate(SEVEN)
    other_scanner = PredicateExpr(SEVEN, predicate.tree, parse_predicate("x != 8")._counterexamples)
    assert other_scanner == predicate and hash(other_scanner) == hash(predicate)
    assert repr(other_scanner) == repr(predicate)
    scanned, fresh = Presentation(predicate), Presentation(predicate)
    assert scanned.least_counterexample(20) == 7
    assert scanned._scanned != fresh._scanned
    assert scanned == fresh and hash(scanned) == hash(fresh) and repr(scanned) == repr(fresh)
    assert copy.copy(scanned).least_counterexample(20) == 7


def test_class_patterns_bind_the_fields_in_order():
    match Implies(Equals(X, Num(1)), ConAtom(REF, 2)):
        case Implies(Equals(Var(name), Num(value)), ConAtom(TheoryRef(base), power)):
            assert (name, value, base, power) == ("x", 1, "PA", 2)
        case _:
            pytest.fail("no match")
    match Reflect(3, ONE, PA):
        case Reflect(level, iterations, Base(name)):
            assert (level, iterations, name) == (3, ONE, "PA")
        case _:
            pytest.fail("no match")

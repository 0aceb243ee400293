"""First-order arithmetic formula ASTs for the explicit constructions around
slow consistency and the Shavrukov--Visser density operator.

Formulas are plain immutable trees.  Con is an uninterpreted atom over a
theory reference (optionally with an attached formula and an iteration
power), not an arithmetized provability predicate, and F_e0 enters only
through a definedness atom; nothing here searches for proofs.  A Hole is a
schematic sentence, a placeholder that a template is built over.

Rendering supports UTF-8 and a pure-ASCII mode; both are deterministic.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from ._value import Value
from .errors import CaptureError, RangeError

# ---------------------------------------------------------------------------
# Terms


class Var(Value):
    __slots__ = __match_args__ = ("name",)
    name: str


class Num(Value):
    __slots__ = __match_args__ = ("value",)
    value: int


Term = Union[Var, Num]


# ---------------------------------------------------------------------------
# Formulas


class Formula(Value):
    __slots__ = ()

    def __str__(self) -> str:
        return pretty(self)


class Verum(Formula):
    __slots__ = __match_args__ = ()


class Equals(Formula):
    __slots__ = __match_args__ = ("left", "right")
    left: Term
    right: Term


class Leq(Formula):
    __slots__ = __match_args__ = ("left", "right")
    left: Term
    right: Term


class Defined(Formula):
    """function(argument) halts -- the downward-arrow atom."""

    __slots__ = __match_args__ = ("function", "argument")
    function: str
    argument: Term


class TheoryRef(Value):
    """A named theory, optionally indexed (ISigma_x) and optionally extended
    by a formula (ISigma_x + phi)."""

    __slots__ = __match_args__ = ("base", "index", "added")
    base: str
    index: Optional[Term]
    added: Optional[Formula]

    def __init__(self, base: str, index: Optional[Term] = None, added: Optional[Formula] = None):
        super().__init__(base, index, added)


class ConAtom(Formula):
    __slots__ = __match_args__ = ("theory", "power")
    theory: TheoryRef
    power: int

    def __init__(self, theory: TheoryRef, power: int = 1):
        if power < 1:
            raise RangeError("consistency power must be >= 1")
        super().__init__(theory, power)


class Not(Formula):
    __slots__ = __match_args__ = ("body",)
    body: Formula


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")
    left: Formula
    right: Formula


class Or(Formula):
    __slots__ = __match_args__ = ("left", "right")
    left: Formula
    right: Formula


class Implies(Formula):
    __slots__ = __match_args__ = ("left", "right")
    left: Formula
    right: Formula


class ForAll(Formula):
    __slots__ = __match_args__ = ("var", "body")
    var: str
    body: Formula


class Exists(Formula):
    __slots__ = __match_args__ = ("var", "body")
    var: str
    body: Formula


class Hole(Formula):
    """Schematic placeholder for a sentence."""

    __slots__ = __match_args__ = ("name",)
    name: str


TOP = Verum()


def free_vars(f: Formula) -> frozenset[str]:
    return _free(f, frozenset())


def _term_vars(t: Optional[Term]) -> frozenset[str]:
    return frozenset((t.name,)) if isinstance(t, Var) else frozenset()


def _free(f: Formula, bound: frozenset[str]) -> frozenset[str]:
    if isinstance(f, (Verum, Hole)):
        return frozenset()
    if isinstance(f, (Equals, Leq)):
        return (_term_vars(f.left) | _term_vars(f.right)) - bound
    if isinstance(f, Defined):
        return _term_vars(f.argument) - bound
    if isinstance(f, ConAtom):
        out = _term_vars(f.theory.index) - bound
        if f.theory.added is not None:
            out |= _free(f.theory.added, bound)
        return out
    if isinstance(f, Not):
        return _free(f.body, bound)
    if isinstance(f, (And, Or, Implies)):
        return _free(f.left, bound) | _free(f.right, bound)
    if isinstance(f, (ForAll, Exists)):
        return _free(f.body, bound | {f.var})
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Constructions

_TEMPLATE_VAR = "x"


def _check_template_input(f: Formula, construction: str):
    if _TEMPLATE_VAR in free_vars(f):
        raise CaptureError(
            f"{construction} binds {_TEMPLATE_VAR!r}, which occurs free in its input"
        )


def _isigma(added: Formula) -> TheoryRef:
    return TheoryRef("ISigma", Var(_TEMPLATE_VAR), None if isinstance(added, Verum) else added)


def slowcon(phi: Formula) -> Formula:
    """forall x (F_e0(x) halts -> Con(ISigma_x + phi)); the "+ phi" part is
    omitted for verum, giving the slow consistency of PA itself."""
    _check_template_input(phi, "slowcon")
    return ForAll(
        _TEMPLATE_VAR,
        Implies(Defined("F_e0", Var(_TEMPLATE_VAR)), ConAtom(_isigma(phi))),
    )


def sv(phi: Formula) -> Formula:
    """phi and forall x (Con(ISigma_x + phi) -> Con^2(ISigma_x + phi))."""
    _check_template_input(phi, "sv")
    ref = _isigma(phi)
    return And(
        phi,
        ForAll(_TEMPLATE_VAR, Implies(ConAtom(ref), ConAtom(ref, power=2))),
    )


def sv_star(phi: Formula, psi: Formula) -> Formula:
    """phi or (SV(not phi and psi) and psi), with the SV part expanded."""
    _check_template_input(phi, "sv_star")
    _check_template_input(psi, "sv_star")
    return Or(phi, And(sv(And(Not(phi), psi)), psi))


def rosser_combination(phi: Formula, psi: Formula, theta: Formula) -> Formula:
    """phi or (psi and theta) -- the Rosser-style interpolant shape; no
    simplification is performed, the shape is kept as-is."""
    return Or(phi, And(psi, theta))


_BOUND_CHOICES = ("β", "γ", "δ", "ξ")


def con_star_equation(alpha_name: str, theory_name: str, ascii_mode: bool = False) -> str:
    """The fixed-point equation defining iterated consistency along an
    ordering, with the given ordinal and theory names; a documentation
    artifact with no attached semantics."""
    if not alpha_name or not theory_name:
        raise RangeError("con_star_equation needs nonempty names")
    # The bound variable differs from both names in either rendering.
    taken = {name.translate(_ASCII) for name in (alpha_name, theory_name)}
    bound = next(b for b in _BOUND_CHOICES if b.translate(_ASCII) not in taken)
    a, t = alpha_name, theory_name
    text = (
        f"PA ⊢ Con★({a},{t}) ↔ ∀{bound} ≺ {a} Con({t}+⌜Con★({bound},{t})⌝)"
    )
    return _transliterate(text) if ascii_mode else text


# ---------------------------------------------------------------------------
# Rendering
#
# A binary operand -- of a connective, of ¬, or added to a theory -- is
# parenthesized unless it continues a same-connective chain on that
# connective's conventional side: ∧ and ∨ chain to the left, → to the right.
# Precedence never drops parentheses: a ∨ (b ∧ c).  A quantifier's body is
# always delimited.

_CONNECTIVES = {And: "∧", Or: "∨", Implies: "→"}
_RELATIONS = {Equals: "=", Leq: "≤"}

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")

_ASCII = str.maketrans({
    "φ": "phi", "ψ": "psi", "θ": "theta", "α": "alpha", "β": "beta",
    "γ": "gamma", "δ": "delta", "ξ": "xi",
    "↓": "|", "→": "->", "↔": "<->", "∧": "and", "∨": "or", "¬": "not ",
    "⊤": "top", "⊢": "|-", "≺": "<", "⌜": "[", "⌝": "]", "★": "*", "≤": "<=",
    "∀": "forall ", "∃": "exists ", **dict(zip("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")),
})

# ASCII mode also writes a power as "^n", spaces a binder from its body, and
# escapes what the table leaves non-ASCII: "Con²" becomes "Con^2", "∀x'("
# becomes "forall x' (" and "ω" becomes "\u03c9".
_ASCII_POWER = re.compile("[⁰¹²³⁴⁵⁶⁷⁸⁹]+")
_ASCII_BINDER = re.compile(r"([∀∃][^\s(]+)\(")


def _transliterate(text: str) -> str:
    text = _ASCII_BINDER.sub(r"\1 (", _ASCII_POWER.sub(r"^\g<0>", text))
    return text.translate(_ASCII).encode("ascii", "backslashreplace").decode("ascii")


def _term_text(t: Term) -> str:
    return t.name if isinstance(t, Var) else str(t.value)


def pretty(f: Formula, ascii_mode: bool = False) -> str:
    """UTF-8 text of ``f``; in ASCII mode that text transliterated."""
    text = _render(f)
    return _transliterate(text) if ascii_mode else text


def _render(f: Formula) -> str:
    if isinstance(f, Verum):
        return "⊤"
    if isinstance(f, Hole):
        return f.name
    if isinstance(f, (Equals, Leq)):
        return f"{_term_text(f.left)} {_RELATIONS[type(f)]} {_term_text(f.right)}"
    if isinstance(f, Defined):
        return f"{f.function}({_term_text(f.argument)})↓"
    if isinstance(f, ConAtom):
        head = "Con" if f.power == 1 else "Con" + str(f.power).translate(_SUPERSCRIPTS)
        return f"{head}({_theory_text(f.theory)})"
    if isinstance(f, Not):
        return "¬" + _operand(f.body)
    if isinstance(f, (And, Or, Implies)):
        op = type(f)
        left = _operand(f.left, bare=op is not Implies and type(f.left) is op)
        right = _operand(f.right, bare=op is Implies and type(f.right) is op)
        return f"{left} {_CONNECTIVES[op]} {right}"
    if isinstance(f, (ForAll, Exists)):
        quant = "∀" if isinstance(f, ForAll) else "∃"
        return f"{quant}{f.var}({_render(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


def _operand(f: Formula, bare: bool = False) -> str:
    text = _render(f)
    return f"({text})" if type(f) in _CONNECTIVES and not bare else text


def _theory_text(ref: TheoryRef) -> str:
    text = ref.base
    if ref.index is not None:
        text += f"_{_term_text(ref.index)}"
    if ref.added is not None:
        text += f" + {_operand(ref.added)}"
    return text

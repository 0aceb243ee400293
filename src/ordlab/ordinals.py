"""Ordinals below Gamma_0 in Veblen normal form.

A term is a finite non-increasing sum of atoms phi(a, b), each denoting the
value of the a-th Veblen function at b (phi_0(b) = w^b, phi_{a+1} enumerates
the fixed points of phi_a).  Equal adjacent atoms are stored run-length
encoded as (atom, count) pairs, so the natural number n is the single pair
(phi(0,0), n).  The module's functions and its parser build canonical terms
only, and on canonical terms structural equality coincides with ordinal
equality, so ``==`` and ``hash`` are meaningful there.  The ``Ordinal`` and
``VeblenAtom`` constructors themselves check nothing: a term built by hand
can be non-canonical, and then ``==`` can disagree with ``compare``
(``Ordinal(((VeblenAtom(ZERO, EPSILON0), 1),))`` prints ``w^e0`` and compares
EQ to ``EPSILON0``, yet ``==`` says they differ).

Canonicity of an atom phi(a, b) requires that b is not itself a single atom
phi(c, d) with c > a: such a b is a fixed point of phi_a and the atom would
denote b.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cmp_to_key, total_ordering

from ._scan import MAX_WIDTH, NAME, Scanner
from ._value import Value, set_field
from .errors import RangeError

LT, EQ, GT = -1, 0, 1

MAX_ENUM_SIZE = 8
"""Largest size enumerate_terms lists.  On a shared 2-CPU x86-64 machine
under CPython 3.11, size 8 (10409 terms) takes about 0.3 s, size 9 (44320)
about 1.1 s and size 10 (192593 terms, 90 MB) about 6 s."""


class VeblenAtom(Value):
    """One phi(index, arg) building block of a normal form."""

    __slots__ = __match_args__ = ("index", "arg")
    index: "Ordinal"
    arg: "Ordinal"

    def __init__(self, index: "Ordinal", arg: "Ordinal"):
        set_field(self, "index", index)
        set_field(self, "arg", arg)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.index, self.arg) == (other.index, other.arg)

    def __hash__(self) -> int:
        return hash((self.index, self.arg))


@total_ordering
class Ordinal(Value):
    """Canonical Veblen normal form: ((atom, count), ...) with atoms strictly
    decreasing and counts >= 1.  The empty tuple is zero."""

    __slots__ = __match_args__ = ("parts",)
    parts: tuple[tuple[VeblenAtom, int], ...]

    def __init__(self, parts: tuple[tuple[VeblenAtom, int], ...] = ()):
        set_field(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash((self.parts,))

    def is_zero(self) -> bool:
        return not self.parts

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"

    def __lt__(self, other: "Ordinal") -> bool:
        return _cmp(self, _coerce(other)) < 0


ZERO = Ordinal()
_ATOM_ONE = VeblenAtom(ZERO, ZERO)


def from_int(n: int) -> Ordinal:
    """The finite ordinal n, stored as n copies of phi(0,0)."""
    if n < 0:
        raise RangeError("ordinals cannot be negative")
    if n > MAX_WIDTH:
        raise RangeError(f"numeral {n} exceeds the natural-number width {MAX_WIDTH}")
    if n == 0:
        return ZERO
    return Ordinal(((_ATOM_ONE, n),))


ONE = from_int(1)


def _coerce(x: Ordinal | int) -> Ordinal:
    return from_int(x) if isinstance(x, int) else x


def is_natural(x: Ordinal) -> bool:
    return not x.parts or (len(x.parts) == 1 and x.parts[0][0] == _ATOM_ONE)


def to_int(x: Ordinal) -> int:
    if not is_natural(x):
        raise RangeError(f"{x} is not a natural number")
    return x.parts[0][1] if x.parts else 0


def single_atom(x: Ordinal) -> VeblenAtom | None:
    """The atom of x when x is exactly one atom taken once, else None."""
    if len(x.parts) == 1 and x.parts[0][1] == 1:
        return x.parts[0][0]
    return None


def atom_term(atom: VeblenAtom) -> Ordinal:
    return Ordinal(((atom, 1),))


# The public functions coerce their arguments once and then work on canonical
# terms only, through _cmp and its helpers, which never build a term.

def compare(x: Ordinal | int, y: Ordinal | int) -> int:
    """Trichotomous order on canonical terms: LT (-1), EQ (0), or GT (1).

    Sums compare lexicographically by atom then run length; runs of a larger
    atom dominate any tail of strictly smaller ones.
    """
    return _cmp(_coerce(x), _coerce(y))


def _cmp(x: Ordinal, y: Ordinal) -> int:
    if x is y:
        return EQ
    for (ax, nx), (ay, ny) in zip(x.parts, y.parts):
        if ax is not ay:
            c = _compare_atoms(ax, ay)
            if c:
                return c
        if nx != ny:
            return LT if nx < ny else GT
    if len(x.parts) == len(y.parts):
        return EQ
    return LT if len(x.parts) < len(y.parts) else GT


def _compare_atoms(a: VeblenAtom, b: VeblenAtom) -> int:
    ci = _cmp(a.index, b.index)
    if ci == EQ:
        return _cmp(a.arg, b.arg)
    # Unequal indices: phi(a1,b1) < phi(a2,b2) with a1 < a2 iff b1 < phi(a2,b2);
    # equality of b1 with the whole atom cannot occur in normal form.
    if ci == LT:
        return _cmp_term_atom(a.arg, b)
    return -_cmp_term_atom(b.arg, a)


def _cmp_term_atom(x: Ordinal, atom: VeblenAtom) -> int:
    """_cmp(x, atom_term(atom)), without building the term."""
    if not x.parts:
        return LT
    lead, count = x.parts[0]
    c = EQ if lead is atom else _compare_atoms(lead, atom)
    if c:
        return c
    return EQ if count == 1 and len(x.parts) == 1 else GT


def add(x: Ordinal | int, y: Ordinal | int) -> Ordinal:
    """Ordinal sum: the suffix of x strictly below y's leading atom is absorbed."""
    x, y = _coerce(x), _coerce(y)
    if y.is_zero():
        return x
    if x.is_zero():
        return y
    lead = y.parts[0][0]
    i = len(x.parts)
    while i and _compare_atoms(x.parts[i - 1][0], lead) == LT:
        i -= 1
    head = x.parts[:i]
    if head and _compare_atoms(head[-1][0], lead) == EQ:
        merged = _run(lead, head[-1][1] + y.parts[0][1])
        return Ordinal(head[:-1] + (merged,) + y.parts[1:])
    return Ordinal(head + y.parts)


def successor(x: Ordinal | int) -> Ordinal:
    return add(x, ONE)


def mul_nat(x: Ordinal | int, n: int) -> Ordinal:
    """x * n; same value as folding add n times, since the tail of x is
    absorbed into the leading run at every step."""
    x = _coerce(x)
    if n < 0:
        raise RangeError("multiplier must be a natural number")
    if n == 0 or x.is_zero():
        return ZERO
    (lead, c), rest = x.parts[0], x.parts[1:]
    return Ordinal((_run(lead, c * n),) + rest)


def _run(atom: VeblenAtom, count: int) -> tuple[VeblenAtom, int]:
    """The run of ``count`` copies of ``atom``, under the width rule."""
    if count > MAX_WIDTH:
        raise RangeError(f"run count {count} exceeds the natural-number width {MAX_WIDTH}")
    return atom, count


def veblen(a: Ordinal | int, b: Ordinal | int) -> Ordinal:
    """The canonical term for phi_a(b); collapses fixed-point arguments."""
    a, b = _coerce(a), _coerce(b)
    inner = single_atom(b)
    if inner is not None and _cmp(inner.index, a) == GT:
        return b
    return atom_term(VeblenAtom(a, b))


def omega_power(b: Ordinal | int) -> Ordinal:
    return veblen(ZERO, b)


def iter_omega(m: int, x: Ordinal | int) -> Ordinal:
    """m-fold omega power: iter_omega(0, x) = x, then w^(...) applied m times."""
    if m < 0:
        raise RangeError("iteration count must be a natural number")
    out = _coerce(x)
    for _ in range(m):
        out = veblen(ZERO, out)
    return out


def in_phi_range(a: Ordinal | int, x: Ordinal) -> bool:
    """True when x is a value of phi_a: a single atom phi(c, d) with c >= a
    (c > a makes x a fixed point of phi_a, hence a value)."""
    a = _coerce(a)
    atom = single_atom(x)
    return atom is not None and _cmp(atom.index, a) >= 0


def phi_argument(a: Ordinal | int, x: Ordinal) -> Ordinal:
    """The mu with phi_a(mu) = x, for x a value of phi_a."""
    a = _coerce(a)
    atom = single_atom(x)
    c = LT if atom is None else _cmp(atom.index, a)
    if c == LT:
        raise RangeError(f"{x} is not a value of phi_{a}")
    return x if c == GT else atom.arg


def next_phi_value(a: Ordinal | int, beta: Ordinal | int) -> Ordinal:
    """Least value of phi_a strictly above beta.

    Below phi_a(0) the answer is phi_a(0).  If beta is itself a value
    phi_a(mu), the answer is phi_a(mu + 1).  Otherwise descend structurally:
    a value dominates a sum iff it dominates the leading atom, and it
    dominates an atom phi(c, d) with c < a iff it dominates d.
    """
    a, beta = _coerce(a), _coerce(beta)
    floor = VeblenAtom(a, ZERO)
    if _cmp_term_atom(beta, floor) == LT:
        return atom_term(floor)
    # beta >= phi_a(0), and so is every argument the descent moves to: an
    # atom phi(c, d) with c < a is at least phi_a(0) only if d is.
    while True:
        atom = beta.parts[0][0]
        ci = _cmp(atom.index, a)
        if ci == EQ:
            return veblen(a, successor(atom.arg))
        if ci == GT:
            return veblen(a, successor(atom_term(atom)))
        beta = atom.arg


def phi_plus_iter(a: Ordinal | int, beta: Ordinal | int, gamma: Ordinal | int) -> Ordinal:
    """The gamma-th value of phi_a strictly above beta, counting from 0:
    phi_plus_iter(a, beta, 0) = next_phi_value(a, beta), and in general
    phi_a(mu + gamma) where phi_a(mu) is that next value."""
    first = next_phi_value(a, beta)
    mu = phi_argument(a, first)
    return veblen(a, add(mu, gamma))


OMEGA = veblen(ZERO, ONE)
EPSILON0 = veblen(ONE, ZERO)


# ---------------------------------------------------------------------------
# Enumeration (test oracle)

def term_size(x: Ordinal) -> int:
    """Structural size: every atom occurrence counts one, plus the sizes of
    its index and argument; run lengths count with multiplicity."""
    return sum(c * (1 + term_size(a.index) + term_size(a.arg)) for a, c in x.parts)


_BY_ATOM = cmp_to_key(lambda p, q: _compare_atoms(p[0], q[0]))


def enumerate_terms(max_nodes: int) -> list[Ordinal]:
    """All canonical terms of structural size <= max_nodes, sorted ascending."""
    if max_nodes < 0:
        raise RangeError("max_nodes must be a natural number")
    if max_nodes > MAX_ENUM_SIZE:
        raise RangeError(f"enumeration size {max_nodes} exceeds the cap {MAX_ENUM_SIZE}")

    terms_by_size: dict[int, list[Ordinal]] = {0: [ZERO]}
    desc: list[tuple[VeblenAtom, int]] = []  # (atom, its size), largest atom first
    for s in range(1, max_nodes + 1):
        for sa in range(s):
            for a in terms_by_size[sa]:
                for b in terms_by_size[s - 1 - sa]:
                    inner = single_atom(b)
                    if inner is not None and _cmp(inner.index, a) == GT:
                        continue
                    desc.append((VeblenAtom(a, b), s))
        # The earlier atoms are one sorted run, which the sort only merges
        # the new ones into.
        desc.sort(key=_BY_ATOM, reverse=True)
        terms_by_size[s] = _sums_of_exact_size(desc, s)
    out = [t for ts in terms_by_size.values() for t in ts]
    out.sort(key=cmp_to_key(_cmp))
    return out


def _sums_of_exact_size(desc: list[tuple[VeblenAtom, int]], size: int) -> list[Ordinal]:
    """Every strictly decreasing sum of the atoms ``desc`` lists, largest
    first, whose sizes add up to exactly ``size``."""
    # fits[b]: the places in desc of the atoms whose size is at most b.
    fits = [[i for i, (_, sz) in enumerate(desc) if sz <= b] for b in range(size + 1)]
    found: list[Ordinal] = []

    def extend(start: int, budget: int, prefix: tuple[tuple[VeblenAtom, int], ...]):
        places = fits[budget]
        for i in places[bisect_left(places, start):]:
            atom, sz = desc[i]
            count = 1
            while count * sz <= budget:
                parts = prefix + ((atom, count),)
                if count * sz == budget:
                    found.append(Ordinal(parts))
                else:
                    extend(i + 1, budget - count * sz, parts)
                count += 1

    extend(0, size, ())
    return found


# ---------------------------------------------------------------------------
# Text format
#
# Grammar:   ord     := sum
#            sum     := prod ("+" prod)*
#            prod    := atom ("*" nat)?
#            atom    := nat | "w" | "w^" atom | "e0" | "phi(" ord "," ord ")"
#                     | "(" ord ")"
# Sugar: w = phi(0,1), e0 = phi(1,0), w^x = phi(0,x).  Non-normal input (for
# instance a fixed-point argument) is normalized, never rejected.  Each "(",
# "w^" and "phi(" nests one level, at most MAX_DEPTH in all.

class _Parser(Scanner):
    """The ordinal grammar's rules.  The theory grammar runs on a _Parser
    too, so it reads iteration counts in place with these rules."""

    def sum(self) -> Ordinal:
        value = self.prod()
        while self.peek() == "+":
            self.pos += 1
            value = add(value, self.prod())
        return value

    def prod(self) -> Ordinal:
        value = self.atom()
        if self.peek() == "*":
            self.pos += 1
            value = mul_nat(value, self.numeral())
        return value

    def atom(self) -> Ordinal:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.nested(self.sum)
            self.eat(")")
            return value
        if ch.isdecimal():
            return from_int(self.numeral())
        if ch.isalpha():
            start = self.pos
            name = self.word(NAME)
            if name == "w":
                if self.peek() == "^":
                    self.pos += 1
                    return veblen(ZERO, self.nested(self.atom))
                return OMEGA
            if name == "e0":
                return EPSILON0
            if name == "phi":
                self.eat("(")
                a = self.nested(self.sum)
                self.eat(",")
                b = self.nested(self.sum)
                self.eat(")")
                return veblen(a, b)
            self.error(f"unknown name {name!r}", start)
        self.error("expected an ordinal term")


def parse_ordinal(text: str) -> Ordinal:
    """Parse the ordinal grammar; returns the canonical normal form."""
    parser = _Parser(text)
    value = parser.sum()
    parser.end()
    return value


def format_ordinal(x: Ordinal) -> str:
    """Canonical lowest-sugar text; parse_ordinal(format_ordinal(x)) == x."""
    if x.is_zero():
        return "0"
    pieces = []
    for atom, count in x.parts:
        if atom == _ATOM_ONE:
            pieces.append(str(count))
        elif count == 1:
            pieces.append(_format_atom(atom))
        else:
            pieces.append(f"{_format_atom(atom)}*{count}")
    return "+".join(pieces)


def _format_atom(atom: VeblenAtom) -> str:
    if atom.index.is_zero():
        if atom.arg == ONE:
            return "w"
        return f"w^{_format_exponent(atom.arg)}"
    if atom.index == ONE and atom.arg.is_zero():
        return "e0"
    return f"phi({format_ordinal(atom.index)},{format_ordinal(atom.arg)})"


def _format_exponent(b: Ordinal) -> str:
    # A lone atom or a bare numeral is already a grammar atom; anything with
    # "+" or "*" needs parentheses under "^".
    if is_natural(b) or single_atom(b) is not None:
        return format_ordinal(b)
    return f"({format_ordinal(b)})"

"""Ordinals below Gamma_0 in Veblen normal form.

A term is a finite non-increasing sum of atoms phi(a, b), each denoting the
value of the a-th Veblen function at b (phi_0(b) = w^b, phi_{a+1} enumerates
the fixed points of phi_a).  Equal adjacent atoms are stored run-length
encoded as (atom, count) pairs, so the natural number n is the single pair
(phi(0,0), n).  The module's functions and its parser build canonical terms
only, through private constructors that skip ``__init__``, and on canonical
terms structural equality coincides with ordinal equality, so ``==`` and
``hash`` are meaningful there.  The ``Ordinal`` and
``VeblenAtom`` constructors themselves check nothing: a term built by hand
can be non-canonical, and then ``==`` can disagree with ``compare``
(``Ordinal(((VeblenAtom(ZERO, EPSILON0), 1),))`` prints ``w^e0`` and compares
EQ to ``EPSILON0``, yet ``==`` says they differ).

Canonicity of an atom phi(a, b) requires that b is not itself a single atom
phi(c, d) with c > a: such a b is a fixed point of phi_a and the atom would
denote b.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right, insort
from functools import total_ordering

from ._scan import MAX_WIDTH, NAME, Scanner, numeral_value
from ._value import Value, set_field
from .errors import RangeError

LT, EQ, GT = -1, 0, 1

MAX_ENUM_SIZE = 8
"""Largest size enumerate_terms lists.  On a shared 2-CPU x86-64 machine
under CPython 3.11, size 8 (10409 terms) takes about 0.05 s, size 9 (44320)
about 0.3 s and size 10 (192593 terms, 104 MB peak RSS) about 1.8 s."""


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


# The unchecked constructors the module's own canonical terms are made with:
# each skips __init__ and writes the slots through their descriptors.
_new = object.__new__
_set_parts = Ordinal.parts.__set__
_set_index, _set_arg = VeblenAtom.index.__set__, VeblenAtom.arg.__set__


def _ordinal(parts: tuple[tuple[VeblenAtom, int], ...]) -> Ordinal:
    x = _new(Ordinal)
    _set_parts(x, parts)
    return x


def _phi(a: Ordinal, b: Ordinal) -> Ordinal:
    """The canonical term phi(a, b) for canonical a and b: b itself when b
    is one atom phi(c, d) with c > a, a fixed point of phi_a."""
    parts = b.parts
    if len(parts) == 1 and parts[0][1] == 1 and _cmp(parts[0][0].index, a) == GT:
        return b
    atom = _new(VeblenAtom)
    _set_index(atom, a)
    _set_arg(atom, b)
    return _ordinal(((atom, 1),))


ZERO = Ordinal()
_ATOM_ONE = VeblenAtom(ZERO, ZERO)
_NATURALS = (ZERO,) + tuple(_ordinal(((_ATOM_ONE, n),)) for n in range(1, 64))


def from_int(n: int) -> Ordinal:
    """The finite ordinal n, stored as n copies of phi(0,0); below 64, one
    shared term."""
    n = operator.index(n)
    if 0 <= n < 64:
        return _NATURALS[n]
    if n < 0:
        raise RangeError("ordinals cannot be negative")
    if n > MAX_WIDTH:
        raise RangeError(f"numeral {n} exceeds the natural-number width {MAX_WIDTH}")
    return _ordinal(((_ATOM_ONE, n),))


ONE = _NATURALS[1]


def _coerce(x: Ordinal | int) -> Ordinal:
    return from_int(x) if isinstance(x, int) else x


def is_natural(x: Ordinal) -> bool:
    parts = x.parts
    return not parts or (len(parts) == 1 and not parts[0][0].index.parts and not parts[0][0].arg.parts)


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
    return _ordinal(((atom, 1),))


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
    return _sum((_coerce(x), _coerce(y)))


def _sum(terms: tuple[Ordinal, ...] | list[Ordinal]) -> Ordinal:
    """The ordinal sum of canonical terms, left to right, each pushed onto
    one run stack by ``_push``; a sum that is one term unchanged is it."""
    runs: list[tuple[VeblenAtom, int]] = []
    whole = ZERO  # the term whose runs ``runs`` holds unchanged, or None
    for term in terms:
        if term.parts:
            whole = term if _push(runs, term.parts) else None
    return whole if whole is not None else _ordinal(tuple(runs))


def _push(runs: list[tuple[VeblenAtom, int]], parts: tuple[tuple[VeblenAtom, int], ...]) -> bool:
    """Add the nonzero term with runs ``parts`` to the sum whose runs are
    ``runs``, in place: pop the runs whose atom is below its leading atom,
    merge its leading run into an equal top run under the width rule, and
    push the rest, the same pairs.  Every run met costs one atom
    comparison.  True when ``runs`` is then exactly ``parts``."""
    lead = parts[0][0]
    while runs:
        top = runs[-1][0]
        c = EQ if top is lead else _compare_atoms(top, lead)
        if c != LT:
            break
        runs.pop()
    if not runs:
        runs += parts
        return True
    if c == EQ:
        runs[-1] = _run(lead, runs[-1][1] + parts[0][1])
        runs += parts[1:]
    else:
        runs += parts
    return False


def successor(x: Ordinal | int) -> Ordinal:
    return add(x, ONE)


def mul_nat(x: Ordinal | int, n: int) -> Ordinal:
    """x * n; same value as folding add n times, since the tail of x is
    absorbed into the leading run at every step."""
    x, n = _coerce(x), operator.index(n)
    if n < 0:
        raise RangeError("multiplier must be a natural number")
    if n == 0 or not x.parts:
        return ZERO
    (lead, c), rest = x.parts[0], x.parts[1:]
    return _ordinal((_run(lead, c * n),) + rest)


def _run(atom: VeblenAtom, count: int) -> tuple[VeblenAtom, int]:
    """The run of ``count`` copies of ``atom``, under the width rule."""
    if count > MAX_WIDTH:
        raise RangeError(f"run count {count} exceeds the natural-number width {MAX_WIDTH}")
    return atom, count


def veblen(a: Ordinal | int, b: Ordinal | int) -> Ordinal:
    """The canonical term for phi_a(b); collapses fixed-point arguments."""
    return _phi(_coerce(a), _coerce(b))


def iter_omega(m: int, x: Ordinal | int) -> Ordinal:
    """m-fold omega power: iter_omega(0, x) = x, then w^(...) applied m times."""
    m = operator.index(m)
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


def enumerate_terms(max_nodes: int) -> list[Ordinal]:
    """All canonical terms of structural size <= max_nodes, in ascending order.

    For each size s, the atoms of size s are placed among the smaller ones
    by integer keys; one walk over them all then lists every term of size
    <= s in ascending order, grouped by size for the next size's atoms.  No
    term or atom is compared with another.

    The walk keys each term by its atoms' places and their counts, so keys
    compare as terms do.  A new atom X = phi(a, b) goes just below the least
    smaller-size atom above it: the least phi(a, d) with d > b, or the least
    phi(c, d) with c > a above b's leading atom, whichever is less.  A
    phi(c, d) with c < a is above X only if d is, and then d's leading atom
    lies between the two.  New atoms in one gap order by (a, b): b < X, so
    b lies below the gap and below each Y = phi(a', b') in it, which puts X
    below Y when a < a'."""
    max_nodes = operator.index(max_nodes)
    if max_nodes < 0:
        raise RangeError("max_nodes must be a natural number")
    if max_nodes > MAX_ENUM_SIZE:
        raise RangeError(f"enumeration size {max_nodes} exceeds the cap {MAX_ENUM_SIZE}")

    terms = [ZERO]
    by_size = [([ZERO], [()])]
    asc: list[tuple[VeblenAtom, int]] = []  # (atom, its size), smallest atom first
    for s in range(1, max_nodes + 1):
        asc = _place(asc, by_size, s)
        terms, by_size = _walk(asc, s)
    return terms


def _place(asc: list[tuple[VeblenAtom, int]], by_size: list, size: int) -> list:
    """asc with the atoms of the given size placed in.  by_size[k] holds
    the terms of size k and their keys over asc."""
    place = {id(atom): p for p, (atom, _) in enumerate(asc)}

    def key(x: Ordinal) -> tuple[int, ...]:
        return tuple([n for atom, count in x.parts for n in (place[id(atom)], count)])

    index_keys = [key(atom.index) for atom, _ in asc]
    same_index: dict[tuple, tuple[list, list]] = {}  # index -> arg keys, places
    for p, (atom, _) in enumerate(asc):
        args, places = same_index.setdefault(index_keys[p], ([], []))
        args.append(key(atom.arg))
        places.append(p)
    higher = sorted(same_index)  # the indices not yet swept, largest last
    above = [len(asc)]  # the places of the atoms whose index is above a, and an end
    keyed = [((2 * p + 1,), entry) for p, entry in enumerate(asc)]
    indices = [(ka, a, size - 1 - sa) for sa in range(size) for a, ka in zip(*by_size[sa])]
    for ka, a, sb in sorted(indices, key=operator.itemgetter(0), reverse=True):
        while higher and higher[-1] > ka:
            for p in same_index[higher.pop()][1]:
                insort(above, p)
        args, places = same_index.get(ka, ((), ()))
        for b, kb in zip(*by_size[sb]):
            if len(kb) == 2 and kb[1] == 1 and index_keys[kb[0]] > ka:
                continue  # phi(a, b) = b
            gap = above[bisect_right(above, kb[0] if kb else -1)]
            j = bisect_left(args, kb)
            if j < len(args) and places[j] < gap:
                gap = places[j]
            keyed.append(((2 * gap, ka, kb), (VeblenAtom(a, b), size)))
    keyed.sort(key=operator.itemgetter(0))
    return [entry for _, entry in keyed]


def _walk(asc: list[tuple[VeblenAtom, int]], size: int) -> tuple[list[Ordinal], list]:
    """Every strictly decreasing sum of the atoms ``asc`` lists, smallest
    first, whose size is at most ``size``: in ascending order, and by size
    with its key, its places in asc each followed by its count.

    A term comes before every longer term that starts with it; those follow
    by their next atom, smallest first, then by that atom's count, then by
    the rest, which is made of smaller atoms only."""
    # fits[b]: the places in asc of the atoms whose size is at most b.
    fits: list[list[int]] = [[] for _ in range(size + 1)]
    for i, (_, sz) in enumerate(asc):
        fits[sz].append(i)
    for b in range(1, size + 1):
        fits[b] = sorted(fits[b - 1] + fits[b])
    terms = [ZERO]
    by_size = [([ZERO], [()])] + [([], []) for _ in range(size)]

    def extend(prefix: tuple, key: tuple, below: int, budget: int):
        places = fits[budget]
        for i in places[:bisect_left(places, below)]:
            atom, sz = asc[i]
            for count in range(1, budget // sz + 1):
                parts, k = prefix + ((atom, count),), key + (i, count)
                term = _ordinal(parts)
                terms.append(term)
                left = budget - count * sz
                sized, keys = by_size[size - left]
                sized.append(term)
                keys.append(k)
                if left:
                    extend(parts, k, i, left)

    extend((), (), len(asc), size)
    return terms, by_size


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
    """The ordinal grammar by precedence climbing (Pratt, POPL 1973): ``sum``
    pushes its terms onto one run stack with ``add``'s ``_push``, in linear
    time, and ``atom`` builds phi values with ``veblen``'s ``_phi``.  A "("
    or "phi(" costs two frames a level (sum, atom), a "w^" one.  The theory
    grammar reads iteration counts in place with ``sum``."""

    def sum(self) -> Ordinal:
        # Each term is pushed before "+" is looked for, so a run too wide is
        # a RangeError before any later syntax error.
        text = self.text
        runs: list[tuple[VeblenAtom, int]] = []
        whole = ZERO  # the term whose runs ``runs`` holds unchanged, or None
        while True:
            term = self.atom()
            ch = text[self.pos:self.pos + 1]
            if ch.isspace():
                ch = self.peek()
            if ch == "*":
                self.pos += 1
                term = mul_nat(term, self.numeral())
                ch = self.peek()
            if term.parts:
                whole = term if _push(runs, term.parts) else None
            if ch != "+":
                return whole if whole is not None else _ordinal(tuple(runs))
            self.pos += 1

    def atom(self) -> Ordinal:
        text, pos = self.text, self.pos
        ch = text[pos:pos + 1]
        if ch.isspace():
            ch = self.peek()
            pos = self.pos
        if ch == "(":
            self.pos = pos + 1
            self.down()
            value = self.sum()
            self.depth -= 1
            self.eat(")")
            return value
        match = NAME.match(text, pos)
        self.pos = match.end()
        word = match.group()
        if ch.isdecimal():
            if not word.isdecimal():
                self.error("expected a numeral", pos)
            n = numeral_value(word)
            return _NATURALS[n] if n < 64 else from_int(n)
        if word == "w":
            ch = text[self.pos:self.pos + 1]
            if ch.isspace():
                ch = self.peek()
            if ch != "^":
                return OMEGA
            self.pos += 1
            self.down()
            b = self.atom()
            self.depth -= 1
            a = ZERO
        elif word == "phi":
            self.eat("(")
            self.down()
            a = self.sum()
            self.eat(",")
            b = self.sum()
            self.depth -= 1
            self.eat(")")
        elif word == "e0":
            return EPSILON0
        else:
            self.error(f"unknown name {word!r}" if ch.isalpha() else "expected an ordinal term", pos)
        return _phi(a, b)


def parse_ordinal(text: str) -> Ordinal:
    """Parse the ordinal grammar; returns the canonical normal form."""
    parser = _Parser(text)
    value = parser.sum()
    parser.end()
    return value


def format_ordinal(x: Ordinal) -> str:
    """Canonical lowest-sugar text; parse_ordinal(format_ordinal(x)) == x.
    Atoms are told apart by their parts, never by ``==``, and every level
    of nesting costs one call of this function."""
    pieces = []
    for atom, count in x.parts:
        index, arg = atom.index.parts, atom.arg.parts
        if index:
            if not arg and is_natural(atom.index) and index[0][1] == 1:
                text = "e0"
            else:
                text = f"phi({format_ordinal(atom.index)},{format_ordinal(atom.arg)})"
        elif not arg:
            pieces.append(str(count))
            continue
        else:
            lead, n = arg[0]
            if len(arg) == 1 and not lead.index.parts and not lead.arg.parts:
                # w^n for a natural n, whose numeral is a grammar atom.
                text = "w" if n == 1 else f"w^{n}"
            elif len(arg) == 1 and n == 1:
                # A lone atom is already a grammar atom.
                text = f"w^{format_ordinal(atom.arg)}"
            else:
                text = f"w^({format_ordinal(atom.arg)})"
        pieces.append(text if count == 1 else f"{text}*{count}")
    return "+".join(pieces) or "0"

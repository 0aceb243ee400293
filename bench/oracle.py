"""Reference answers the benchmark computes without ordlab.

Ordinals below epsilon_0 are kept in Cantor normal form as tuples of
(exponent, count) pairs, exponents strictly decreasing and each itself such
a tuple; () is zero.  The tuple is canonical, so ``==`` is ordinal equality.
This is enough to answer worm ordinals, reductions of reflection towers over
EA+ whose iterations lie below epsilon_0, and the CLI's ord/worm/theory
commands on such inputs, and to print each answer the way ordlab prints it.
"""

from __future__ import annotations

ZERO: tuple = ()


def nat(n: int) -> tuple:
    return (((), n),) if n else ZERO


ONE = nat(1)


def cmp(x: tuple, y: tuple) -> int:
    for (ex, cx), (ey, cy) in zip(x, y):
        c = cmp(ex, ey)
        if c:
            return c
        if cx != cy:
            return -1 if cx < cy else 1
    return (len(x) > len(y)) - (len(x) < len(y))


def add(x: tuple, y: tuple) -> tuple:
    if not y:
        return x
    lead, count = y[0]
    keep = len(x)
    while keep and cmp(x[keep - 1][0], lead) < 0:
        keep -= 1
    head = x[:keep]
    if head and head[-1][0] == lead:
        return head[:-1] + ((lead, head[-1][1] + count),) + y[1:]
    return head + y


def mul_nat(x: tuple, n: int) -> tuple:
    if n == 0 or not x:
        return ZERO
    (lead, count), rest = x[0], x[1:]
    return ((lead, count * n),) + rest


def omega_power(e: tuple) -> tuple:
    return ((e, 1),)


def next_omega_power(x: tuple) -> tuple:
    """Least value of phi_0 = w^(.) strictly above x."""
    return ONE if not x else omega_power(add(x[0][0], ONE))


def fmt(x: tuple) -> str:
    """ordlab's canonical text for x."""
    if not x:
        return "0"
    pieces = []
    for e, count in x:
        if not e:
            pieces.append(str(count))
            continue
        if e == ONE:
            atom = "w"
        elif len(e) == 1 and (not e[0][0] or e[0][1] == 1):
            atom = f"w^{fmt(e)}"
        else:
            atom = f"w^({fmt(e)})"
        pieces.append(atom if count == 1 else f"{atom}*{count}")
    return "+".join(pieces)


def worm_ordinal(letters: tuple[int, ...]) -> tuple:
    """o(T) = 0; o(H 0 T) = o(T) + w^o(H-1) for 0-free H; o(w) = w^o(w-1)
    for a nonempty 0-free worm."""
    if not letters:
        return ZERO
    if 0 in letters:
        i = letters.index(0)
        head = tuple(l - 1 for l in letters[:i])
        return add(worm_ordinal(letters[i + 1:]), omega_power(worm_ordinal(head)))
    return omega_power(worm_ordinal(tuple(l - 1 for l in letters)))


def reduce_tower(tower: list[tuple[int, tuple]], k: int) -> tuple:
    """Iterations gamma with tower ~ (rfn k gamma EA+), for a tower given
    outermost first as (level, iterations) over EA+ with levels
    non-decreasing inward and the outermost level >= k."""
    if not tower:
        return ZERO
    (level, iterations), inner_tower = tower[0], tower[1:]
    inner = reduce_tower(inner_tower, level)
    gamma = add(inner, iterations)
    for _ in range(level - k):
        gamma = omega_power(gamma)
    return gamma


def theory_text(gamma: tuple, k: int) -> str:
    if not gamma:
        return "EA+"
    if k == 1:
        return f"(con {fmt(gamma)} EA+)"
    return f"(rfn {k} {fmt(gamma)} EA+)"


def worm_theory_text(letters: tuple[int, ...]) -> str:
    out = "EA+"
    for letter in reversed(letters):
        out = f"(con 1 {out})" if letter == 0 else f"(rfn {letter + 1} 1 {out})"
    return out


def least_counterexample(fn, bound: int) -> int | None:
    for n in range(bound + 1):
        if not fn(n):
            return n
    return None


def order_key(k: int | None, n: int) -> tuple[int, int]:
    """Rank of n in the three-zone order gated on least counterexample k:
    standard below k, all of [0, k) before [k, inf), reversed from k on."""
    if k is None or n < k:
        return (0, n)
    return (1, -n)

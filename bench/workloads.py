"""The four benchmark workloads: seeded input generators, the timed op for
each input, and the check that judges each op's output.

Generators emit text only (ordinal strings, worm letters, theory
s-expressions, predicates, argv); ordlab parses it inside the timed op.
Inputs come in rounds of fixed composition, and a run measures whole rounds,
so the mix of op kinds and sizes is the same on every seed.

Every check returns None for a right answer or "<check>: <detail>".  FAULTS
holds, for each check, a way to corrupt a real result so that the check must
fail; the self-tests apply each one.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "ordlab" / "__init__.py").is_file():
    raise SystemExit(f"bench: no ordlab sources at {SRC}")
sys.path.insert(0, str(SRC))

import ordlab  # noqa: E402
from ordlab import cli, notation, ordinals, theories, worms  # noqa: E402

if Path(ordlab.__file__).resolve().parent != SRC / "ordlab":
    raise SystemExit(f"bench: imported ordlab from {ordlab.__file__}, not from {SRC}")

import oracle  # noqa: E402

LT, EQ, GT = -1, 0, 1
CMP_NAMES = {LT: "LT", EQ: "EQ", GT: "GT"}


def make_api() -> SimpleNamespace:
    """The public functions the benchmark's ops call.  The traced run
    replaces these entries with span-recording wrappers."""
    return SimpleNamespace(
        parse_ordinal=ordinals.parse_ordinal,
        format_ordinal=ordinals.format_ordinal,
        compare=ordinals.compare,
        add=ordinals.add,
        veblen=ordinals.veblen,
        next_phi_value=ordinals.next_phi_value,
        parse_worm=worms.parse_worm,
        worm_ordinal=worms.worm_ordinal,
        worm_of_ordinal=worms.worm_of_ordinal,
        lift=worms.lift,
        theory_of_worm=worms.theory_of_worm,
        parse_theory=theories.parse_theory,
        format_theory=theories.format_theory,
        reduce_to_level=theories.reduce_to_level,
        pi_ordinal=theories.pi_ordinal,
        catalog_lookup=theories.catalog_lookup,
        omega_model_dilator=theories.omega_model_dilator,
        kreisel_presentation=notation.kreisel_presentation,
        check_ascending=notation.check_ascending,
        audit=notation.audit,
        find_descending=notation.find_descending,
        run=cli.run,
    )


GOLDEN = 0.6180339887498949


def rounds(workload, seed: int):
    """The workload's rounds for a seed, forever, in cycles of
    workload.cycle rounds.  The rounds of a cycle take the offsets
    u = (m + 1/2) / cycle, m = 0 .. cycle-1, in a seeded order, so the
    sizes a round draws with _spread fill the same strata in every cycle
    and on every seed, and a run measures whole cycles.  Within a stratum
    the size is its midpoint; what else an op gets is drawn from the seed."""
    rng = random.Random(seed)
    while True:
        for m in rng.sample(range(workload.cycle), workload.cycle):
            yield workload.round(rng, (m + 0.5) / workload.cycle)


def _spread(count: int, lo: float, hi: float, u: float, log: bool = False) -> list[float]:
    """count values, one in each of count equal slices of [lo, hi), each at
    relative position u in its slice (slices of log size if log)."""
    out = []
    for i in range(count):
        f = (i + u) / count
        out.append(lo * (hi / lo) ** f if log else lo + (hi - lo) * f)
    return out


# ---------------------------------------------------------------------------
# Ordinal texts

def _atomic(text: str, is_atom: bool) -> str:
    return text if is_atom else f"({text})"


def ordinal_text(rng, depth: int) -> tuple[str, bool]:
    """Non-normal ordinal text below Gamma_0 nested at most depth deep;
    returns (text, whether it is a grammar atom)."""
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(("0", "1", "2", "3", "w", "w", "e0")), True
    roll = rng.random()
    if roll < 0.3:
        parts = [ordinal_text(rng, depth - 1)[0] for _ in range(rng.choice((2, 2, 3)))]
        return "+".join(parts), False
    if roll < 0.5:
        return "w^" + _atomic(*ordinal_text(rng, depth - 1)), True
    if roll < 0.6:
        return f"{_atomic(*ordinal_text(rng, depth - 1))}*{rng.randint(0, 4)}", False
    if roll < 0.9:
        a = ordinal_text(rng, min(depth - 1, 2))[0]
        b = ordinal_text(rng, depth - 1)[0]
        return f"phi({a},{b})", True
    return f"({ordinal_text(rng, depth - 1)[0]})", True


def cnf_text(rng, depth: int) -> tuple[str, bool, tuple]:
    """Non-normal text for an ordinal below e0, with its oracle value."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            n = rng.randint(0, 4)
            return str(n), True, oracle.nat(n)
        return "w", True, oracle.omega_power(oracle.ONE)
    roll = rng.random()
    if roll < 0.4:
        text, _, value = cnf_text(rng, depth - 1)
        for _ in range(rng.choice((1, 1, 2))):
            more, _, v = cnf_text(rng, depth - 1)
            text, value = f"{text}+{more}", oracle.add(value, v)
        return text, False, value
    if roll < 0.7:
        text, is_atom, value = cnf_text(rng, depth - 1)
        return "w^" + _atomic(text, is_atom), True, oracle.omega_power(value)
    if roll < 0.85:
        text, is_atom, value = cnf_text(rng, depth - 1)
        n = rng.randint(0, 3)
        return f"{_atomic(text, is_atom)}*{n}", False, oracle.mul_nat(value, n)
    text, _, value = cnf_text(rng, depth - 1)
    return f"({text})", True, value


def nonzero_cnf_text(rng, depth: int) -> tuple[str, tuple]:
    while True:
        text, _, value = cnf_text(rng, depth)
        if value:
            return text, value


# ---------------------------------------------------------------------------
# Workload: ordinal-core

def predecessor(mu):
    """The nu with nu + 1 = mu, or None when the nonzero mu is a limit."""
    *rest, (atom, count) = mu.parts
    if atom != ordinals.ONE.parts[0][0]:
        return None
    return ordinals.Ordinal(tuple(rest) + (((atom, count - 1),) if count > 1 else ()))


class OrdinalCore:
    """Parse three non-normal terms and exercise compare, add, veblen,
    next_phi_value and the format/parse round trip; judged by order laws."""

    name = "ordinal-core"
    cycle = 1
    time_limit = 10.0
    rss_rounds = 400

    def round(self, rng, u: float) -> list[dict]:
        depths = [1 + i % 6 for i in range(24)]
        rng.shuffle(depths)
        return [
            {
                "kind": "laws",
                "x": ordinal_text(rng, d)[0],
                "y": ordinal_text(rng, rng.randint(1, d))[0],
                "z": ordinal_text(rng, rng.randint(1, d))[0],
                "a": rng.choice(("0", "1", "2", "w")),
            }
            for d in depths
        ]

    def run(self, api, op) -> dict:
        P = api.parse_ordinal
        x, y, z, a = P(op["x"]), P(op["y"]), P(op["z"]), P(op["a"])
        C = api.compare
        v = api.veblen(y, z)
        text = api.format_ordinal(x)
        return {
            "x": x, "y": y, "z": z, "a": a,
            "cxy": C(x, y), "cyx": C(y, x), "cyz": C(y, z), "cxz": C(x, z),
            "sxy": api.add(x, y), "sxz": api.add(x, z),
            "v": v, "u": api.veblen(x, v),
            "next": api.next_phi_value(a, x),
            "text": text, "reparsed": P(text),
        }

    def check(self, op, r) -> str | None:
        C = ordinals.compare
        x, y, z = r["x"], r["y"], r["z"]
        cxy, cyz, cxz = r["cxy"], r["cyz"], r["cxz"]
        if cxy not in (LT, EQ, GT) or r["cyx"] != -cxy or (cxy == EQ) != (x == y):
            return f"trichotomy: compare gave {cxy} and {r['cyx']}"
        if cxy <= 0 and cyz <= 0 and not (cxz < 0 if LT in (cxy, cyz) else cxz <= 0):
            return f"transitivity: x?y={cxy}, y?z={cyz}, x?z={cxz}"
        sxy, sxz = r["sxy"], r["sxz"]
        if C(x, sxy) > 0 or C(sxy, sxz) != cyz:
            return "add: x+y must be >= x and x+y ? x+z must equal y ? z"
        v = r["v"]
        if C(v, z) < 0 or (cxy == LT and r["u"] != v):
            return "veblen: phi_y(z) < z, or phi_x(phi_y(z)) != phi_y(z) for x < y"
        a, nxt = r["a"], r["next"]
        if C(nxt, x) != GT or not ordinals.in_phi_range(a, nxt):
            return f"next_phi: {nxt} is not a phi_a value above x"
        # phi_a is continuous, so the least value above x is phi_a(0) or
        # phi_a(nu+1) with phi_a(nu) <= x; at a limit index never.
        mu = ordinals.phi_argument(a, nxt)
        if not mu.is_zero():
            nu = predecessor(mu)
            if nu is None or C(ordinals.veblen(a, nu), x) == GT:
                return f"next_phi_least: {nxt} is above x but not the least phi_a value above x"
        if r["reparsed"] != x:
            return f"round_trip: {r['text']!r} reparses to {r['reparsed']}"
        return None

    def elems(self, op) -> int:
        return 0


def _next_phi_above_successor(op, r):
    """phi_a(x+1): a phi_a value above x, but not the least one unless
    x is a fixed point of phi_a."""
    wrong = ordinals.veblen(r["a"], ordinals.successor(r["x"]))
    return {**r, "next": wrong} if wrong != r["next"] else None


ORDINAL_FAULTS = {
    "trichotomy": lambda op, r: {**r, "cyx": r["cxy"]} if r["cxy"] != EQ else None,
    "transitivity": lambda op, r: (
        {**r, "cxz": GT} if r["cxy"] <= 0 and r["cyz"] <= 0 else None),
    "add": lambda op, r: {**r, "sxy": ordinals.ZERO} if not r["x"].is_zero() else None,
    "veblen": lambda op, r: {**r, "v": ordinals.ZERO} if not r["z"].is_zero() else None,
    "next_phi": lambda op, r: {**r, "next": r["x"]},
    "next_phi_least": _next_phi_above_successor,
    "round_trip": lambda op, r: {**r, "reparsed": ordinals.add(r["x"], ordinals.ONE)},
}


# ---------------------------------------------------------------------------
# Workload: reflection

CATALOG_GOLDENS = {
    "EA+": "0", "PA": "e0", "Con(EA+)": "1", "1Con(EA+)": "w", "2Con(EA+)": "w^w",
    "PA+Con(PA)": "e0*2", "PA+Con^2(PA)": "e0*3",
}


def tower_text(rng, nodes: int) -> tuple[str, list[tuple[int, tuple]]]:
    """A reflection tower over EA+ with levels 1..8 non-decreasing inward
    and nonzero iterations below e0; returns (s-expression, tower)."""
    levels = sorted(rng.randint(1, 8) for _ in range(nodes))
    tower = []
    text = "EA+"
    for level in reversed(levels):
        iter_text, value = nonzero_cnf_text(rng, 2)
        tower.append((level, value))
        if level == 1 and rng.random() < 0.5:
            text = f"(con {iter_text} {text})"
        else:
            text = f"(rfn {level} {iter_text} {text})"
    tower.reverse()
    return text, tower


class Reflection:
    """Fresh worms through o(.), its inverse, lift and the reduction
    engine, interleaved with tower reductions, catalog goldens and dilator
    chains."""

    name = "reflection"
    cycle = 4
    time_limit = 10.0
    rss_rounds = 400

    def round(self, rng, u: float) -> list[dict]:
        ops = []
        for length in _spread(16, 4, 49, u):
            letters = tuple(rng.randint(0, 4) for _ in range(int(length)))
            ops.append({"kind": "worm", "w": " ".join(map(str, letters)),
                        "want": oracle.fmt(oracle.worm_ordinal(letters))})
        for _ in range(6):
            text, tower = tower_text(rng, rng.randint(1, 4))
            k = rng.randint(1, tower[0][0])
            ops.append({"kind": "tower", "t": text, "level": k,
                        "want": oracle.theory_text(oracle.reduce_tower(tower, k), k)})
        name = rng.choice(sorted(CATALOG_GOLDENS))
        ops.append({"kind": "catalog", "name": name, "want": CATALOG_GOLDENS[name]})
        ops.append({"kind": "dilator", "alpha": rng.choice(("0", "1", "2", "w")),
                    "beta": cnf_text(rng, 2)[0], "steps": rng.randint(3, 6)})
        rng.shuffle(ops)
        return ops

    def run(self, api, op) -> dict:
        kind = op["kind"]
        if kind == "worm":
            w = api.parse_worm(op["w"])
            o = api.worm_ordinal(w)
            back = api.worm_of_ordinal(o)
            return {
                "o": o, "text": api.format_ordinal(o),
                "round_trip": api.worm_ordinal(back),
                "lifted": api.worm_ordinal(api.lift(w, 1)), "power": api.veblen(0, o),
                "pi": api.pi_ordinal(api.theory_of_worm(w), 1),
            }
        if kind == "tower":
            t = api.parse_theory(op["t"])
            return {"text": api.format_theory(api.reduce_to_level(t, op["level"]))}
        if kind == "catalog":
            return {"text": api.format_ordinal(api.pi_ordinal(api.catalog_lookup(op["name"]), 1))}
        alpha, value = api.parse_ordinal(op["alpha"]), api.parse_ordinal(op["beta"])
        chain = [value]
        for _ in range(op["steps"]):
            value = api.omega_model_dilator(alpha, value)
            chain.append(value)
        return {"alpha": alpha, "chain": chain}

    def check(self, op, r) -> str | None:
        kind = op["kind"]
        if kind == "worm":
            if r["text"] != op["want"]:
                return f"worm_ordinal: o({op['w']}) = {r['text']}, want {op['want']}"
            if r["round_trip"] != r["o"]:
                return "round_trip: o(worm_of_ordinal(o(w))) != o(w)"
            if r["lifted"] != r["power"]:
                return "lift: o(lift(w,1)) != w^o(w)"
            if r["pi"] != r["o"]:
                return f"pi_ordinal: pi_1(theory_of_worm(w)) = {r['pi']}, want {r['o']}"
            return None
        if kind in ("tower", "catalog"):
            if r["text"] != op["want"]:
                return f"{kind}: got {r['text']}, want {op['want']}"
            return None
        index = ordinals.add(ordinals.ONE, r["alpha"])
        chain = r["chain"]
        for lo, hi in zip(chain, chain[1:]):
            if ordinals.compare(lo, hi) != LT or not ordinals.in_phi_range(index, hi):
                return "dilator: chain is not a strictly increasing run of phi_{1+alpha} values"
        return None

    def elems(self, op) -> int:
        return 0


def _on(kind: str, mutate):
    """A fault that applies only to ops of the given kind."""
    return lambda op, r: mutate(op, r) if op["kind"] == kind else None


REFLECTION_FAULTS = {
    "worm_ordinal": _on("worm", lambda op, r: {**r, "text": r["text"] + "+1"}),
    "round_trip": _on("worm", lambda op, r: {**r, "round_trip": ordinals.add(r["o"], ordinals.ONE)}),
    "lift": _on("worm", lambda op, r: {**r, "lifted": r["o"]}),
    "pi_ordinal": _on("worm", lambda op, r: {**r, "pi": ordinals.add(r["pi"], ordinals.ONE)}),
    "tower": _on("tower", lambda op, r: {**r, "text": "EA+" if r["text"] != "EA+" else "(con 1 EA+)"}),
    "catalog": _on("catalog", lambda op, r: {**r, "text": r["text"] + "+1"}),
    "dilator": _on("dilator", lambda op, r: {**r, "chain": r["chain"][::-1]}),
}


# ---------------------------------------------------------------------------
# Workload: notation-lab

def predicate(rng, k: int | None, limit: int, variant: int | None = None):
    """(text, evaluator) for a predicate on naturals whose least
    counterexample is k (None: none at or below limit).  variant, if given,
    picks the form (modulo the number of forms); otherwise the seed does."""
    if k is None:
        choices = [
            ("true", lambda x: True),
            ("x + 1 != 0", lambda x: x + 1 != 0),
            ("x*x + 1 > x", lambda x: x * x + 1 > x),
            (f"x*2 != {2 * rng.randint(limit, 3 * limit) + 1}", lambda x: True),
            (f"x != {limit + 1 + rng.randint(0, limit)}", lambda x: x <= limit),
        ]
        return rng.choice(choices) if variant is None else choices[variant % len(choices)]
    c = rng.randint(1, 50)
    m = rng.randint(0, k * k - 1) if k else 0
    k2 = k + rng.randint(1, 100)
    choices = [
        (f"x != {k}", lambda x: x != k),
        (f"x < {k} or x > {k}", lambda x: x < k or x > k),
        (f"not x = {k}", lambda x: not x == k),
        (f"x + {c} != {k + c}", lambda x: x + c != k + c),
        (f"x*x != {k * k}", lambda x: x * x != k * k),
        (f"x != {k} and x != {k2}", lambda x: x != k and x != k2),
    ]
    if k:
        choices.append((f"x*x <= {m} or x != {k}", lambda x: x * x <= m or x != k))
    return rng.choice(choices) if variant is None else choices[variant % len(choices)]


class NotationLab:
    """Window checks, audits, descent searches and batches of point queries
    on seeded presentations, judged by the benchmark's own evaluator."""

    name = "notation-lab"
    cycle = 4
    time_limit = 10.0
    rss_rounds = 6
    queries = 16
    # Window ops cost about n^2 predicate evaluations and the other two far
    # less; with 10 of 16 ops cheap, p50 falls among the cheap ops and p95
    # among the window ops rather than on the boundary between them.
    mix = {"check_ascending": 3, "audit": 3, "find_descending": 5, "less": 5}

    def _op(self, rng, kind: str, n: int, inside: float | None, variant: int) -> dict:
        """inside: k = inside * (n+1) rounded down, or None for k > n.
        variant picks the predicate's form, and for k > n whether there is
        a counterexample at all: the forms differ in cost per evaluation."""
        if inside is not None:
            k = int(inside * (n + 1))
        else:
            k = None if variant % 2 else rng.randint(n + 1, 3 * n)
        text, fn = predicate(rng, k, 3 * n, variant // 2)
        found = oracle.least_counterexample(fn, 3 * n)
        assert found == k, (text, found, k)
        op = {"kind": kind, "p": text, "n": n, "k": k}
        if kind == "audit":
            op["counterexamples"] = sum(1 for i in range(n + 1) if not fn(i))
        if kind == "less":
            op["pairs"] = [(rng.randint(0, n), rng.randint(0, n)) for _ in range(self.queries)]
        return op

    def round(self, rng, u: float) -> list[dict]:
        # Alternate k <= n and k > n along the sorted windows, starting on
        # either side as u falls, so both cases meet every window size.
        # Where k <= n, its share of the window also walks an equidistributed
        # sequence, since the cost of a window op grows with min(k, n).  The
        # predicate's form goes by the op's place in the round, so a given
        # stratum of sizes meets the same form on every seed.
        phase = int(u * 2)
        ops = []
        for kind, count in self.mix.items():
            for i, n in enumerate(_spread(count, 200, 4001, u, log=True)):
                share = (u * 3.7 + len(ops) * GOLDEN) % 1.0
                inside = share if (i + phase) % 2 == 0 else None
                ops.append(self._op(rng, kind, int(n), inside, len(ops)))
        rng.shuffle(ops)
        return ops

    def run(self, api, op) -> object:
        p = api.kreisel_presentation(op["p"])
        kind, n = op["kind"], op["n"]
        if kind == "check_ascending":
            return api.check_ascending(p, n)
        if kind == "audit":
            return api.audit(p, n)
        if kind == "find_descending":
            return api.find_descending(p, n)
        return [p.less(a, b) for a, b in op["pairs"]]

    def check(self, op, r) -> str | None:
        kind, n, k = op["kind"], op["n"], op["k"]
        if kind == "check_ascending":
            want = k is None or k >= n
            return None if r == want else f"check_ascending: got {r}, want {want} (k={k}, n={n})"
        if kind == "audit":
            descents = 0 if k is None else max(0, n - k)
            want = (n, op["counterexamples"], descents, (descents == 0) == (op["counterexamples"] == 0))
            got = (r.window, r.counterexamples, r.descents, r.equivalent)
            return None if got == want else f"audit: got {got}, want {want}"
        if kind == "find_descending":
            want = None if k is None or k > n else list(range(k, k + min(n, n - k + 1)))
            return None if r == want else f"find_descending: chain does not run from k={k} to {n}"
        want = [oracle.order_key(k, a) < oracle.order_key(k, b) for a, b in op["pairs"]]
        return None if r == want else "less: disagrees with the three-zone order"

    def elems(self, op) -> int:
        return len(op["pairs"]) if op["kind"] == "less" else op["n"]


NOTATION_FAULTS = {
    "check_ascending": _on("check_ascending", lambda op, r: not r),
    "audit": _on("audit", lambda op, r: notation.AuditReport(
        r.window, r.counterexamples + 1, r.descents, r.equivalent)),
    "find_descending": _on("find_descending", lambda op, r: [op["n"] + 1] if r is None else r[1:]),
    "less": _on("less", lambda op, r: [not r[0]] + r[1:]),
}


# ---------------------------------------------------------------------------
# Workload: cli-session

# README examples, each with the output its comment states (or implies).
README = [
    (["ord", "cmp", "w^w+1", "e0"], "LT"),
    (["ord", "add", "w^w+w", "w^2"], "w^w+w^2"),
    (["ord", "mul", "w+1", "2"], "w*2+1"),
    (["ord", "normalize", "1+w+phi(0,e0)"], "e0"),
    (["ord", "phi", "1", "0"], "e0"),
    (["ord", "next-phi", "0", "w+1"], "w^2"),
    (["--max-nodes", "3", "ord", "enum"],
     "\n".join(["0", "1", "2", "3", "w", "w+1", "w^2", "w^w", "e0", "e0+1",
                "phi(1,1)", "phi(2,0)", "phi(w,0)", "phi(e0,0)"])),
    (["worm", "o", "1 0 1"], "w*2"),
    (["worm", "cmp", "0 1", "1"], "GT"),
    (["worm", "of-ordinal", "w^w"], "2"),
    (["worm", "to-theory", "1 1"], "(rfn 2 1 (rfn 2 1 EA+))"),
    (["theory", "pi-ordinal", "PA", "1"], "e0"),
    (["theory", "pi-ordinal", "PA+Con(PA)", "1"], "e0*2"),
    (["theory", "reduce", "1Con(EA+)", "1"], "(con w EA+)"),
    (["theory", "stage", "EA+", "1"], "(con 1 EA+)"),
    (["theory", "catalog"], "\n".join([
        "EA+ = EA+", "PA = PA", "Con(EA+) = (con 1 EA+)", "1Con(EA+) = (rfn 2 1 EA+)",
        "2Con(EA+) = (rfn 3 1 EA+)", "PA+Con(PA) = (con 1 PA)", "PA+Con^2(PA) = (con 2 PA)"])),
    (["dilator", "eval", "0", "0"], "e0"),
    (["notation", "kreisel", "x != 7", "100"],
     "predicate: x != 7\nwindow: 100\nascending: no"),
    (["notation", "audit", "x != 7", "100"],
     "window: 100\ncounterexamples: 1\ndescents: 93\nequivalent: yes"),
    (["--fuel", "50", "notation", "descend", "x != 7"], " ".join(map(str, range(7, 51)))),
    (["formula", "slowcon"], "∀x(F_e0(x)↓ → Con(ISigma_x + φ))"),
    (["--ascii", "formula", "svstar"],
     "phi or (not phi and psi and forall x (Con(ISigma_x + (not phi and psi)) -> "
     "Con^2(ISigma_x + (not phi and psi))) and psi)"),
    (["formula", "constar", "a", "PA"], "PA ⊢ Con★(a,PA) ↔ ∀β ≺ a Con(PA+⌜Con★(β,PA)⌝)"),
]

# Acceptance criterion 10: each text is already canonical.
NORMALIZE_CORPUS = [
    "0", "1", "7", "w", "w+1", "w*2", "w*2+1", "w^2", "w^w", "w^(w+1)",
    "w^(w*2)", "e0", "e0+1", "e0*2", "e0+w+1", "phi(1,1)", "phi(2,0)",
    "phi(w,0)", "phi(1,w)", "w^(e0+1)", "phi(e0,0)", "phi(1,2)+w^w*3+w+5",
]

# Acceptance criterion 9, through the CLI, in both output modes.
FORMULA_GOLDENS = [
    (["slowcon"], "∀x(F_e0(x)↓ → Con(ISigma_x + φ))",
     "forall x (F_e0(x)| -> Con(ISigma_x + phi))"),
    (["slowcon", "--top"], "∀x(F_e0(x)↓ → Con(ISigma_x))",
     "forall x (F_e0(x)| -> Con(ISigma_x))"),
    (["sv"], "φ ∧ ∀x(Con(ISigma_x + φ) → Con²(ISigma_x + φ))",
     "phi and forall x (Con(ISigma_x + phi) -> Con^2(ISigma_x + phi))"),
    (["svstar"], "φ ∨ (¬φ ∧ ψ ∧ ∀x(Con(ISigma_x + (¬φ ∧ ψ)) → Con²(ISigma_x + (¬φ ∧ ψ))) ∧ ψ)",
     "phi or (not phi and psi and forall x (Con(ISigma_x + (not phi and psi)) -> "
     "Con^2(ISigma_x + (not phi and psi))) and psi)"),
    (["rosser"], "φ ∨ (ψ ∧ θ)", "phi or (psi and theta)"),
    (["constar"], "PA ⊢ Con★(α,T) ↔ ∀β ≺ α Con(T+⌜Con★(β,T)⌝)",
     "PA |- Con*(alpha,T) <-> forall beta < alpha Con(T+[Con*(beta,T)])"),
]

# ROADMAP item 2: the documented contract is exit 1 with one "error: range:"
# line, promptly.  At the seed each one fails: three end in a RecursionError,
# the 1e11-level tower runs into the per-op time limit, and mul exits 0.
KNOWN_DEFECTS = [
    ["ord", "normalize", "(" * 3000 + "1" + ")" * 3000],
    ["worm", "o", " ".join(str(i) for i in range(1500))],
    ["theory", "pi-ordinal", "(rfn 200000 1 EA+)", "1"],
    ["ord", "mul", "w", "99999999999999999999"],
    ["theory", "pi-ordinal", "(rfn 99999999999 1 EA+)", "1"],
]

USAGE_ERRORS = [
    ["ord"], ["ord", "cmp", "w"], ["--fuel", "abc", "ord", "enum"],
    ["theory", "pi-ordinal", "PA", "one"], ["frobnicate"], ["ord", "frobnicate"],
]


def _cli_ok(argv, out: str) -> dict:
    return {"argv": argv, "rc": 0, "out": out}


def _cli_err(argv, code: str) -> dict:
    return {"argv": argv, "rc": 1, "code": code}


def cli_success(rng) -> dict:
    """A seeded command whose answer the oracle knows."""
    kind = rng.randrange(12)
    if kind < 5:
        xt, _, x = cnf_text(rng, 3)
        yt, _, y = cnf_text(rng, 3)
        if kind == 0:
            return _cli_ok(["ord", "normalize", xt], oracle.fmt(x))
        if kind == 1:
            return _cli_ok(["ord", "cmp", xt, yt], CMP_NAMES[oracle.cmp(x, y)])
        if kind == 2:
            return _cli_ok(["ord", "add", xt, yt], oracle.fmt(oracle.add(x, y)))
        if kind == 3:
            n = rng.randint(0, 5)
            return _cli_ok(["ord", "mul", xt, str(n)], oracle.fmt(oracle.mul_nat(x, n)))
        if rng.random() < 0.5:
            return _cli_ok(["ord", "phi", "0", xt], oracle.fmt(oracle.omega_power(x)))
        return _cli_ok(["ord", "next-phi", "0", xt], oracle.fmt(oracle.next_omega_power(x)))
    if kind < 8:
        u = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 12)))
        v = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 12)))
        ut, vt = " ".join(map(str, u)), " ".join(map(str, v))
        if kind == 5:
            return _cli_ok(["worm", "o", ut], oracle.fmt(oracle.worm_ordinal(u)))
        if kind == 6:
            c = oracle.cmp(oracle.worm_ordinal(u), oracle.worm_ordinal(v))
            return _cli_ok(["worm", "cmp", ut, vt], CMP_NAMES[c])
        return _cli_ok(["worm", "to-theory", ut], oracle.worm_theory_text(u))
    if kind < 10:
        text, tower = tower_text(rng, rng.randint(1, 3))
        k = rng.randint(1, tower[0][0])
        gamma = oracle.reduce_tower(tower, k)
        if kind == 8:
            return _cli_ok(["theory", "pi-ordinal", text, str(k)], oracle.fmt(gamma))
        return _cli_ok(["theory", "reduce", text, str(k)], oracle.theory_text(gamma, k))
    if kind == 10:
        at, alpha = nonzero_cnf_text(rng, 2)
        return _cli_ok(["theory", "stage", "EA+", at], f"(con {oracle.fmt(alpha)} EA+)")
    n = rng.randint(20, 300)
    k = rng.choice((None, rng.randint(0, n), rng.randint(0, n)))
    text, fn = predicate(rng, k, 3 * n)
    assert oracle.least_counterexample(fn, 3 * n) == k, text
    which = rng.randrange(3)
    if which == 0:
        ascending = "yes" if k is None or k >= n else "no"
        return _cli_ok(["notation", "kreisel", text, str(n)],
                       f"predicate: {text}\nwindow: {n}\nascending: {ascending}")
    if which == 1:
        count = sum(1 for i in range(n + 1) if not fn(i))
        descents = 0 if k is None else max(0, n - k)
        equivalent = "yes" if (descents == 0) == (count == 0) else "no"
        return _cli_ok(["notation", "audit", text, str(n)],
                       f"window: {n}\ncounterexamples: {count}\ndescents: {descents}\n"
                       f"equivalent: {equivalent}")
    chain = "none" if k is None or k > n else " ".join(map(str, range(k, k + min(n, n - k + 1))))
    return _cli_ok(["--fuel", str(n), "notation", "descend", text], chain)


def cli_error(rng) -> dict:
    """A seeded command that must fail with a given error code or usage."""
    kind = rng.randrange(10)
    xt = cnf_text(rng, 2)[0]
    if kind == 0:
        bad = rng.choice((xt + ")", "(" + xt, xt + "*", xt + "+", "?" + xt))
        return _cli_err(["ord", "normalize", bad], "parse")
    if kind == 1:
        return _cli_err(["worm", "o", rng.choice(("1 x 2", "", "0 -1", "2 0 a"))], "parse")
    if kind == 2:
        bad = rng.choice(("(rfn 2 1 EA)", "(foo 1 EA+)", "(rfn 2 0 EA+)", "(rfn 2 1 EA+"))
        return _cli_err(["theory", "pi-ordinal", bad, "1"], "parse")
    if kind == 3:
        return _cli_err(["ord", "normalize", str(2**32 + rng.randint(1, 10**6))], "range")
    if kind == 4:
        return _cli_err(["worm", "of-ordinal", rng.choice(("e0", "phi(1,1)", "e0+" + xt))], "range")
    if kind == 5:
        return _cli_err(["notation", "kreisel", "x != 7", str(10001 + rng.randint(0, 5000))], "range")
    if kind == 6:
        return _cli_err(["notation", "audit", rng.choice(("x !! 7", "x <", "y = 1")), "10"], "predicate")
    if kind == 7:
        bad = rng.choice(("(rfn 2 1 (con w EA+))", "(rfn 3 1 (rfn 2 2 EA+))"))
        return _cli_err(["theory", "pi-ordinal", bad, "1"], "unsupported")
    if kind == 8:
        return _cli_err(["theory", "catalog", rng.choice(("Foo", "ZFC", "PA+Con^3(PA)"))], "catalog")
    return {"argv": rng.choice(USAGE_ERRORS), "rc": 2}


class CliSession:
    """Seeded argv through in-process cli.run, covering every group, with
    error paths beside success paths and the five ROADMAP item-2 inputs at
    a fixed share."""

    name = "cli-session"
    cycle = 1
    time_limit = 0.25
    rss_rounds = 3
    generated_ok = 104
    generated_err = 34

    def round(self, rng, u: float) -> list[dict]:
        ops = [_cli_ok(argv, out) for argv, out in README]
        ops += [_cli_ok(["ord", "normalize", t], t) for t in NORMALIZE_CORPUS]
        for args, utf8, ascii_text in FORMULA_GOLDENS:
            ops.append(_cli_ok(["formula"] + args, utf8))
            ops.append(_cli_ok(["--ascii", "formula"] + args, ascii_text))
        ops += [cli_success(rng) for _ in range(self.generated_ok)]
        ops += [cli_error(rng) for _ in range(self.generated_err)]
        ops += [dict(_cli_err(argv, "range"), defect=True) for argv in KNOWN_DEFECTS]
        rng.shuffle(ops)
        return ops

    def run(self, api, op) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = api.run(list(op["argv"]))
        return rc, out.getvalue(), err.getvalue()

    def check(self, op, r) -> str | None:
        rc, out, err = r
        if rc != op["rc"]:
            return f"exit_code: exit {rc}, want {op['rc']}"
        if rc == 0:
            if out != op["out"] + "\n" or err:
                return f"stdout: got {out[:80]!r}, want {op['out'][:80]!r}"
            return None
        if out:
            return f"stdout: a failing command printed {out[:80]!r}"
        if rc == 1:
            lines = err.splitlines()
            if len(lines) != 1 or not lines[0].startswith(f"error: {op['code']}: "):
                return f"stderr_shape: want one 'error: {op['code']}:' line, got {err[:120]!r}"
            return None
        lines = err.splitlines()
        if not lines or not lines[0].startswith("usage:") or ": error: " not in lines[-1]:
            return f"stderr_shape: want argparse usage and error lines, got {err[:120]!r}"
        return None

    def elems(self, op) -> int:
        argv = op["argv"]
        if op["rc"] != 0 or "notation" not in argv:
            return 0
        return int(argv[1]) if "descend" in argv else int(argv[-1])


CLI_FAULTS = {
    "exit_code": lambda op, r: (r[0] + 1, r[1], r[2]) if op["rc"] == 0 else None,
    "stdout": lambda op, r: (r[0], r[1] + "x", r[2]) if op["rc"] == 0 else None,
    "stderr_shape": lambda op, r: (r[0], r[1], r[2] + r[2]) if op["rc"] == 1 else None,
}

FAULTS = {
    "ordinal-core": ORDINAL_FAULTS,
    "reflection": REFLECTION_FAULTS,
    "notation-lab": NOTATION_FAULTS,
    "cli-session": CLI_FAULTS,
}

WORKLOADS = {w.name: w for w in (OrdinalCore(), Reflection(), NotationLab(), CliSession())}

"""Acceptance suite: one test per criterion, each printing a pass line.

Run as  pytest tests/test_acceptance.py -v -s  to see the per-criterion lines;
stated time budgets are asserted with perf counters.
"""

import itertools
import random
import time

import pytest

from conftest import oracle_next_phi, random_term
from ordlab.cli import run
from ordlab.formulas import (
    TOP,
    Hole,
    con_star_equation,
    pretty,
    rosser_combination,
    slowcon,
    sv,
    sv_star,
)
from ordlab.notation import audit, check_ascending, find_descending, kreisel_presentation
from ordlab.ordinals import (
    EPSILON0,
    EQ,
    GT,
    LT,
    ONE,
    OMEGA,
    ZERO,
    add,
    compare,
    enumerate_terms,
    in_phi_range,
    is_natural,
    next_phi_value,
    parse_ordinal,
    to_int,
    veblen,
)
from ordlab.theories import omega_model_dilator, pi_ordinal
from ordlab.worms import (
    Worm,
    drop,
    lift,
    theory_of_worm,
    worm_of_ordinal,
    worm_ordinal,
)

SEED = 20240101


def _announce(number, message):
    print(f"criterion {number}: PASS — {message}")


def _all_worms(max_len, alphabet=(0, 1, 2)):
    for n in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=n):
            yield Worm(letters)


def test_criterion_01_ordinal_order_laws():
    start = time.perf_counter()
    rng = random.Random(SEED)
    pool = enumerate_terms(4)
    randoms = [random_term(rng, 6) for _ in range(10_000)]

    # trichotomy: exhaustive on the pool, sampled over the random terms
    for x in pool:
        for y in pool:
            c = compare(x, y)
            assert c in (LT, EQ, GT)
            assert compare(y, x) == -c
            assert (c == EQ) == (x == y)
    for x in randoms:
        y = rng.choice(randoms)
        c = compare(x, y)
        assert c in (LT, EQ, GT) and compare(y, x) == -c and (c == EQ) == (x == y)

    everything = pool + randoms
    for _ in range(10_000):
        x, y, z = rng.choice(everything), rng.choice(everything), rng.choice(everything)
        cxy, cyz = compare(x, y), compare(y, z)
        if cxy <= 0 and cyz <= 0:
            cxz = compare(x, z)
            assert cxz <= 0
            if cxy == LT or cyz == LT:
                assert cxz == LT

    for _ in range(10_000):
        x, y, z = rng.choice(everything), rng.choice(everything), rng.choice(everything)
        if compare(y, z) == LT:
            assert compare(add(x, y), add(x, z)) == LT
        assert compare(x, add(x, y)) <= 0

    for _ in range(10_000):
        a, b = rng.choice(everything), rng.choice(everything)
        if compare(a, b) == LT:
            x = rng.choice(everything)
            target = veblen(b, x)
            assert veblen(a, target) == target

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _announce(1, f"order laws on {len(pool)} pooled + 10^4 random terms ({elapsed:.1f}s)")


def test_criterion_02_surrogate_vector_oracle():
    start = time.perf_counter()

    def vector(t):
        coeffs = {}
        for atom, count in t.parts:
            if not atom.index.is_zero() or not is_natural(atom.arg):
                return None
            coeffs[to_int(atom.arg)] = count
        return coeffs

    def vec_cmp(u, v):
        for e in sorted(set(u) | set(v), reverse=True):
            cu, cv = u.get(e, 0), v.get(e, 0)
            if cu != cv:
                return LT if cu < cv else GT
        return EQ

    small = [(t, vector(t)) for t in enumerate_terms(5)]
    small = [(t, v) for t, v in small if v is not None]
    assert len(small) > 10
    disagreements = sum(
        1
        for x, vx in small
        for y, vy in small
        if compare(x, y) != vec_cmp(vx, vy)
    )
    assert disagreements == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s"
    _announce(2, f"coefficient-vector agreement on {len(small)} sub-w^w terms ({elapsed:.1f}s)")


def test_criterion_03_next_phi_oracle():
    pool4 = enumerate_terms(4)
    pool5 = enumerate_terms(5)
    checks = 0
    for a in (ZERO, ONE):
        for beta in pool4:
            got = next_phi_value(a, beta)
            assert compare(got, beta) == GT
            assert in_phi_range(a, got)
            least = oracle_next_phi(a, beta, pool5 + [got])
            assert least is not None and least == got
            checks += 1
    _announce(3, f"next-phi minimality against the enumeration oracle, {checks} cases")


def test_criterion_04_worm_suite():
    start = time.perf_counter()
    pool = list(_all_worms(5))
    values = {w: worm_ordinal(w) for w in pool}

    for w in pool:
        if 0 in w.letters:
            i = w.letters.index(0)
            head, tail = Worm(w.letters[:i]), Worm(w.letters[i + 1:])
            assert values[w] == add(worm_ordinal(tail), veblen(ZERO, worm_ordinal(drop(head))))
        if not w.is_top():
            assert worm_ordinal(lift(w, 1)) == veblen(ZERO, values[w])

    # comparison transitivity: exhaustive agreement with a linearization
    ordered = sorted(pool, key=lambda w: [values[w]])
    rank = {}
    position = 0
    for i, w in enumerate(ordered):
        if i and compare(values[w], values[ordered[i - 1]]) == GT:
            position = i
        rank[w] = position
    for u in pool:
        for v in pool:
            c = compare(values[u], values[v])
            assert c == (LT if rank[u] < rank[v] else GT if rank[u] > rank[v] else EQ)

    sub_eps = [t for t in enumerate_terms(4) if compare(t, EPSILON0) == LT]
    assert sub_eps
    for x in sub_eps:
        assert worm_ordinal(worm_of_ordinal(x)) == x

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.1f}s"
    _announce(4, f"worm laws exhaustive on {len(pool)} worms ({elapsed:.1f}s)")


def test_criterion_05_classical_calibration_values(capsys):
    assert run(["theory", "pi-ordinal", "PA", "1"]) == 0
    assert capsys.readouterr().out == "e0\n"
    assert run(["theory", "pi-ordinal", "PA+Con(PA)", "1"]) == 0
    assert capsys.readouterr().out == "e0*2\n"
    with capsys.disabled():
        _announce(5, "PA analyzes to e0 and PA+Con(PA) to e0*2")


def test_criterion_06_worm_engine_coherence():
    count = 0
    for w in _all_worms(4):
        assert pi_ordinal(theory_of_worm(w), 1) == worm_ordinal(w)
        count += 1
    _announce(6, f"reduction engine matches o(.) on all {count} worms of length <= 4")


def test_criterion_07_dilator_evaluation():
    assert omega_model_dilator(ZERO, ZERO) == EPSILON0

    beta = ZERO
    outputs = []
    for _ in range(100):
        value = omega_model_dilator(ZERO, beta)
        outputs.append(value)
        beta = value
    for u, v in zip(outputs, outputs[1:]):
        assert compare(u, v) == LT

    rng = random.Random(SEED)
    pool = enumerate_terms(4)
    for alpha in (ZERO, ONE, OMEGA):
        a1 = add(ONE, alpha)
        for _ in range(100):
            x, y = rng.choice(pool), rng.choice(pool)
            vx, vy = omega_model_dilator(alpha, x), omega_model_dilator(alpha, y)
            assert in_phi_range(a1, vx)
            if compare(x, y) == LT:
                assert compare(vx, vy) <= 0
    _announce(7, "dilator value at (0,0) is e0; 100-point chains increase strictly; "
                 "outputs are phi_{1+alpha} values")


BATTERY = [
    "true",
    "x != 0",
    "x != 7",
    "x != 199",
    "x*x <= 10000 or x != 50",
    "x != 120 and x != 130",
]


def test_criterion_08_notation_lab():
    start = time.perf_counter()
    bound = 200
    for text in BATTERY:
        p = kreisel_presentation(text)
        k = p.least_counterexample(bound)
        ranks = {}
        for i in range(bound + 1):
            ranks[i] = i if (k is None or i < k) else k + (bound - i)
        # agreement with a linearization on all pairs gives trichotomy and
        # transitivity exhaustively below the bound
        for a in range(bound):
            for b in range(bound):
                assert p.less(a, b) == (ranks[a] < ranks[b])

        for n in range(bound + 1):
            total_below = all(p.predicate.evaluate(x) for x in range(n))
            assert check_ascending(p, n) == total_below

        chain = find_descending(p, bound)
        if k is None:
            assert chain is None
        else:
            assert chain and chain[0] == k
            for hi, lo in zip(chain, chain[1:]):
                assert p.less(lo, hi)

        report = audit(p, bound)
        assert report.equivalent == ((report.descents == 0) == (report.counterexamples == 0))

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 8 took {elapsed:.1f}s"
    _announce(8, f"battery of {len(BATTERY)} predicates exhaustively below {bound} ({elapsed:.1f}s)")


def test_criterion_09_formula_goldens():
    phi, psi, theta = Hole("φ"), Hole("ψ"), Hole("θ")
    cases = {
        "slowcon": (slowcon(phi),
                    "∀x(F_e0(x)↓ → Con(ISigma_x + φ))",
                    "forall x (F_e0(x)| -> Con(ISigma_x + phi))"),
        "slowcon@top": (slowcon(TOP),
                        "∀x(F_e0(x)↓ → Con(ISigma_x))",
                        "forall x (F_e0(x)| -> Con(ISigma_x))"),
        "sv": (sv(phi),
               "φ ∧ ∀x(Con(ISigma_x + φ) → Con²(ISigma_x + φ))",
               "phi and forall x (Con(ISigma_x + phi) -> Con^2(ISigma_x + phi))"),
        "sv_star": (sv_star(phi, psi),
                    "φ ∨ (¬φ ∧ ψ ∧ ∀x(Con(ISigma_x + (¬φ ∧ ψ)) → "
                    "Con²(ISigma_x + (¬φ ∧ ψ))) ∧ ψ)",
                    "phi or (not phi and psi and forall x (Con(ISigma_x + "
                    "(not phi and psi)) -> Con^2(ISigma_x + (not phi and psi))) and psi)"),
        "rosser": (rosser_combination(phi, psi, theta),
                   "φ ∨ (ψ ∧ θ)",
                   "phi or (psi and theta)"),
    }
    for name, (formula, golden, golden_ascii) in cases.items():
        assert pretty(formula) == golden, name
        assert pretty(formula, ascii_mode=True) == golden_ascii, name
    assert con_star_equation("α", "T") == "PA ⊢ Con★(α,T) ↔ ∀β ≺ α Con(T+⌜Con★(β,T)⌝)"
    assert con_star_equation("α", "T", ascii_mode=True) == (
        "PA |- Con*(alpha,T) <-> forall beta < alpha Con(T+[Con*(beta,T)])"
    )
    _announce(9, "slowcon/sv/sv_star/rosser/constar byte-match goldens in both modes")


GOLDEN_CORPUS = [
    "0", "1", "7", "w", "w+1", "w*2", "w*2+1", "w^2", "w^w", "w^(w+1)",
    "w^(w*2)", "e0", "e0+1", "e0*2", "e0+w+1", "phi(1,1)", "phi(2,0)",
    "phi(w,0)", "phi(1,w)", "w^(e0+1)", "phi(e0,0)", "phi(1,2)+w^w*3+w+5",
]


def test_criterion_10_cli_contract(capsys):
    for text in GOLDEN_CORPUS:
        assert run(["ord", "normalize", text]) == 0
        assert capsys.readouterr().out == text + "\n"

    reruns = [
        ["ord", "enum"],
        ["theory", "pi-ordinal", "PA+Con(PA)", "1"],
        ["formula", "svstar"],
        ["worm", "o", "2 0 1"],
    ]
    snapshots = []
    for argv in reruns:
        assert run(list(argv)) == 0
        snapshots.append(capsys.readouterr().out)
    for argv, snapshot in zip(reruns, snapshots):
        assert run(list(argv)) == 0
        assert capsys.readouterr().out == snapshot

    # three crafted error inputs
    assert run(["ord", "cmp", "w^^", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: parse:")
    assert run(["worm", "of-ordinal", "e0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: range:")
    assert run(["ord", "frobnicate"]) == 2
    capsys.readouterr()
    with capsys.disabled():
        _announce(10, "round-trip corpus, byte-identical reruns, exit-code discipline")

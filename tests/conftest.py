import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from ordlab.cli import _COMMANDS
from ordlab.formulas import TOP, Hole, rosser_combination, slowcon, sv, sv_star
from ordlab.ordinals import add, compare, enumerate_terms, from_int, in_phi_range, veblen
from ordlab.worms import Worm, worm_ordinal

# Every Hypothesis test draws the same examples on every run and keeps no
# example database, so a failure anywhere reproduces everywhere.  Each
# test's own max_examples and deadline still apply.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# The benchmark's reference answers, computed without ordlab, serve the
# tests as well: ``import oracle`` loads bench/oracle.py.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

# The predicates acceptance criterion 8 and the notation-lab tests run.
BATTERY = [
    "true",
    "x != 0",
    "x != 7",
    "x != 199",
    "x*x <= 10000 or x != 50",
    "x != 120 and x != 130",
]

# Canonical ordinal texts, each printed back unchanged by parse and format.
GOLDEN_CORPUS = [
    "0", "1", "7", "w", "w+1", "w*2", "w*2+1", "w^2", "w^w", "w^(w+1)",
    "w^(w*2)", "e0", "e0+1", "e0*2", "e0+w+1", "phi(1,1)", "phi(2,0)",
    "phi(w,0)", "phi(1,w)", "w^(e0+1)", "phi(e0,0)", "phi(1,2)+w^w*3+w+5",
]

PHI, PSI, THETA = Hole("φ"), Hole("ψ"), Hole("θ")

# Acceptance criterion 9's goldens: each formula template with its UTF-8 and
# its ASCII rendering.  test_formulas.py's golden tests read them too, and
# take their ids from the keys.
FORMULA_GOLDENS = {
    "slowcon": (slowcon(PHI),
                "∀x(F_e0(x)↓ → Con(ISigma_x + φ))",
                "forall x (F_e0(x)| -> Con(ISigma_x + phi))"),
    "slowcon_top": (slowcon(TOP),
                    "∀x(F_e0(x)↓ → Con(ISigma_x))",
                    "forall x (F_e0(x)| -> Con(ISigma_x))"),
    "sv": (sv(PHI),
           "φ ∧ ∀x(Con(ISigma_x + φ) → Con²(ISigma_x + φ))",
           "phi and forall x (Con(ISigma_x + phi) -> Con^2(ISigma_x + phi))"),
    "sv_star": (sv_star(PHI, PSI),
                "φ ∨ (¬φ ∧ ψ ∧ ∀x(Con(ISigma_x + (¬φ ∧ ψ)) → Con²(ISigma_x + (¬φ ∧ ψ))) ∧ ψ)",
                "phi or (not phi and psi and forall x (Con(ISigma_x + (not phi and psi)) -> "
                "Con^2(ISigma_x + (not phi and psi))) and psi)"),
    "rosser": (rosser_combination(PHI, PSI, THETA),
               "φ ∨ (ψ ∧ θ)",
               "phi or (psi and theta)"),
}


def random_term(rng: random.Random, depth: int):
    """Random canonical term; canonical because it is built via the
    normalizing constructors."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return from_int(rng.randint(0, 3))
    if roll < 0.75:
        return veblen(random_term(rng, depth - 1), random_term(rng, depth - 1))
    return add(random_term(rng, depth - 1), random_term(rng, depth - 1))


def oracle_next_phi(a, beta, candidates):
    """Independent check for next_phi_value: the least candidate strictly
    above beta lying in the range of phi_a, or None if the filter is empty."""
    hits = [t for t in candidates if compare(t, beta) > 0 and in_phi_range(a, t)]
    if not hits:
        return None
    least = hits[0]
    for t in hits[1:]:
        if compare(t, least) < 0:
            least = t
    return least


def worms_up_to(length):
    """Every worm of at most ``length`` letters from 0, 1 and 2, shortest first."""
    for n in range(length + 1):
        for letters in itertools.product((0, 1, 2), repeat=n):
            yield Worm(letters)


def cold_worm_ordinal(w: Worm):
    """o(w) from an empty cache, so that every piece of the worm is worked out."""
    worm_ordinal.cache_clear()
    return worm_ordinal(w)


def nest(opening: str, core: str, closing: str, depth: int) -> str:
    """``core`` inside ``depth`` pairs of ``opening`` and ``closing``."""
    return opening * depth + core + closing * depth


@pytest.fixture(scope="session")
def pool4():
    return enumerate_terms(4)


@pytest.fixture(scope="session")
def pool5():
    return enumerate_terms(5)


@pytest.fixture(scope="session")
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def registered_commands() -> list[tuple[str, str]]:
    """Every (group, command) pair of the CLI's command table, in order."""
    return [(group, command) for group, command, *_ in _COMMANDS]

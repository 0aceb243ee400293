import argparse
import random

import pytest

from ordlab.cli import build_parser

from ordlab.ordinals import add, compare, enumerate_terms, from_int, in_phi_range, veblen


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


@pytest.fixture(scope="session")
def pool4():
    return enumerate_terms(4)


@pytest.fixture(scope="session")
def pool5():
    return enumerate_terms(5)


@pytest.fixture(scope="session")
def rng():
    return random.Random(0xC0FFEE)


def _choices(parser: argparse.ArgumentParser) -> dict:
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


@pytest.fixture(scope="session")
def registered_commands() -> list[tuple[str, str]]:
    """Every (group, command) pair build_parser() registers, in order."""
    return [(group, command)
            for group, group_parser in _choices(build_parser()).items()
            for command in _choices(group_parser)]

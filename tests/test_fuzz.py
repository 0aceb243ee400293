"""Every text parser, fed text of at most 60 characters built from its
grammar's alphabet plus two digit-like characters, either returns a value or
raises an OrdlabError; nothing else escapes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlab.errors import OrdlabError
from ordlab.notation import parse_predicate
from ordlab.ordinals import parse_ordinal
from ordlab.theories import TRANSFORMS, parse_catalog, parse_rules, parse_theory
from ordlab.worms import parse_worm

# "²" is a digit to str.isdigit but not to int(); "١" (Arabic-Indic one) is
# a decimal digit to both.
DIGITS = list("0123456789²١")

ORDINAL = DIGITS + [" ", "w", "^", "e0", "+", "*", "phi", "(", ",", ")"]
THEORY = ORDINAL + ["(rfn ", "(con ", "EA+", "PA"]
WORM = DIGITS + [" ", "\t", "T"]
PREDICATE = DIGITS + [" ", "x", "+", "*", "<", "<=", ">", ">=", "=", "!=", "(", ")",
                      "and", "or", "not", "true", "false"]
PATTERN = DIGITS + [" ", "(rfn ", "(", ")", "n+1", "n", "a", "t", "EA+", "PA"]


def _text(alphabet: list[str]):
    return st.lists(st.sampled_from(alphabet), max_size=40).map(lambda parts: "".join(parts)[:60])


# Text reaches an inner rule only behind the right opening, so most theories
# open with a head, and most rules and catalog lines keep their frame.
THEORIES = st.builds(lambda head, rest: (head + rest)[:60],
                     st.sampled_from(["", "(rfn ", "(con "]), _text(THEORY))
RULES = st.one_of(
    st.builds("rule r: {} => {} cite c".format, _text(PATTERN), st.sampled_from(TRANSFORMS)),
    _text(PATTERN + ["rule ", ":", "=>", "cite", "#", "\n"]),
)
CATALOG = st.lists(
    st.one_of(THEORIES.map("name = {}".format), st.sampled_from(["", "# note", "name"])),
    max_size=3,
).map("\n".join)

CASES = [
    (parse_ordinal, _text(ORDINAL)),
    (parse_worm, _text(WORM)),
    (parse_theory, THEORIES),
    (parse_predicate, _text(PREDICATE)),
    (parse_rules, RULES),
    (parse_catalog, CATALOG),
]


@pytest.mark.parametrize("parse, texts", CASES, ids=[parse.__name__ for parse, _ in CASES])
def test_parsers_raise_only_ordlab_errors(parse, texts):
    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(texts)
    def check(text):
        try:
            parse(text)
        except OrdlabError:
            pass

    check()

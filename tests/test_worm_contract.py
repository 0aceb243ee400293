"""The worms layer's cache and the errors of worm_of_ordinal, pinned.

o(.) is memoised on letter tuples in one bounded cache, reachable as
worm_ordinal.cache_info() and worm_ordinal.cache_clear(); the pieces a worm
splits into go through the same cache.  worm_of_ordinal's refusals keep
their text, each one error line at the CLI.
"""

import pytest

from ordlab._scan import MAX_DEPTH
from ordlab.cli import run
from ordlab.errors import RangeError
from ordlab.ordinals import iter_omega
from ordlab.worms import parse_worm, worm_of_ordinal, worm_ordinal


def test_cache_is_bounded_at_two_to_the_sixteen():
    assert worm_ordinal.cache_info().maxsize == 2**16


def test_cache_clear_empties_the_cache():
    worm_ordinal(parse_worm("2 0 1 1"))
    assert worm_ordinal.cache_info().currsize > 0
    worm_ordinal.cache_clear()
    info = worm_ordinal.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_inner_pieces_share_the_cache():
    # "1 0 1" splits into the pieces "1" and "1": the second is a hit.
    worm_ordinal.cache_clear()
    assert str(worm_ordinal(parse_worm("1 0 1"))) == "w*2"
    info = worm_ordinal.cache_info()
    assert info.hits >= 1
    assert info.currsize >= 2


@pytest.mark.parametrize("text, message", [
    # The inner level w*1000000 overflows first, and its error names it.
    ("w^(w*1000000)", "the worm of w*1000000 needs more than 1000000 letters"),
    ("w^w^w*600000", "the worm of w^w^w*600000 needs more than 1000000 letters"),
    ("e0", "e0 is not below e0, which worms cannot reach"),
])
def test_of_ordinal_errors_at_the_cli(capsys, text, message):
    assert run(["worm", "of-ordinal", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: range: {message}\n"


def test_of_ordinal_letter_cap_at_the_api():
    assert worm_of_ordinal(iter_omega(MAX_DEPTH, 1)).letters == (MAX_DEPTH,)
    with pytest.raises(RangeError) as caught:
        worm_of_ordinal(iter_omega(MAX_DEPTH + 1, 1))
    assert str(caught.value) == f"worm letter {MAX_DEPTH + 1} exceeds the depth cap {MAX_DEPTH}"

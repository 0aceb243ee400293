"""The demo scripts are part of the deliverable; make sure they keep running."""

import pathlib
import runpy

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("==") >= 3  # each demo narrates several sections


# Captured before presentations remembered their scans; the memo and the
# bound cap must change nothing a reader of the demo can see.
PATHOLOGICAL_ORDERS_OUT = """\
== a totally true predicate gives plain omega ==
  ascending through 100: True
  descending chain within 1000: None

== one counterexample flips the tail into a descending chain ==
  3 < 6 ? True    6 < 7 ? True    9 < 8 ? True
  descent from the least counterexample: 7 > 8 > 9 > 10 > 11 > 12 > 13 > 14 > 15 > 16 > 17 > 18 > 19 > 20

== the window decides what you can see ==
  window   5: counterexamples=0 descents=0 equivalent=yes
  window   6: counterexamples=0 descents=0 equivalent=yes
  window   7: counterexamples=1 descents=0 equivalent=no
  window   8: counterexamples=1 descents=1 equivalent=yes
  window  50: counterexamples=1 descents=43 equivalent=yes
  (below the counterexample the order is indistinguishable from omega)

== deciding a comparison never looks past its arguments ==
  queries for less(4,5): [0, 1, 2, 3, 4, 5]
  queries for less(30,12): [0, 1, 2, 3, 4, 5, 6, 7]  (early exit at the counterexample)

== a hidden counterexample far out ==
  ascending through 150: True
  ascending through 200: False
  descent within 200: [199, 200]
"""


def test_pathological_orders_prints_the_same_bytes(capsys):
    runpy.run_path(str(DEMO_DIR / "pathological_orders.py"), run_name="__main__")
    assert capsys.readouterr().out == PATHOLOGICAL_ORDERS_OUT

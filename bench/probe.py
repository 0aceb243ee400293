"""Fresh-process measurements for bench/run.py.

    python probe.py setup     import ordlab and build what every run needs,
                              then print "ready"
    python probe.py enum      time enumerate_terms(8) ENUM_REPEATS times,
                              each with the reference kernel timed before,
                              during and after it, and print the times and
                              whether every output was right, as JSON

run.py starts this with PYTHONPATH pointing at the checkout's src/, and
calls prepare() itself so that its loop starts from the same set-up.
"""

import json
import sys

import speed

ENUM_SIZE = 8
ENUM_COUNT = 10409
ENUM_REPEATS = 2


def prepare():
    """The set-up that setup_s measures."""
    from ordlab import cli, theories

    theories.default_rules()
    theories.default_catalog()
    cli.build_parser()


def setup():
    prepare()
    print("ready", flush=True)


def enum():
    from ordlab.ordinals import compare, enumerate_terms

    report = {"time": [], "scaled": [], "ok": True}
    for _ in range(ENUM_REPEATS):
        terms, wall, scaled = speed.timed(lambda: enumerate_terms(ENUM_SIZE))
        report["time"].append(wall)
        report["scaled"].append(scaled)
        report["ok"] &= len(terms) == ENUM_COUNT and all(
            compare(a, b) < 0 for a, b in zip(terms, terms[1:]))
    print(json.dumps(report))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup()
    else:
        enum()

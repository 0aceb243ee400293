"""Command-line surface: deterministic text in, deterministic text out.

Success output goes to stdout only; diagnostics to stderr.  Exit codes:
0 success, 1 domain error (one machine-parsable "error: <code>: ..." line),
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import _module
from ._scan import DEFAULT_FUEL
from .errors import OrdlabError

_CMP_NAMES = {-1: "LT", 0: "EQ", 1: "GT"}

# Each group: its help text and the library module its commands call.
_GROUPS = {
    "ord": ("ordinal arithmetic in Veblen normal form", "ordinals"),
    "worm": ("GLP worms and their ordinals", "worms"),
    "theory": ("iterated-reflection theory algebra", "theories"),
    "dilator": ("omega-model reflection dilator", "theories"),
    "notation": ("pathological presentations of omega", "notation"),
    "formula": ("explicit formula constructions", "formulas"),
}


# Readers: each turns an argument's text into a value.  They and run() are
# the only places that load a library module: this module itself imports
# just the limits and the error types.

def _ordinal(text: str):
    return _module("ordinals").parse_ordinal(text)


def _worm(text: str):
    return _module("worms").parse_worm(text)


def _theory(text: str):
    theories = _module("theories")
    catalog = theories.default_catalog()
    if text in catalog:
        return catalog[text]
    return theories.parse_theory(text)


def _presentation(text: str):
    return _module("notation").kreisel_presentation(text)


def _catalog(m, ns):
    if ns.name is not None:
        return m.catalog_lookup(ns.name)
    return "\n".join(f"{name} = {expr}" for name, expr in m.default_catalog().items())


def _kreisel(m, ns) -> str:
    p = _presentation(ns.predicate)
    ascending = "yes" if m.check_ascending(p, ns.window, fuel=ns.fuel) else "no"
    return f"predicate: {p.predicate.source}\nwindow: {ns.window}\nascending: {ascending}"


def _descend(m, ns) -> str:
    chain = m.find_descending(_presentation(ns.predicate), ns.fuel)
    return "none" if chain is None else " ".join(map(str, chain))


def _formula(make):
    """A formula command's call: the formula ``make(m, ns)``, built from the
    formulas module ``m``, rendered in the output mode --ascii selects."""
    return lambda m, ns: m.pretty(make(m, ns), ascii_mode=ns.ascii)


def _arg(name: str, **options):
    """A command argument: its name and its argparse options."""
    return name, options


_TOP = _arg("--top", action="store_true", help="instantiate at verum")

# The command table: one row per command, giving its group, name, help,
# arguments and the call that makes the value to print.  A call gets its
# group's module ``m`` and the parsed namespace ``ns``, and reads its
# arguments' texts left to right before any other library work, so the
# first bad argument is the one reported.
_COMMANDS = [
    ("ord", "cmp", "compare two ordinals", [_arg("x"), _arg("y")],
     lambda m, ns: _CMP_NAMES[m.compare(_ordinal(ns.x), _ordinal(ns.y))]),
    ("ord", "add", "ordinal sum", [_arg("x"), _arg("y")],
     lambda m, ns: m.add(_ordinal(ns.x), _ordinal(ns.y))),
    ("ord", "mul", "multiply an ordinal by a natural", [_arg("x"), _arg("n", type=int)],
     lambda m, ns: m.mul_nat(_ordinal(ns.x), ns.n)),
    ("ord", "normalize", "parse and reprint in canonical form", [_arg("x")],
     lambda m, ns: _ordinal(ns.x)),
    ("ord", "phi", "evaluate the Veblen function phi_a(b)", [_arg("a"), _arg("b")],
     lambda m, ns: m.veblen(_ordinal(ns.a), _ordinal(ns.b))),
    ("ord", "next-phi", "least phi_a value strictly above b", [_arg("a"), _arg("b")],
     lambda m, ns: m.next_phi_value(_ordinal(ns.a), _ordinal(ns.b))),
    ("ord", "enum", "list all canonical terms up to --max-nodes", [],
     lambda m, ns: "\n".join(map(str, m.enumerate_terms(ns.max_nodes)))),
    ("worm", "o", "ordinal of a worm", [_arg("w")],
     lambda m, ns: m.worm_ordinal(_worm(ns.w))),
    ("worm", "cmp", "compare two worms", [_arg("u"), _arg("v")],
     lambda m, ns: _CMP_NAMES[m.worm_compare(_worm(ns.u), _worm(ns.v))]),
    ("worm", "of-ordinal", "canonical worm for an ordinal below e0", [_arg("x")],
     lambda m, ns: m.worm_of_ordinal(_ordinal(ns.x))),
    ("worm", "to-theory", "reflection expression of a worm", [_arg("w")],
     lambda m, ns: m.theory_of_worm(_worm(ns.w))),
    ("theory", "pi-ordinal", "Pi_k proof-theoretic ordinal",
     [_arg("theory"), _arg("level", type=int)],
     lambda m, ns: m.pi_ordinal(_theory(ns.theory), ns.level)),
    ("theory", "reduce", "reduce to a single reflection level",
     [_arg("theory"), _arg("level", type=int)],
     lambda m, ns: m.reduce_to_level(_theory(ns.theory), ns.level)),
    ("theory", "stage", "consistency-progression stage", [_arg("theory"), _arg("alpha")],
     lambda m, ns: m.progression_stage(_theory(ns.theory), _ordinal(ns.alpha))),
    ("theory", "catalog", "look up a named theory (or list all)",
     [_arg("name", nargs="?")], _catalog),
    ("dilator", "eval", "evaluate the dilator at (alpha, beta)", [_arg("alpha"), _arg("beta")],
     lambda m, ns: m.omega_model_dilator(_ordinal(ns.alpha), _ordinal(ns.beta))),
    ("notation", "kreisel", "build a presentation and check a window",
     [_arg("predicate"), _arg("window", type=int)], _kreisel),
    ("notation", "audit", "counterexample/descent report for a window",
     [_arg("predicate"), _arg("window", type=int)],
     lambda m, ns: m.audit(_presentation(ns.predicate), ns.window, fuel=ns.fuel)),
    ("notation", "descend", "descending chain within --fuel, if any",
     [_arg("predicate")], _descend),
    ("formula", "slowcon", "slow consistency statement",
     [_TOP], _formula(lambda m, ns: m.slowcon(m.TOP if ns.top else m.Hole("φ")))),
    ("formula", "sv", "Shavrukov-Visser operator",
     [_TOP], _formula(lambda m, ns: m.sv(m.TOP if ns.top else m.Hole("φ")))),
    ("formula", "svstar", "Shavrukov-Visser density function",
     [], _formula(lambda m, ns: m.sv_star(m.Hole("φ"), m.Hole("ψ")))),
    ("formula", "rosser", "Rosser-style interpolant shape",
     [], _formula(lambda m, ns: m.rosser_combination(m.Hole("φ"), m.Hole("ψ"), m.Hole("θ")))),
    ("formula", "constar", "iterated-consistency fixed-point equation",
     [_arg("alpha", nargs="?", default="α"), _arg("theory", nargs="?", default="T")],
     lambda m, ns: m.con_star_equation(ns.alpha, ns.theory, ascii_mode=ns.ascii)),
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built once per process: parsing leaves it as
    it was, and help text reads the terminal width when it is printed."""
    parser = argparse.ArgumentParser(
        prog="ordlab",
        description="Symbolic ordinal notations, worms, reflection theories, "
        "pathological presentations, and formula constructions.",
    )
    parser.add_argument("--ascii", action="store_true", help="render formulas in pure ASCII")
    parser.add_argument("--fuel", type=int, default=DEFAULT_FUEL, metavar="N",
                        help=f"search/window cap for the notation lab (default {DEFAULT_FUEL})")
    parser.add_argument("--max-nodes", type=int, default=6, dest="max_nodes", metavar="N",
                        help="structural-size bound for 'ord enum' (default 6)")
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")
    commands = {}
    for group, name, help_text, arguments, call in _COMMANDS:
        group_help, module = _GROUPS[group]
        if group not in commands:
            commands[group] = groups.add_parser(group, help=group_help).add_subparsers(
                dest="command", required=True, metavar="CMD")
        p = commands[group].add_parser(name, help=help_text)
        for arg_name, options in arguments:
            p.add_argument(arg_name, **options)
        p.set_defaults(module=module, call=call)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        value = ns.call(_module(ns.module), ns)
    except OrdlabError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    print(value)
    return 0


def main():
    # Output is UTF-8 by contract (--ascii is the fallback), whatever the locale.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    raise SystemExit(run())


if __name__ == "__main__":
    main()

"""Command-line surface: deterministic text in, deterministic text out.

Success output goes to stdout only; diagnostics to stderr.  Exit codes:
0 success, 1 domain error (one machine-parsable "error: <code>: ..." line),
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from ._scan import DEFAULT_FUEL
from .errors import OrdlabError

_CMP_NAMES = {-1: "LT", 0: "EQ", 1: "GT"}

_GROUPS = {
    "ord": "ordinal arithmetic in Veblen normal form",
    "worm": "GLP worms and their ordinals",
    "theory": "iterated-reflection theory algebra",
    "dilator": "omega-model reflection dilator",
    "notation": "pathological presentations of omega",
    "formula": "explicit formula constructions",
}


@functools.cache
def _lib(module: str):
    """The library module ``ordlab.<module>``, imported when a command first
    needs it: a command loads only the modules it uses."""
    qualified = f"{__package__}.{module}"
    __import__(qualified)  # unlike importlib.import_module, -X importtime reports it
    return sys.modules[qualified]


# Readers: each turns an argument's text into a value once parsing is done.
# They and the table's calls reach library functions only through _lib: this
# module itself imports just the limits and the error types.

def _ordinal(text: str):
    return _lib("ordinals").parse_ordinal(text)


def _worm(text: str):
    return _lib("worms").parse_worm(text)


def _theory(text: str):
    theories = _lib("theories")
    catalog = theories.default_catalog()
    if text in catalog:
        return catalog[text]
    return theories.parse_theory(text)


def _presentation(text: str):
    return _lib("notation").kreisel_presentation(text)


def _catalog(name: str | None):
    theories = _lib("theories")
    if name is not None:
        return theories.catalog_lookup(name)
    return "\n".join(f"{name} = {expr}" for name, expr in theories.default_catalog().items())


def _kreisel(p, window: int, fuel: int) -> str:
    ascending = _lib("notation").check_ascending(p, window, fuel=fuel)
    return f"predicate: {p.predicate.source}\nwindow: {window}\nascending: {'yes' if ascending else 'no'}"


def _descend(p, fuel: int) -> str:
    chain = _lib("notation").find_descending(p, fuel)
    return "none" if chain is None else " ".join(map(str, chain))


def _formula(make):
    """A formula command's call: the formula ``make(f, ns)``, built from the
    formulas module ``f``, rendered in the output mode --ascii selects."""
    def call(ns):
        f = _lib("formulas")
        return f.pretty(make(f, ns), ascii_mode=ns.ascii)
    return call


def _arg(name: str, read=None, **options):
    """A command argument: its argparse options, and the reader its text goes
    through once parsing is done (None: the value argparse gives, as is)."""
    return name, read, options


_TOP = _arg("--top", action="store_true", help="instantiate at verum")

# The command table: one row per command, giving its group, name, help,
# arguments and the call that makes the value to print from the parsed
# namespace ``ns``.
_COMMANDS = [
    ("ord", "cmp", "compare two ordinals",
     [_arg("x", _ordinal), _arg("y", _ordinal)],
     lambda ns: _CMP_NAMES[_lib("ordinals").compare(ns.x, ns.y)]),
    ("ord", "add", "ordinal sum",
     [_arg("x", _ordinal), _arg("y", _ordinal)], lambda ns: _lib("ordinals").add(ns.x, ns.y)),
    ("ord", "mul", "multiply an ordinal by a natural",
     [_arg("x", _ordinal), _arg("n", type=int)], lambda ns: _lib("ordinals").mul_nat(ns.x, ns.n)),
    ("ord", "normalize", "parse and reprint in canonical form",
     [_arg("x", _ordinal)], lambda ns: ns.x),
    ("ord", "phi", "evaluate the Veblen function phi_a(b)",
     [_arg("a", _ordinal), _arg("b", _ordinal)], lambda ns: _lib("ordinals").veblen(ns.a, ns.b)),
    ("ord", "next-phi", "least phi_a value strictly above b",
     [_arg("a", _ordinal), _arg("b", _ordinal)], lambda ns: _lib("ordinals").next_phi_value(ns.a, ns.b)),
    ("ord", "enum", "list all canonical terms up to --max-nodes",
     [], lambda ns: "\n".join(map(str, _lib("ordinals").enumerate_terms(ns.max_nodes)))),
    ("worm", "o", "ordinal of a worm",
     [_arg("w", _worm)], lambda ns: _lib("worms").worm_ordinal(ns.w)),
    ("worm", "cmp", "compare two worms",
     [_arg("u", _worm), _arg("v", _worm)],
     lambda ns: _CMP_NAMES[_lib("worms").worm_compare(ns.u, ns.v)]),
    ("worm", "of-ordinal", "canonical worm for an ordinal below e0",
     [_arg("x", _ordinal)], lambda ns: _lib("worms").worm_of_ordinal(ns.x)),
    ("worm", "to-theory", "reflection expression of a worm",
     [_arg("w", _worm)], lambda ns: _lib("worms").theory_of_worm(ns.w)),
    ("theory", "pi-ordinal", "Pi_k proof-theoretic ordinal",
     [_arg("theory", _theory), _arg("level", type=int)],
     lambda ns: _lib("theories").pi_ordinal(ns.theory, ns.level)),
    ("theory", "reduce", "reduce to a single reflection level",
     [_arg("theory", _theory), _arg("level", type=int)],
     lambda ns: _lib("theories").reduce_to_level(ns.theory, ns.level)),
    ("theory", "stage", "consistency-progression stage",
     [_arg("theory", _theory), _arg("alpha", _ordinal)],
     lambda ns: _lib("theories").progression_stage(ns.theory, ns.alpha)),
    ("theory", "catalog", "look up a named theory (or list all)",
     [_arg("name", nargs="?")], lambda ns: _catalog(ns.name)),
    ("dilator", "eval", "evaluate the dilator at (alpha, beta)",
     [_arg("alpha", _ordinal), _arg("beta", _ordinal)],
     lambda ns: _lib("theories").omega_model_dilator(ns.alpha, ns.beta)),
    ("notation", "kreisel", "build a presentation and check a window",
     [_arg("predicate", _presentation), _arg("window", type=int)],
     lambda ns: _kreisel(ns.predicate, ns.window, ns.fuel)),
    ("notation", "audit", "counterexample/descent report for a window",
     [_arg("predicate", _presentation), _arg("window", type=int)],
     lambda ns: _lib("notation").audit(ns.predicate, ns.window, fuel=ns.fuel)),
    ("notation", "descend", "descending chain within --fuel, if any",
     [_arg("predicate", _presentation)], lambda ns: _descend(ns.predicate, ns.fuel)),
    ("formula", "slowcon", "slow consistency statement",
     [_TOP], _formula(lambda f, ns: f.slowcon(f.TOP if ns.top else f.Hole("φ")))),
    ("formula", "sv", "Shavrukov-Visser operator",
     [_TOP], _formula(lambda f, ns: f.sv(f.TOP if ns.top else f.Hole("φ")))),
    ("formula", "svstar", "Shavrukov-Visser density function",
     [], _formula(lambda f, ns: f.sv_star(f.Hole("φ"), f.Hole("ψ")))),
    ("formula", "rosser", "Rosser-style interpolant shape",
     [], _formula(lambda f, ns: f.rosser_combination(f.Hole("φ"), f.Hole("ψ"), f.Hole("θ")))),
    ("formula", "constar", "iterated-consistency fixed-point equation",
     [_arg("alpha", nargs="?", default="α"), _arg("theory", nargs="?", default="T")],
     lambda ns: _lib("formulas").con_star_equation(ns.alpha, ns.theory, ascii_mode=ns.ascii)),
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
        if group not in commands:
            commands[group] = groups.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="command", required=True, metavar="CMD")
        p = commands[group].add_parser(name, help=help_text)
        for arg_name, _, options in arguments:
            p.add_argument(arg_name, **options)
        p.set_defaults(arguments=arguments, call=call)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        for name, read, _ in ns.arguments:
            if read:
                setattr(ns, name, read(getattr(ns, name)))
        value = ns.call(ns)
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

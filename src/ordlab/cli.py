"""Command-line surface: deterministic text in, deterministic text out.

Success output goes to stdout only; diagnostics to stderr.  Exit codes:
0 success, 1 domain error (one machine-parsable "error: <code>: ..." line),
2 usage error.

A well-formed argv is read straight from the command table; argparse, which
prints every help, usage and error text, loads only for any other argv.
"""

from __future__ import annotations

import contextlib
import functools
import io
import sys
from types import SimpleNamespace

from . import _module
from ._scan import DEFAULT_FUEL, MAX_NUMERAL_DIGITS
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
# just the limits and the error types, and argparse loads only when
# build_parser() runs, for an argv the command table does not read itself.

def _numeral(text: str) -> int | None:
    """The value of a numeral under the numeral rule, or None."""
    return int(text) if text.isdecimal() and len(text) <= MAX_NUMERAL_DIGITS else None


def _integer(text: str) -> int:
    """An integer argument: an optional "-", then a numeral under the numeral
    rule; a refusal is a usage error in argparse's own words for int()."""
    value = _numeral(text.removeprefix("-"))
    if value is None:
        from argparse import ArgumentTypeError  # only argparse calls this reader
        raise ArgumentTypeError(f"invalid int value: {text!r}")
    return -value if text.startswith("-") else value


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

# The options every command takes, before its group.
_OPTIONS = [
    _arg("--ascii", action="store_true", help="render formulas in pure ASCII"),
    _arg("--fuel", type=_integer, default=DEFAULT_FUEL, metavar="N",
         help=f"search/window cap for the notation lab (default {DEFAULT_FUEL})"),
    _arg("--max-nodes", type=_integer, default=6, metavar="N",
         help="structural-size bound for 'ord enum' (default 6)"),
]

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
    ("ord", "mul", "multiply an ordinal by a natural", [_arg("x"), _arg("n", type=_integer)],
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
     [_arg("theory"), _arg("level", type=_integer)],
     lambda m, ns: m.pi_ordinal(_theory(ns.theory), ns.level)),
    ("theory", "reduce", "reduce to a single reflection level",
     [_arg("theory"), _arg("level", type=_integer)],
     lambda m, ns: m.reduce_to_level(_theory(ns.theory), ns.level)),
    ("theory", "stage", "consistency-progression stage", [_arg("theory"), _arg("alpha")],
     lambda m, ns: m.progression_stage(_theory(ns.theory), _ordinal(ns.alpha))),
    ("theory", "catalog", "look up a named theory (or list all)",
     [_arg("name", nargs="?")], _catalog),
    ("dilator", "eval", "evaluate the dilator at (alpha, beta)", [_arg("alpha"), _arg("beta")],
     lambda m, ns: m.omega_model_dilator(_ordinal(ns.alpha), _ordinal(ns.beta))),
    ("notation", "kreisel", "build a presentation and check a window",
     [_arg("predicate"), _arg("window", type=_integer)], _kreisel),
    ("notation", "audit", "counterexample/descent report for a window",
     [_arg("predicate"), _arg("window", type=_integer)],
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


def _reading(arguments):
    """An argument list as _read() reads it: each option's flag mapped to its
    dest and whether it takes an integer (else it is a switch), each
    positional's dest and whether it is an integer, the count of positionals
    that may be left out, and every dest's default, as argparse derives them."""
    options, positionals, optional, defaults = {}, [], 0, {}
    for name, opts in arguments:
        integer = opts.get("type") is _integer
        if name.startswith("-"):
            dest = name[2:].replace("-", "_")
            options[name] = dest, integer
        else:
            dest = name
            positionals.append((dest, integer))
            optional += opts.get("nargs") == "?"
        defaults[dest] = opts.get("default", False if opts.get("action") == "store_true" else None)
    return options, positionals, optional, defaults


_GLOBAL = _reading(_OPTIONS)
_READINGS = {(group, name): (_reading(arguments), _GROUPS[group][1], call)
             for group, name, _, arguments, call in _COMMANDS}


def _read(argv: list[str]):
    """The namespace build_parser() makes of ``argv``, if argv is the options
    in their space-separated form, each at most once, then a command of the
    table and exactly its arguments; None for any other argv, which argparse
    must read, to answer it or to print its help or usage error.

    One pass reads argv.  A word that starts with "-" is an option, taken
    from the current table so that a repeat is refused: the global options
    until the command, then the command's own.  The first other word and the
    next name the command; every later word is its next positional."""
    options, _, _, values = _GLOBAL
    options, values, slots = dict(options), dict(values), None
    argv = iter(argv)
    for word in argv:
        if word.startswith("-"):
            dest, integer = options.pop(word, (None, False))
            value = next(argv, "") if integer else True
        elif slots is None:
            command = word, next(argv, None)
            if command not in _READINGS:
                return None
            (options, slots, optional, defaults), module, call = _READINGS[command]
            options, slots = dict(options), slots[::-1]  # pop() takes them in order
            values.update(defaults, group=word, command=command[1], module=module, call=call)
            continue
        else:
            dest, integer = slots.pop() if slots else (None, False)
            value = word
        if dest is None:
            return None
        values[dest] = _numeral(value) if integer else value
        if values[dest] is None:
            return None
    if slots is None or len(slots) > optional:
        return None
    return SimpleNamespace(**values)


@functools.cache
def build_parser():
    """The whole argparse tree, built once per process: parsing leaves it as
    it was, and help text reads the terminal width when it is printed."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ordlab",
        description="Symbolic ordinal notations, worms, reflection theories, "
        "pathological presentations, and formula constructions.",
    )
    for name, options in _OPTIONS:
        parser.add_argument(name, **options)
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
    if argv is None:
        argv = sys.argv[1:]
    ns = _read(argv)
    if ns is None:
        try:
            ns = build_parser().parse_args(argv)
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
    # run() prints into buffers, each written once, stdout first, as UTF-8 with
    # an undecodable argument byte escaped as --ascii escapes it.  A stdout that
    # fails is exit 1, with one error line unless its reader has gone (`| head`).
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run()
    for fd, buffer in (1, out), (2, err):
        try:
            if data := buffer.getvalue().encode("utf-8", "backslashreplace"):
                with open(fd, "wb", closefd=False) as stream:
                    stream.write(data)
        except OSError as exc:
            if fd == 1:
                code = 1
                if not isinstance(exc, BrokenPipeError):
                    print(f"error: output: {exc.strerror}", file=err)
    raise SystemExit(code)


if __name__ == "__main__":
    main()

"""Command-line surface: deterministic text in, deterministic text out.

Success output goes to stdout only; diagnostics to stderr.  Exit codes:
0 success, 1 domain error (one machine-parsable "error: <code>: ..." line),
2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import notation
from .errors import OrdlabError
from .formulas import (
    TOP,
    Hole,
    con_star_equation,
    pretty,
    rosser_combination,
    slowcon,
    sv,
    sv_star,
)
from .ordinals import (
    compare,
    enumerate_terms,
    format_ordinal,
    mul_nat,
    next_phi_value,
    parse_ordinal,
    add,
    veblen,
)
from .theories import (
    catalog_lookup,
    default_catalog,
    format_theory,
    omega_model_dilator,
    parse_theory,
    pi_ordinal,
    progression_stage,
    reduce_to_level,
)
from .worms import (
    format_worm,
    parse_worm,
    theory_of_worm,
    worm_compare,
    worm_of_ordinal,
    worm_ordinal,
)

_CMP_NAMES = {-1: "LT", 0: "EQ", 1: "GT"}


def _theory_arg(text: str):
    catalog = default_catalog()
    if text in catalog:
        return catalog[text]
    return parse_theory(text)


# --- ord -------------------------------------------------------------------

def _ord_cmp(args):
    return _CMP_NAMES[compare(parse_ordinal(args.x), parse_ordinal(args.y))]


def _ord_add(args):
    return format_ordinal(add(parse_ordinal(args.x), parse_ordinal(args.y)))


def _ord_mul(args):
    return format_ordinal(mul_nat(parse_ordinal(args.x), args.n))


def _ord_normalize(args):
    return format_ordinal(parse_ordinal(args.x))


def _ord_phi(args):
    return format_ordinal(veblen(parse_ordinal(args.a), parse_ordinal(args.b)))


def _ord_next_phi(args):
    return format_ordinal(next_phi_value(parse_ordinal(args.a), parse_ordinal(args.b)))


def _ord_enum(args):
    terms = enumerate_terms(args.max_nodes)
    return "\n".join(format_ordinal(t) for t in terms)


# --- worm ------------------------------------------------------------------

def _worm_o(args):
    return format_ordinal(worm_ordinal(parse_worm(args.w)))


def _worm_cmp(args):
    return _CMP_NAMES[worm_compare(parse_worm(args.u), parse_worm(args.v))]


def _worm_of_ordinal(args):
    return format_worm(worm_of_ordinal(parse_ordinal(args.x)))


def _worm_to_theory(args):
    return format_theory(theory_of_worm(parse_worm(args.w)))


# --- theory ----------------------------------------------------------------

def _theory_pi(args):
    return format_ordinal(pi_ordinal(_theory_arg(args.theory), args.level))


def _theory_reduce(args):
    return format_theory(reduce_to_level(_theory_arg(args.theory), args.level))


def _theory_stage(args):
    return format_theory(progression_stage(_theory_arg(args.theory), parse_ordinal(args.alpha)))


def _theory_catalog(args):
    if args.name is not None:
        return format_theory(catalog_lookup(args.name))
    catalog = default_catalog()
    return "\n".join(f"{name} = {format_theory(expr)}" for name, expr in catalog.items())


# --- dilator ---------------------------------------------------------------

def _dilator_eval(args):
    return format_ordinal(omega_model_dilator(parse_ordinal(args.alpha), parse_ordinal(args.beta)))


# --- notation --------------------------------------------------------------

def _notation_kreisel(args):
    p = notation.kreisel_presentation(args.predicate)
    ascending = notation.check_ascending(p, args.window, fuel=args.fuel)
    return "\n".join([
        f"predicate: {p.predicate.source}",
        f"window: {args.window}",
        f"ascending: {'yes' if ascending else 'no'}",
    ])


def _notation_audit(args):
    p = notation.kreisel_presentation(args.predicate)
    return str(notation.audit(p, args.window, fuel=args.fuel))


def _notation_descend(args):
    p = notation.kreisel_presentation(args.predicate)
    chain = notation.find_descending(p, args.fuel)
    if chain is None:
        return "none"
    return " ".join(str(n) for n in chain)


# --- formula ---------------------------------------------------------------

def _formula_slowcon(args):
    phi = TOP if args.top else Hole("φ")
    return pretty(slowcon(phi), ascii_mode=args.ascii)


def _formula_sv(args):
    phi = TOP if args.top else Hole("φ")
    return pretty(sv(phi), ascii_mode=args.ascii)


def _formula_svstar(args):
    return pretty(sv_star(Hole("φ"), Hole("ψ")), ascii_mode=args.ascii)


def _formula_rosser(args):
    return pretty(rosser_combination(Hole("φ"), Hole("ψ"), Hole("θ")), ascii_mode=args.ascii)


def _formula_constar(args):
    return con_star_equation(args.alpha, args.theory, ascii_mode=args.ascii)


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordlab",
        description="Symbolic ordinal notations, worms, reflection theories, "
        "pathological presentations, and formula constructions.",
    )
    parser.add_argument("--ascii", action="store_true", help="render formulas in pure ASCII")
    parser.add_argument("--fuel", type=int, default=10000, metavar="N",
                        help="search/window cap for the notation lab (default 10000)")
    parser.add_argument("--max-nodes", type=int, default=6, dest="max_nodes", metavar="N",
                        help="structural-size bound for 'ord enum' (default 6)")
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    ord_p = groups.add_parser("ord", help="ordinal arithmetic in Veblen normal form")
    ord_sub = ord_p.add_subparsers(dest="command", required=True, metavar="CMD")
    p = ord_sub.add_parser("cmp", help="compare two ordinals")
    p.add_argument("x"); p.add_argument("y"); p.set_defaults(func=_ord_cmp)
    p = ord_sub.add_parser("add", help="ordinal sum")
    p.add_argument("x"); p.add_argument("y"); p.set_defaults(func=_ord_add)
    p = ord_sub.add_parser("mul", help="multiply an ordinal by a natural")
    p.add_argument("x"); p.add_argument("n", type=int); p.set_defaults(func=_ord_mul)
    p = ord_sub.add_parser("normalize", help="parse and reprint in canonical form")
    p.add_argument("x"); p.set_defaults(func=_ord_normalize)
    p = ord_sub.add_parser("phi", help="evaluate the Veblen function phi_a(b)")
    p.add_argument("a"); p.add_argument("b"); p.set_defaults(func=_ord_phi)
    p = ord_sub.add_parser("next-phi", help="least phi_a value strictly above b")
    p.add_argument("a"); p.add_argument("b"); p.set_defaults(func=_ord_next_phi)
    p = ord_sub.add_parser("enum", help="list all canonical terms up to --max-nodes")
    p.set_defaults(func=_ord_enum)

    worm_p = groups.add_parser("worm", help="GLP worms and their ordinals")
    worm_sub = worm_p.add_subparsers(dest="command", required=True, metavar="CMD")
    p = worm_sub.add_parser("o", help="ordinal of a worm")
    p.add_argument("w"); p.set_defaults(func=_worm_o)
    p = worm_sub.add_parser("cmp", help="compare two worms")
    p.add_argument("u"); p.add_argument("v"); p.set_defaults(func=_worm_cmp)
    p = worm_sub.add_parser("of-ordinal", help="canonical worm for an ordinal below e0")
    p.add_argument("x"); p.set_defaults(func=_worm_of_ordinal)
    p = worm_sub.add_parser("to-theory", help="reflection expression of a worm")
    p.add_argument("w"); p.set_defaults(func=_worm_to_theory)

    theory_p = groups.add_parser("theory", help="iterated-reflection theory algebra")
    theory_sub = theory_p.add_subparsers(dest="command", required=True, metavar="CMD")
    p = theory_sub.add_parser("pi-ordinal", help="Pi_k proof-theoretic ordinal")
    p.add_argument("theory"); p.add_argument("level", type=int); p.set_defaults(func=_theory_pi)
    p = theory_sub.add_parser("reduce", help="reduce to a single reflection level")
    p.add_argument("theory"); p.add_argument("level", type=int); p.set_defaults(func=_theory_reduce)
    p = theory_sub.add_parser("stage", help="consistency-progression stage")
    p.add_argument("theory"); p.add_argument("alpha"); p.set_defaults(func=_theory_stage)
    p = theory_sub.add_parser("catalog", help="look up a named theory (or list all)")
    p.add_argument("name", nargs="?"); p.set_defaults(func=_theory_catalog)

    dilator_p = groups.add_parser("dilator", help="omega-model reflection dilator")
    dilator_sub = dilator_p.add_subparsers(dest="command", required=True, metavar="CMD")
    p = dilator_sub.add_parser("eval", help="evaluate the dilator at (alpha, beta)")
    p.add_argument("alpha"); p.add_argument("beta"); p.set_defaults(func=_dilator_eval)

    notation_p = groups.add_parser("notation", help="pathological presentations of omega")
    notation_sub = notation_p.add_subparsers(dest="command", required=True, metavar="CMD")
    p = notation_sub.add_parser("kreisel", help="build a presentation and check a window")
    p.add_argument("predicate"); p.add_argument("window", type=int)
    p.set_defaults(func=_notation_kreisel)
    p = notation_sub.add_parser("audit", help="counterexample/descent report for a window")
    p.add_argument("predicate"); p.add_argument("window", type=int)
    p.set_defaults(func=_notation_audit)
    p = notation_sub.add_parser("descend", help="descending chain within --fuel, if any")
    p.add_argument("predicate"); p.set_defaults(func=_notation_descend)

    formula_p = groups.add_parser("formula", help="explicit formula constructions")
    formula_sub = formula_p.add_subparsers(dest="command", required=True, metavar="CMD")
    p = formula_sub.add_parser("slowcon", help="slow consistency statement")
    p.add_argument("--top", action="store_true", help="instantiate at verum")
    p.set_defaults(func=_formula_slowcon)
    p = formula_sub.add_parser("sv", help="Shavrukov-Visser operator")
    p.add_argument("--top", action="store_true", help="instantiate at verum")
    p.set_defaults(func=_formula_sv)
    p = formula_sub.add_parser("svstar", help="Shavrukov-Visser density function")
    p.set_defaults(func=_formula_svstar)
    p = formula_sub.add_parser("rosser", help="Rosser-style interpolant shape")
    p.set_defaults(func=_formula_rosser)
    p = formula_sub.add_parser("constar", help="iterated-consistency fixed-point equation")
    p.add_argument("alpha", nargs="?", default="α")
    p.add_argument("theory", nargs="?", default="T")
    p.set_defaults(func=_formula_constar)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output = args.func(args)
    except OrdlabError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


def main():
    # Output is UTF-8 by contract (--ascii is the fallback), whatever the locale.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    raise SystemExit(run())


if __name__ == "__main__":
    main()

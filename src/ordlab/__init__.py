"""ordlab: symbolic computation with ordinal notations in Veblen normal form,
GLP worms, iterated-reflection theories and their Pi_n proof-theoretic
ordinals, pathological presentations of omega, and the explicit formula
constructions around slow consistency.

Everything is immutable and pure; values are safe to share across threads.

Importing the package loads none of its modules: each export is imported
from its defining module the first time it is looked up (PEP 562).
"""

import functools as _functools
import sys as _sys

__version__ = "0.1.0"

# Every export: its name here -> (its defining module, its name there).
_EXPORTS = {name: (module, name) for module, names in (
    ("errors", (
        "CaptureError", "CatalogError", "OrdlabError", "ParseError", "PredicateError",
        "RangeError", "ShapeError", "WormError",
    )),
    ("formulas", (
        "TOP", "And", "ConAtom", "Defined", "Equals", "Exists", "ForAll", "Formula", "Hole",
        "Implies", "Leq", "Not", "Num", "Or", "TheoryRef", "Var", "Verum", "con_star_equation",
        "free_vars", "pretty", "rosser_combination", "slowcon", "sv", "sv_star",
    )),
    ("notation", (
        "AuditReport", "PredicateExpr", "Presentation", "audit", "check_ascending",
        "find_descending", "kreisel_presentation", "parse_predicate",
    )),
    ("ordinals", (
        "EPSILON0", "EQ", "GT", "LT", "OMEGA", "ONE", "ZERO", "Ordinal", "VeblenAtom", "add",
        "compare", "enumerate_terms", "format_ordinal", "from_int", "in_phi_range", "is_natural",
        "iter_omega", "mul_nat", "next_phi_value", "parse_ordinal", "phi_argument",
        "phi_plus_iter", "successor", "term_size", "to_int", "veblen",
    )),
    ("theories", (
        "EA_PLUS", "PA", "Base", "Reflect", "ReductionRule", "RuleSet", "TheoryExpr",
        "catalog_lookup", "default_catalog", "default_rules", "format_theory",
        "omega_model_dilator", "parse_theory", "pi_ordinal", "progression_stage",
        "reduce_to_level",
    )),
    ("worms", (
        "Worm", "drop", "format_worm", "lift", "parse_worm", "theory_of_worm", "worm_compare",
        "worm_of_ordinal", "worm_ordinal",
    )),
) for name in names}
_EXPORTS["TOP_WORM"] = ("worms", "TOP")  # the bare TOP is the formula verum

__all__ = list(_EXPORTS)


@_functools.cache
def _module(name: str):
    """The submodule ``ordlab.<name>``, imported the first time it is asked
    for: the package and the CLI load a module only when something uses it."""
    qualified = f"{__name__}.{name}"
    __import__(qualified)  # unlike importlib.import_module, -X importtime reports it
    return _sys.modules[qualified]


def __getattr__(name: str):
    """An export, imported from its module on first use and kept here, so
    later lookups find it directly.  Any other name, a submodule's included,
    is an AttributeError that imports nothing: ``from ordlab import cli``
    then imports the submodule itself."""
    try:
        module, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_module(module), attribute)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})

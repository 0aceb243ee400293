import ast
import importlib
from pathlib import Path

import pytest

import ordlab

# The package's exports, by defining module: each is that module's object of
# the same name, except TOP_WORM, which is worms.TOP.
EXPORTS = {
    "errors": ["CaptureError", "CatalogError", "OrdlabError", "ParseError", "PredicateError",
               "RangeError", "ShapeError", "WormError"],
    "formulas": ["TOP", "And", "ConAtom", "Defined", "Equals", "Exists", "ForAll", "Formula", "Hole",
                 "Implies", "Leq", "Not", "Num", "Or", "TheoryRef", "Var", "Verum",
                 "con_star_equation", "free_vars", "pretty", "rosser_combination", "slowcon",
                 "sv", "sv_star"],
    "notation": ["AuditReport", "PredicateExpr", "Presentation", "audit", "check_ascending",
                 "find_descending", "kreisel_presentation", "parse_predicate"],
    "ordinals": ["EPSILON0", "EQ", "GT", "LT", "OMEGA", "ONE", "ZERO", "Ordinal", "VeblenAtom",
                 "add", "compare", "enumerate_terms", "format_ordinal", "from_int", "in_phi_range",
                 "is_natural", "iter_omega", "mul_nat", "next_phi_value", "parse_ordinal",
                 "phi_argument", "phi_plus_iter", "successor", "term_size", "to_int", "veblen"],
    "theories": ["EA_PLUS", "PA", "Base", "Reflect", "ReductionRule", "RuleSet", "TheoryExpr",
                 "catalog_lookup", "default_catalog", "default_rules", "format_theory",
                 "omega_model_dilator", "parse_theory", "pi_ordinal", "progression_stage",
                 "reduce_to_level"],
    "worms": ["Worm", "drop", "format_worm", "lift", "parse_worm", "theory_of_worm", "worm_compare",
              "worm_of_ordinal", "worm_ordinal"],
}


def test_every_export_is_its_modules_object():
    expected = {name: (module, name) for module, names in EXPORTS.items() for name in names}
    expected["TOP_WORM"] = ("worms", "TOP")
    assert sorted(ordlab.__all__) == sorted(expected)
    for name, (module, attribute) in expected.items():
        assert getattr(ordlab, name) is getattr(importlib.import_module(f"ordlab.{module}"), attribute)
    assert set(ordlab.__all__) <= set(dir(ordlab))


@pytest.mark.parametrize("name", ["nope", "_EXPORTS_", "TOP_worm"])
def test_unknown_names_are_attribute_errors(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(ordlab, name)


ROOT = Path(__file__).resolve().parent.parent
# Tier-1 imports bench/oracle.py as well, so it too must parse on 3.10, and
# the demos ship with the package's sources.
SOURCES = sorted([path.relative_to(ROOT).as_posix()
                  for folder in ("src/ordlab", "tests", "demos") for path in (ROOT / folder).rglob("*.py")]
                 + ["bench/oracle.py"])


@pytest.mark.parametrize("source", SOURCES)
def test_sources_parse_as_python_3_10(source):
    # pyproject.toml's requires-python floor is 3.10.  This checks the grammar
    # only: a name or library call that 3.10 lacks still passes.
    ast.parse((ROOT / source).read_text(encoding="utf-8"), source, feature_version=(3, 10))


@pytest.mark.parametrize("source", SOURCES)
def test_every_import_is_used(source):
    # An imported name counts as used when it appears anywhere else in the
    # module; a `from __future__` import sets a compiler flag and is exempt.
    tree = ast.parse((ROOT / source).read_text(encoding="utf-8"), source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{source} imports {sorted(imported - used)} and never uses them"


def test_shared_test_data_is_defined_once():
    # A test module imports what tests/conftest.py defines instead of binding
    # a copy of its own, which could drift from the shared one.
    def bound(path, imports):
        names = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
            elif imports and isinstance(node, ast.Import | ast.ImportFrom) and getattr(node, "module", None) != "conftest":
                names |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        return names

    shared = bound(ROOT / "tests" / "conftest.py", imports=False)
    copies = {path.name: bound(path, imports=True) & shared for path in (ROOT / "tests").glob("test_*.py")}
    assert {name: names for name, names in copies.items() if names} == {}


# Every functools cache in the package, by module and function, with its
# bound: an lru_cache's maxsize, or why an unbounded cache cannot grow
# without limit.
CACHES = {
    ("__init__", "_module"): "keys: the six library module names",
    ("cli", "build_parser"): "no arguments",
    ("notation", "_scanner_factory"): 256,
    ("notation", "_text_presentation"): 256,
    ("theories", "default_catalog"): "no arguments",
    ("theories", "default_rules"): "no arguments",
    ("worms", "_ordinal"): 2**12,
}


def _maker(node) -> str | None:
    """"cache" or "lru_cache" when ``node`` names that functools cache maker."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in ("cache", "lru_cache") else None


def _caches(path: Path) -> tuple[dict, int]:
    """The functools caches of one module, each with its bound (None when
    unbounded) and whether its function takes arguments, and the count of
    every name in the module that names a cache maker."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            kind = _maker(call.func if call else decorator)
            if kind is None:
                continue
            sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1] if call else []
            if kind == "cache":
                bound = None
            elif sizes:
                bound = eval(compile(ast.Expression(sizes[0]), path.name, "eval"), {})
            else:
                bound = 128  # lru_cache's default maxsize
            a = node.args
            found[path.stem, node.name] = (bound, any((a.posonlyargs, a.args, a.kwonlyargs, a.vararg, a.kwarg)))
    return found, sum(_maker(node) is not None for node in ast.walk(tree))


def test_every_cache_is_bounded():
    # An unbounded cache grows with what its callers pass unless its keys
    # come from a closed set.  Every reference to a cache maker must be a
    # decorator, so that no cache escapes the list.
    found, references = {}, 0
    for path in sorted((ROOT / "src" / "ordlab").glob("*.py")):
        caches, count = _caches(path)
        found |= caches
        references += count
    assert references == len(found)
    listed = {}
    for name, (bound, takes) in found.items():
        if bound is not None:
            listed[name] = bound
        elif not takes:
            listed[name] = "no arguments"
        else:
            reason = CACHES.get(name)
            listed[name] = reason if isinstance(reason, str) and reason.startswith("keys:") else "unbounded"
    assert listed == CACHES


def test_the_module_cache_holds_only_the_six_library_modules():
    # The package and the CLI ask _module only for the modules EXPORTS names.
    for name in ordlab.__all__:
        getattr(ordlab, name)
    assert len(EXPORTS) == 6
    assert ordlab._module.cache_info().currsize <= len(EXPORTS)

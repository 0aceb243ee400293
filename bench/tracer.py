"""Span recording at ordlab's layer boundaries, from outside the package.

The tracer replaces public functions at the bindings their callers use: the
names ordlab.cli, ordlab.theories and ordlab.worms import from other ordlab
modules, the notation functions ordlab.cli reaches through the module
object, and the benchmark's own API namespace.  A defining module's own
globals stay untouched, so recursion inside compare or worm_ordinal is not
traced.  Two exceptions are deliberate: ordlab.cli.build_parser, whose only
caller, cli.run, looks it up as a module global (it does not recurse), and
the public methods Presentation.less, Presentation.least_counterexample,
PredicateExpr.evaluate and RuleSet.authorize, wrapped on their classes.

Spans (name, start, end, parent, op id) are kept in flat arrays and written
out when the run ends; self time and layer busy time are aggregated as each
span closes.  A layer's self time is its busy time minus the time its child
spans in other layers cover.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

from ordlab import cli, notation, theories, worms

LAYERS = ("ordinals", "worms", "theories", "notation", "formulas", "cli")

_CLI_NOTATION = ("kreisel_presentation", "check_ascending", "audit", "find_descending")
_METHODS = (
    (notation.Presentation, "less"),
    (notation.Presentation, "least_counterexample"),
    (notation.PredicateExpr, "evaluate"),
    (theories.RuleSet, "authorize"),
)
_MARK = "_bench_traced"


def _layer(fn) -> str:
    return fn.__module__.rpartition(".")[2]


def _is_public_function(obj) -> bool:
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", "").startswith("ordlab."))


def _scan_length(args, kwargs, result) -> int:
    bound = args[1] if len(args) > 1 else kwargs["bound"]
    return bound + 1 if result is None else result + 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Five numbers per span: name id, parent span, op id, start, end.
        # One extend() per span keeps the row whole if a time-limit signal
        # lands inside _enter.
        self.spans = array("d")
        self.op_id = -1
        self._stack: list[list] = []  # [span index, layer, child time]
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.layer_calls: Counter = Counter()
        self.layer_busy: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.layer_errors: Counter = Counter()
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid: int, layer: str):
        spans = self.spans
        row = len(spans)
        parent = self._stack[-1][0] // 5 if self._stack else -1
        spans.extend((nid, parent, self.op_id, perf_counter(), 0.0))
        self._stack.append([row, layer, 0.0])
        self._depth[layer] += 1

    def _exit(self, ok: bool):
        t = perf_counter()
        row, layer, child = self._stack.pop()
        spans = self.spans
        spans[row + 4] = t
        duration = t - spans[row + 3]
        name = self.names[int(spans[row])]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.layer_calls[layer] += 1
        self.layer_self[layer] += duration - child
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.layer_busy[layer] += duration
        if not ok:
            self.layer_errors[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def begin_op(self, op_id: int, kind: str):
        self.op_id = op_id
        self._enter(self._id(f"op.{kind}"), "bench")

    def end_op(self, ok: bool):
        # A time-limit interrupt can leave inner spans open; close them.
        while len(self._stack) > 1:
            self._exit(False)
        if self._stack:
            self._exit(ok)
        self.op_id = -1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, post=None):
        tracer, nid = self, self._id(name)

        def traced(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            tracer._enter(nid, layer)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._exit(ok)
            if post is not None:
                post(args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        traced.__wrapped__ = fn
        return traced

    def _post(self, name: str, site: str):
        counters = self.counters
        if name == "worms.worm_ordinal" and site == "theories":
            return lambda a, k, r: counters.update({"worm_route": 1})
        if name == "notation.least_counterexample":
            return lambda a, k, r: counters.update({"predicate_evals": _scan_length(a, k, r)})
        if name == "notation.evaluate":
            return lambda a, k, r: counters.update({"predicate_evals": 1})
        if name in ("formulas.pretty", "formulas.con_star_equation"):
            return lambda a, k, r: counters.update({"out_chars": len(r)})
        if name == "cli.run":
            return lambda a, k, r: counters.update({"nonzero_exits": r != 0})
        return None

    def _patch(self, owner, attr: str, site: str, layer: str | None = None):
        fn = getattr(owner, attr)
        if getattr(fn, _MARK, False):
            return
        layer = layer or _layer(fn)
        name = f"{layer}.{attr}"
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, layer, self._post(name, site)))

    def install(self, api):
        for module in (cli, theories, worms):
            site = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and _is_public_function(obj)
                        and obj.__module__ != module.__name__):
                    self._patch(module, attr, site)
        for attr in _CLI_NOTATION:
            self._patch(notation, attr, "cli")
        self._patch(cli, "build_parser", "cli")
        for cls, attr in _METHODS:
            self._patch(cls, attr, "method", _layer(cls))
        for attr in list(vars(api)):
            self._patch(api, attr, "bench")

    def uninstall(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers; the caller adds what needs outside knowledge."""
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = self.layer_calls[layer]
            m[f"{layer}.busy_s"] = self.layer_busy[layer]
            m[f"{layer}.self_s"] = self.layer_self[layer]
            m[f"{layer}.errors"] = self.layer_errors[layer]
        for fn in ("compare", "add", "veblen"):
            m[f"ordinals.{fn}.calls"] = self.calls[f"ordinals.{fn}"]
        for fn in ("compare", "parse_ordinal", "format_ordinal", "next_phi_value", "enumerate_terms"):
            m[f"ordinals.{fn}.self_s"] = self.self_s[f"ordinals.{fn}"]
        for fn in ("worm_ordinal", "worm_of_ordinal"):
            m[f"worms.{fn}.self_s"] = self.self_s[f"worms.{fn}"]
        for fn in ("parse_theory", "reduce_to_level"):
            m[f"theories.{fn}.self_s"] = self.self_s[f"theories.{fn}"]
        m["theories.rule_checks"] = self.calls["theories.authorize"]
        # pi_ordinal runs exactly one reduce_to_level, through its own global.
        reductions = self.calls["theories.reduce_to_level"] + self.calls["theories.pi_ordinal"]
        worm_route = self.counters["worm_route"]
        m["theories.worm_route_ratio"] = worm_route / reductions if reductions else 0.0
        m["theories.rules_route_share"] = 1 - worm_route / reductions if reductions else 0.0
        m["notation.less.calls"] = self.calls["notation.less"]
        m["notation.predicate_evals"] = self.counters["predicate_evals"]
        m["formulas.pretty.self_s"] = self.self_s["formulas.pretty"]
        m["formulas.out_chars"] = self.counters["out_chars"]
        m["cli.build_parser.self_s"] = self.self_s["cli.build_parser"]
        m["cli.nonzero_exits"] = self.counters["nonzero_exits"]
        return m

    def span_count(self) -> int:
        return len(self.spans) // 5

    def write(self, path):
        """Spans as tab-separated lines: name, start, end, parent span (its
        line number from 0, or -1), op id.  An end of 0 marks a span a
        time-limit interrupt left unclosed."""
        spans, names = self.spans, self.names
        with open(path, "w", encoding="utf-8") as out:
            for row in range(0, len(spans), 5):
                nid, parent, op, start, end = spans[row:row + 5]
                out.write(f"{names[int(nid)]}\t{start:.7f}\t{end:.7f}\t{int(parent)}\t{int(op)}\n")


def installed_wrappers(api) -> list[str]:
    """Every traced wrapper still reachable where install() puts them."""
    found = []
    owners = [cli, theories, worms, notation, api] + [cls for cls, _ in _METHODS]
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            if getattr(obj, _MARK, False):
                found.append(f"{getattr(owner, '__name__', 'api')}.{attr}")
    return found

"""Self-tests of the benchmark itself (not of ordlab).

    python3 -m pytest -q bench/test_bench.py

They cover generator determinism, a fault injected into every output check,
the per-op time limit, the scaling of wall times to reference seconds,
traced and untraced runs giving identical outputs,
the traced run leaving no wrapper installed, and the metric names agreeing
with BENCHMARK.json.
"""

import itertools
import json
import signal
from pathlib import Path

import pytest

import run
import speed
import tracer as tracing
import workloads
from ordlab import cli, notation, theories, worms
from workloads import FAULTS, WORKLOADS

NAMES = sorted(WORKLOADS)
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _rounds(name, seed, count=2):
    return list(itertools.islice(workloads.rounds(WORKLOADS[name], seed), count))


def _ops(name, seed=7, rounds=2, defects=False):
    return [op for r in _rounds(name, seed, rounds) for op in r if defects or not op.get("defect")]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_inputs(name):
    first = json.dumps(_rounds(name, 42, 3), sort_keys=True)
    assert first == json.dumps(_rounds(name, 42, 3), sort_keys=True)
    assert first != json.dumps(_rounds(name, 43, 3), sort_keys=True)


@pytest.mark.parametrize("name", NAMES)
def test_every_op_passes_its_check_at_this_commit(name):
    workload, api = WORKLOADS[name], workloads.make_api()
    for op in _ops(name):
        result, reason = run.run_op(workload, api, op)
        assert reason is None, reason
        assert workload.check(op, result) is None, op


@pytest.mark.parametrize("name,check", [(n, c) for n in NAMES for c in FAULTS[n]])
def test_injected_fault_fails_its_check(name, check):
    workload, api, mutate = WORKLOADS[name], workloads.make_api(), FAULTS[name][check]
    for op in _ops(name, rounds=6):
        result, reason = run.run_op(workload, api, op)
        assert reason is None, reason
        wrong = mutate(op, result)
        if wrong is not None:
            verdict = workload.check(op, wrong)
            assert verdict is not None and verdict.startswith(check + ":"), verdict
            return
    pytest.fail(f"no op of {name} exercises the {check} check")


def test_known_defects_fail_at_this_commit():
    workload, api = WORKLOADS["cli-session"], workloads.make_api()
    verdicts = []
    for argv in workloads.KNOWN_DEFECTS:
        op = {"argv": argv, "rc": 1, "code": "range", "defect": True}
        result, reason = run.run_op(workload, api, op)
        verdicts.append(reason or workload.check(op, result))
    assert all(v is not None for v in verdicts)
    assert any(v.startswith("timeout:") for v in verdicts)


def test_time_limit_and_exceptions_are_failures():
    class Slow:
        time_limit = 0.05

        def run(self, api, op):
            while True:
                pass

    class Raises(Slow):
        def run(self, api, op):
            raise ValueError("boom")

    assert run.run_op(Slow(), None, {"kind": "spin"})[1].startswith("timeout:")
    assert run.run_op(Raises(), None, {"kind": "raise"})[1].startswith("exception:")
    loop = run.Loop()
    loop.record({"kind": "spin"}, 0.05, "timeout: spin", 0)
    assert (loop.attempted, loop.failed, loop.wrong_answers) == (1, 1, 0)
    loop.record({"kind": "x"}, 0.01, "worm_ordinal: wrong", 0)
    assert (loop.failed, loop.wrong_answers) == (2, 1)


def test_time_limit_stretches_with_the_slowdown():
    class Spin:
        time_limit = 0.02

        def run(self, api, op):
            while True:
                pass

    assert "ran past 0.06s" in run.run_op(Spin(), None, {"kind": "spin"}, 3.0)[1]


def test_wall_times_scale_by_the_kernel_timings_around_them():
    ref = speed.REF_S
    loop = run.Loop()
    loop.record({"kind": "x"}, 0.1, None, 0)
    loop.record({"kind": "x"}, 0.2, None, 0)
    loop.record({"kind": "x"}, 0.3, None, 0, [5 * ref])  # sampled during the op
    loop.marks = [(0, ref), (2, 3 * ref), (2, 2 * ref), (3, 2 * ref)]
    loop.scale()
    assert loop.scaled == pytest.approx([0.05, 0.1, 0.1])


def test_timed_samples_the_kernel_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGPROF)
    result, wall, scaled = speed.timed(lambda: sum(i * i for i in range(300_000)))
    assert result == sum(i * i for i in range(300_000))
    assert wall > 0 and scaled > 0
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def _outputs(workload, api, ops, tracer=None):
    out = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i, op.get("kind", "argv"))
        result, reason = run.run_op(workload, api, op)
        if tracer is not None:
            tracer.end_op(reason is None)
        out.append(repr(result) if reason is None else reason)
    return out


def _bindings():
    owners = [cli, theories, worms, notation, notation.Presentation, notation.PredicateExpr,
              theories.RuleSet]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced_and_leaves_no_wrapper(name):
    workload, api = WORKLOADS[name], workloads.make_api()
    ops = _ops(name, seed=11, rounds=1)
    before_api, before = dict(vars(api)), _bindings()
    worms.worm_ordinal.cache_clear()
    plain = _outputs(workload, api, ops)
    worms.worm_ordinal.cache_clear()
    tracer = tracing.Tracer()
    tracer.install(api)
    try:
        assert tracing.installed_wrappers(api)
        traced = _outputs(workload, api, ops, tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.span_count() > len(ops)
    assert tracing.installed_wrappers(api) == []
    assert dict(vars(api)) == before_api
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_metric_names_match_benchmark_json(capsys):
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    metrics, attempted, failed, correct = run.traced(WORKLOADS["reflection"],
                                                     workloads.make_api(), 5, 0.2)
    assert correct and attempted > 0 and failed == 0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in metrics.items()}

"""ordlab benchmark: one seeded workload, closed loop, one client.

    python3 bench/run.py --workload ordinal-core --seed 1 --seconds 10 --trace 0

Each op starts when the previous one returns, in this one thread.  A run
measures whole cycles of rounds of ops until --seconds of loop time have
passed (and at least the workload's rss_rounds), checks every op's output,
and prints one JSON object as its last line.
Every timing is reported in reference seconds: wall time scaled by the
speed of fixed reference work timed next to it (bench/speed.py).
--trace 0 reports the end-to-end metrics; --trace 1 runs the same inputs
untraced and then traced and reports the per-layer metrics, the tracing
overhead, and writes the spans under .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed
import workloads
from workloads import SRC, WORKLOADS

from ordlab import worms

from probe import prepare
from tracer import Tracer, installed_wrappers

ROOT = SRC.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

CALIB_EVERY = 0.25  # seconds of loop time between reference-kernel timings
PROBE_SLOTS = 4
SETUP_PER_SLOT = 2
COLD_PER_SLOT = 4
COLD_COMMANDS = [
    (["ord", "cmp", "w^w+1", "e0"], "LT"),
    (["worm", "o", "1 0 1"], "w*2"),
    (["theory", "pi-ordinal", "PA+Con(PA)", "1"], "e0*2"),
    (["formula", "slowcon"], "∀x(F_e0(x)↓ → Con(ISigma_x + φ))"),
]

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_p95_ms", "ms"),
    ("success_rate", "ratio"), ("peak_rss_mb", "MB"), ("enum_s", "s"), ("cold_start_ms", "ms"),
]


def per_layer_unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "ops/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share", "overhead", "evals_per_elem")):
        return "ratio"
    return "count"


class OpTimeout(BaseException):
    """Raised in the benchmark thread when an op passes its time limit."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise OpTimeout()


class Loop:
    """Outcome of one measured loop."""

    def __init__(self):
        self.times: list[float] = []
        self.failures: Counter = Counter()
        self.wrong_answers = 0
        self.elems = 0
        self.expected_errors = 0
        self.k_in_window = 0
        self.windowed = 0
        self.examples: list[str] = []
        self.marks: list[tuple[int, float]] = []  # (ops done, reference kernel time)
        self.inside: list[list[float]] = []  # kernel times sampled during each op
        self.scaled: list[float] = []
        self.rss_mb = 0.0

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, op, elapsed: float, reason: str | None, elems: int,
               samples: list[float] = ()):
        self.times.append(elapsed)
        self.inside.append(list(samples))
        self.elems += elems
        if op.get("rc"):
            self.expected_errors += 1
        if "k" in op:
            self.windowed += 1
            self.k_in_window += op["k"] is not None and op["k"] <= op["n"]
        if reason is None:
            return
        check = reason.partition(":")[0]
        self.failures[check] += 1
        if check not in ("timeout", "exception", "exit_code", "stderr_shape"):
            self.wrong_answers += 1
        if len(self.examples) < 8:
            self.examples.append(reason[:200])

    def scale(self):
        """Each op's time in reference seconds, by the kernel timings taken
        before and after its stretch of ops and during the op itself."""
        self.scaled = [speed.scale(t, [before, after, *inside])
                       for (a, before), (b, after) in zip(self.marks, self.marks[1:])
                       for t, inside in zip(self.times[a:b], self.inside[a:b])]


def run_op(workload, api, op, slowdown: float = 1.0):
    """(result, None) or (None, failure reason) for one op under the time
    limit.  The limit is workload.time_limit reference seconds: slowdown is
    the last reference-kernel time over speed.REF_S, so an op stopped by the
    limit has done the same work at any machine speed."""
    global _armed
    limit = workload.time_limit * slowdown
    _armed = True
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return workload.run(api, op), None
    except OpTimeout:
        return None, f"timeout: {op.get('argv', op.get('kind'))!s:.80} ran past {limit:.3g}s"
    except Exception as exc:  # an escaping exception is the op's failure, not the run's
        return None, f"exception: {type(exc).__name__} from {op.get('argv', op.get('kind'))!s:.80}"
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def measure(workload, api, seed: int, seconds: float, tracer: Tracer | None = None,
            probes: Probes | None = None) -> Loop:
    """Whole cycles of rounds until `seconds` of loop time have passed, and
    at least workload.rss_rounds rounds, with the reference kernel timed
    every CALIB_EVERY seconds and, by a speed.Sampler, during ops.  Probe
    slots, if given, run between rounds once they are due; neither they nor
    the kernel count as loop time."""
    loop = Loop()
    start = perf_counter()
    paused = 0.0

    def calibrate() -> float:
        nonlocal paused
        t0 = perf_counter()
        loop.marks.append((loop.attempted, speed.kernel_s()))
        paused += perf_counter() - t0
        return perf_counter()

    last = calibrate()
    with speed.Sampler() as sampler:
        for done, ops in enumerate(workloads.rounds(workload, seed)):
            if done == workload.rss_rounds:
                loop.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if (done >= workload.rss_rounds and done % workload.cycle == 0
                    and perf_counter() - start - paused >= seconds):
                break
            for op in ops:
                if tracer is not None:
                    tracer.begin_op(loop.attempted, op.get("kind", "argv"))
                sampler.take()
                sampler.active = True
                t0 = perf_counter()
                result, reason = run_op(workload, api, op, loop.marks[-1][1] / speed.REF_S)
                elapsed = perf_counter() - t0
                sampler.active = False
                samples, in_sampler = sampler.take()
                if tracer is not None:
                    tracer.end_op(reason is None)
                if reason is None:
                    reason = workload.check(op, result)
                loop.record(op, elapsed - in_sampler, reason, workload.elems(op), samples)
                if perf_counter() - last >= CALIB_EVERY:
                    last = calibrate()
            fraction = (perf_counter() - start - paused) / seconds
            if probes is not None and probes.due(fraction):
                calibrate()
                t0 = perf_counter()
                probes.until(fraction)
                paused += perf_counter() - t0
                last = calibrate()
    calibrate()
    loop.scale()
    return loop


class Probes:
    """Fresh-process measurements, taken in PROBE_SLOTS slots spread over
    the loop so that they sample the machine at different moments.  A
    set-up or cold-start probe is scaled by the bare interpreter starts
    timed just before and after it, which a speed level slows alike."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.setup: list[float] = []  # reference seconds
        self.enum: list[float] = []
        self.cold: list[float] = []
        self.wall = {"setup": [], "enum": [], "cold": []}
        self.bad = Counter()
        self.attempted = 0
        self.slots_run = 0
        self.last_bare = 0.0

    def due(self, fraction: float) -> bool:
        return self.slots_run < PROBE_SLOTS and self.slots_run <= fraction * PROBE_SLOTS

    def until(self, fraction: float):
        """Run every slot due once `fraction` of the loop is done."""
        while self.due(fraction):
            self.slots_run += 1
            self.last_bare = self._bare()
            for _ in range(SETUP_PER_SLOT):
                self._setup()
            self._enum()
            self.last_bare = self._bare()
            for _ in range(COLD_PER_SLOT):
                self._cold_start()

    def _bare(self) -> float:
        """Wall time of `python -c pass`: the interpreter's own start."""
        start = perf_counter()
        out = subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.env,
                             capture_output=True, timeout=60)
        self.bad["bare_start"] += out.returncode != 0
        return perf_counter() - start

    def _start_scaled(self, wall: float) -> float:
        before, self.last_bare = self.last_bare, self._bare()
        return speed.scale(wall, [before, self.last_bare], speed.REF_START_S)

    def _setup(self):
        """Wall time from spawning a fresh interpreter until it has imported
        ordlab, loaded the rules and catalog and built the CLI parser."""
        self.attempted += 1
        start = perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), "setup"], cwd=ROOT,
                              env=self.env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = perf_counter() - start
            proc.stdout.read()
        self.wall["setup"].append(wall)
        self.setup.append(self._start_scaled(wall))
        self.bad["setup"] += line != "ready\n" or proc.returncode != 0

    def _enum(self):
        self.attempted += 1
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), "enum"], cwd=ROOT,
                             env=self.env, capture_output=True, text=True, timeout=150)
        report = json.loads(out.stdout) if out.returncode == 0 else {"ok": False}
        if report["ok"]:
            self.wall["enum"] += report["time"]
            self.enum += report["scaled"]
        self.bad["enum"] += not report["ok"]

    def _cold_start(self):
        """`python -m ordlab.cli ...` as a subprocess, stdout byte-checked."""
        argv, want = self.rng.choice(COLD_COMMANDS)
        self.attempted += 1
        start = perf_counter()
        out = subprocess.run([sys.executable, "-m", "ordlab.cli", *argv], cwd=ROOT, env=self.env,
                             capture_output=True, timeout=60)
        wall = perf_counter() - start
        self.wall["cold"].append(wall)
        self.cold.append(self._start_scaled(wall))
        self.bad["cold_start"] += out.returncode != 0 or out.stdout != (want + "\n").encode()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def ops_per_s(loop: Loop) -> float:
    return loop.attempted / sum(loop.scaled)


def end_to_end(workload, api, seed: int, seconds: float) -> tuple[dict, int, int, bool]:
    probes = Probes(seed)
    loop = measure(workload, api, seed, seconds, probes=probes)
    probes.until(1.0)
    values = {
        "setup_s": statistics.median(probes.setup),
        "ops_per_s": ops_per_s(loop),
        "op_p50_ms": statistics.median(loop.scaled) * 1e3,
        "op_p95_ms": quantile(loop.scaled, 95) * 1e3,
        "success_rate": 1 - loop.failed / loop.attempted,
        "peak_rss_mb": loop.rss_mb,
        "enum_s": statistics.median(probes.enum) if probes.enum else 0.0,
        "cold_start_ms": statistics.median(probes.cold) * 1e3,
    }
    kernel = [k for _, k in loop.marks]
    print(f"# {workload.name}: {loop.attempted} ops, {loop.failed} failed "
          f"(error_rate {loop.failed / loop.attempted:.6f}); {loop.attempted // 20} ops "
          f"beyond p95; peak RSS read after {workload.rss_rounds} rounds")
    print(f"# reference kernel: {len(kernel)} timings, {min(kernel) * 1e3:.3f}-"
          f"{max(kernel) * 1e3:.3f} ms (REF_S {speed.REF_S * 1e3:g} ms); wall: "
          f"ops_per_s {loop.attempted / sum(loop.times):.6g}, "
          f"op_p50_ms {statistics.median(loop.times) * 1e3:.6g}, "
          f"op_p95_ms {quantile(loop.times, 95) * 1e3:.6g}, "
          + ", ".join(f"{k} {statistics.median(v):.6g} s" for k, v in probes.wall.items() if v))
    print(f"# failures by check: {dict(loop.failures)}")
    for line in loop.examples:
        print(f"#   {line}")
    print(f"# probes: setup {len(probes.setup)}, enum {len(probes.enum)}, "
          f"cold start {len(probes.cold)}; failed {dict(probes.bad)}")
    bad = sum(probes.bad.values())
    correct = loop.wrong_answers == 0 and bad == 0
    result = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return result, loop.attempted + probes.attempted, loop.failed + bad, correct


def traced(workload, api, seed: int, seconds: float) -> tuple[dict, int, int, bool]:
    plain = measure(workload, api, seed, seconds)
    worms.worm_ordinal.cache_clear()
    tracer = Tracer()
    tracer.install(api)
    try:
        loop = measure(workload, api, seed, seconds, tracer)
    finally:
        tracer.uninstall()
    leftover = installed_wrappers(api)
    cache = worms.worm_ordinal.cache_info()
    m = tracer.metrics()
    lookups = cache.hits + cache.misses
    m["worms.cache_hit_ratio"] = cache.hits / lookups if lookups else 0.0
    m["worms.cache_entries"] = cache.currsize
    m["notation.evals_per_elem"] = m["notation.predicate_evals"] / loop.elems if loop.elems else 0.0
    m["notation.k_in_window_share"] = loop.k_in_window / loop.windowed if loop.windowed else 0.0
    m["cli.expected_error_share"] = loop.expected_errors / loop.attempted
    m["trace.untraced_ops_per_s"] = ops_per_s(plain)
    m["trace.ops_per_s"] = ops_per_s(loop)
    m["trace.overhead"] = 1 - m["trace.ops_per_s"] / m["trace.untraced_ops_per_s"]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload.name}.spans.tsv"
    tracer.write(spans)
    print(f"# {workload.name}: untraced {plain.attempted} ops, traced {loop.attempted} ops, "
          f"{tracer.span_count()} spans in {spans.relative_to(ROOT)}")
    print(f"# failures by check: untraced {dict(plain.failures)}, traced {dict(loop.failures)}")
    if leftover:
        print(f"# wrappers left installed: {leftover}")
    correct = plain.wrong_answers == 0 and loop.wrong_answers == 0 and not leftover
    result = {name: {"value": m[name], "unit": per_layer_unit(name)} for name in sorted(m)}
    return result, plain.attempted + loop.attempted, plain.failed + loop.failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    prepare()
    workload, api = WORKLOADS[args.workload], workloads.make_api()
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, correct = run(workload, api, args.seed, args.seconds)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

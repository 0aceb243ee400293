"""The machine's current speed, from fixed reference work.

The CPU this benchmark runs on shifts its speed in levels up to about 2x
apart that last from under a second to minutes (bench/README.md, Noise),
which no statistic inside a run removes.  So the benchmark times reference
work next to ordlab's and reports every timing in reference seconds:

    scaled = wall * REF / (mean time of the reference work around it)

A level that slows the reference and ordlab alike cancels out; no ordlab
code runs in the reference, so a change to ordlab shows in full.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

# The kernel's usual wall time on the 2-vCPU VM (Python 3.11.7) where the
# baseline was taken, in the slower of its common speed levels, so scaled
# times read about as wall times at that speed.
REF_S = 0.0025
REPEATS = 3
# A bare interpreter start (`python -c pass`) there, the reference for
# timings that start a process: a speed level slows process start-up
# (exec, imports, unmarshalling) differently from the kernel.
REF_START_S = 0.045
SAMPLE_EVERY = 0.1  # seconds of CPU time between a Sampler's kernel timings


def kernel() -> int:
    """Fixed work of the kind ordlab does: tuples, strings, dict inserts,
    recursive calls and a keyed sort, about 2.5 ms."""
    table = {}
    total = 0
    for i in range(3000):
        item = (i, str(i), i * 3)
        table[item[1]] = item
        total += len(table)

    def fib(n):
        return n if n < 2 else fib(n - 1) + fib(n - 2)

    total += fib(18)
    return total + len(sorted(table.values(), key=lambda item: -item[0]))


def kernel_s() -> float:
    """Median wall time of REPEATS kernel runs after one that warms it up.
    The cyclic collector is off meanwhile, so that a collection of the
    caller's heap never lands in the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(wall: float, ref_times: list[float], ref: float = REF_S) -> float:
    """wall in reference seconds, given times of the reference work (the
    kernel, unless ref says otherwise) taken around it."""
    return wall * ref / statistics.fmean(ref_times)


class Sampler:
    """While installed, takes kernel_s() every SAMPLE_EVERY seconds of the
    process's CPU time, from a SIGPROF handler, whenever `active` is
    set; so an op long enough for the speed level to change under it is
    scaled by the speed it actually ran at.  take() hands over the timings
    and the time the handler spent, which the caller takes out of its own."""

    def __init__(self):
        self.active = False
        self.samples: list[float] = []
        self.paused = 0.0

    def _on_prof(self, signum, frame):
        if self.active:
            start = perf_counter()
            self.samples.append(kernel_s())
            self.paused += perf_counter() - start

    def __enter__(self) -> Sampler:
        self.previous = signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self.previous)

    def take(self) -> tuple[list[float], float]:
        taken = self.samples, self.paused
        self.samples, self.paused = [], 0.0
        return taken


def timed(fn):
    """Call fn() with the kernel timed just before, during (by a Sampler)
    and just after it.  Returns fn's result, its wall time without the
    sampler's, and that time in reference seconds."""
    before = kernel_s()
    with Sampler() as sampler:
        sampler.active = True
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start
        sampler.active = False
    samples, paused = sampler.take()
    wall -= paused
    return result, wall, scale(wall, [before, *samples, kernel_s()])

"""Gauge the host's current speed with a fixed pure-Python reference task.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
up to a factor of two over seconds to minutes; CPU time drifts with wall
time, so it is the processor that slows, not the scheduler.  A fixed
task timed in the same process between ops slows by the same factor, so
the benchmark reports every timing at the reference speed: a measured
time is multiplied by ``NOMINAL_S`` over the median of the task's times
taken just before and just after it.

Code of different kinds slows by different factors, so a workload may
name its own task of the kind of work its ops do, and set-up times are
gauged with ``setup_task``, which loads module code as a set-up's imports
do.  A task uses only the benchmark's own code and the standard library,
so a change to the library never changes it.  On a 2-vCPU KVM guest
(Intel Xeon) the default task takes 0.5 to 1 ms and ``setup_task`` 1.4
to 3 ms, as the host's speed drifts.
"""

from __future__ import annotations

import importlib.util
import statistics
import time
import types
from collections import deque

NOMINAL_S = 1e-3  # what one reference task counts for in reported times
HALF = 4  # task times taken on each side of what a gauge scales


def reference_task() -> int:
    """The default task: small frozensets, dict updates, bit tests, hashing."""
    table: dict = {}
    acc = 0
    for i in range(400):
        s = frozenset([j for j in range(6) if i >> j & 1])
        table[s] = table.get(s, 0) + len(s)
        acc ^= hash(s) & 0xFF
    return acc


def setup_task() -> int:
    """Load and run the argparse module's code afresh, as an import does."""
    spec = importlib.util.find_spec("argparse")
    module = types.ModuleType("argparse")
    module.__file__ = spec.origin
    exec(spec.loader.get_code("argparse"), module.__dict__)
    return len(module.__dict__)


class Gauge:
    """Recent times of a reference task, numbered in the order taken.

    A stretch of work that ended just before task time ``k`` is scaled to
    the reference speed by ``scale_around(k)``: NOMINAL_S over the median
    of the HALF task times before the stretch and the HALF after it.  A
    new gauge runs the task once untimed, then times it HALF times.
    """

    def __init__(self, task=reference_task):
        self.task = task
        self.times: deque = deque(maxlen=4 * HALF)
        self.count = 0
        task()
        for _ in range(HALF):
            self.sample()

    def sample(self) -> int:
        """Time the task once; return the number of this task time."""
        start = time.perf_counter()
        self.task()
        self.times.append(time.perf_counter() - start)
        self.count += 1
        return self.count - 1

    def scale_around(self, k: int) -> float:
        first = k - HALF - (self.count - len(self.times))
        window = list(self.times)[first : first + 2 * HALF]
        if first < 0 or len(window) < 2 * HALF:
            raise ValueError(f"task times {k - HALF}..{k + HALF - 1} are not all kept")
        return NOMINAL_S / statistics.median(window)

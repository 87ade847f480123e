"""Closed-loop measurement of one workload, untraced or traced.

One client issues one op at a time and checks its answer before the
next; no threads or worker processes.  Only the op itself is timed, and
when tracing only the op is recorded: the independent answer check and
any per-cycle preparation run between ops, outside the op's timer.

Per-op latencies go into a fixed-size uniform sample, so the harness's
own memory does not grow with the op count and ``peak_rss_mb`` moves
only with the library's memory.

The untraced run reports times at the reference speed (see
``hostspeed``): after every 5 ms of op time it times the workload's
reference task, and scales each stretch of ops by the task times taken
just before and just after it.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field

from hostspeed import HALF, Gauge, reference_task
from tracing import COUNT_NAMES, LAYERS, Tracer, layer_self_seconds, write_spans

MIN_OPS = 100
MIN_BEYOND = 10
MIN_PAIRS = 2  # traced runs: pairs of untraced and traced passes
SAMPLE_SIZE = 20_000  # latencies kept per run; a p90 rank error of about 0.2%
GAUGE_EVERY_S = 0.005  # op time between two timings of the reference task


class Workload:
    """Seeded inputs plus a cyclic op schedule with an answer check per op.

    Constructing a workload is its set-up: it generates every input from
    the seed and runs its warm-up.  Every cycle has the same composition,
    so whole cycles give the same mix of op kinds on every run.
    """

    name = ""
    trace_cycles = 1  # cycles in one pass of the traced run
    reference = staticmethod(reference_task)  # the gauge's task, see hostspeed

    def cycle(self, index: int) -> list:
        """Ops of cycle ``index``; may prepare per-cycle state (untimed)."""
        raise NotImplementedError

    def run(self, op):
        """Perform one op and return what it produced."""
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        """None if the result is right, else a one-line reason."""
        raise NotImplementedError

    def close(self):
        pass


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples above its rank.

    Refuses when fewer than MIN_BEYOND samples lie beyond the reported
    rank, so a reported tail percentile always rests on at least ten
    slower samples.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {len(ordered)} samples has {beyond} beyond it, "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1], beyond


class LatencySample:
    """A uniform sample of at most SAMPLE_SIZE latencies (reservoir sampling).

    The storage is allocated up front, so its size is the same whatever
    the op count.  ``seed`` makes the choice of kept samples repeatable.
    """

    def __init__(self, seed: int = 0):
        self.values = array("d", bytes(8 * SAMPLE_SIZE))
        self.seen = 0
        self._rng = random.Random(seed)

    def add(self, value: float):
        if self.seen < SAMPLE_SIZE:
            self.values[self.seen] = value
        else:
            slot = self._rng.randrange(self.seen + 1)
            if slot < SAMPLE_SIZE:
                self.values[slot] = value
        self.seen += 1

    def kept(self) -> array:
        return self.values[: min(self.seen, SAMPLE_SIZE)]


@dataclass
class Tally:
    latencies: LatencySample = field(default_factory=LatencySample)  # inf for failed ops
    op_seconds: float = 0.0  # scaled to the reference speed, if measured so
    wall_op_seconds: float = 0.0  # as measured
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def wrong(self) -> int:
        return sum(n for reason, n in self.failures.items() if reason.startswith("wrong"))

    def add(self, elapsed: float, ok: bool, scale: float = 1.0):
        """Add one op's time as measured; a failed op counts as the slowest."""
        self.wall_op_seconds += elapsed
        self.op_seconds += elapsed * scale
        self.latencies.add(elapsed * scale if ok else math.inf)


def _attempt(workload: Workload, op, tally: Tally, tracer: Tracer | None = None):
    """Run, time and check one op; count it in ``tally``.

    Returns the op time in seconds as measured and whether the op passed;
    the caller adds the time to the tally.
    """
    clock = time.perf_counter
    if tracer is not None:
        tracer.recording = True
    error = None
    start = clock()
    try:
        result = workload.run(op)
    except Exception as e:  # an op that raises is a failed op, not a crash
        error = e
    elapsed = clock() - start
    if tracer is not None:
        tracer.recording = False
    tally.attempted += 1
    if error is not None:
        reason = f"raised {type(error).__name__}"
    else:
        try:
            reason = workload.check(op, result)
        except Exception as e:
            reason = f"check raised {type(e).__name__}: {e}"
        if reason is not None:
            reason = f"wrong: {reason}"
    if reason is not None:
        tally.failures[reason] += 1
    return elapsed, reason is None


def measure(workload: Workload, seconds: float, seed: int = 0) -> Tally:
    """Run whole cycles until ``seconds`` have passed and MIN_OPS ops ran.

    Whole cycles give every run the same mix of op kinds.  Op times are
    scaled to the reference speed: the ops between two task times form a
    stretch, held until HALF task times follow it.
    """
    tally = Tally(LatencySample(seed))
    gauge = Gauge(workload.reference)
    pending: deque = deque()  # (number of the task time that closed it, [(op time, passed)])
    stretch, since = [], 0.0

    def close_stretch():
        nonlocal stretch, since
        pending.append((gauge.sample(), stretch))
        stretch, since = [], 0.0
        while pending and gauge.count >= pending[0][0] + HALF:
            closed, ops = pending.popleft()
            scale = gauge.scale_around(closed)
            for elapsed, ok in ops:
                tally.add(elapsed, ok, scale)

    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or tally.attempted < MIN_OPS:
        for op in workload.cycle(index):
            elapsed, ok = _attempt(workload, op, tally)
            stretch.append((elapsed, ok))
            since += elapsed
            if since >= GAUGE_EVERY_S:
                close_stretch()
        index += 1
    for _ in range(HALF):
        close_stretch()
    return tally


def throughput(tally: Tally) -> float:
    """Completed ops per second of op time."""
    return (tally.attempted - tally.failed) / tally.op_seconds


def run_pass(workload: Workload, cycles: int, tally: Tally, tracer: Tracer | None = None) -> float:
    """A fixed number of cycles into ``tally``; return the pass's op time.

    The op ids restart at 0 for every pass.
    """
    op_seconds = 0.0
    op_id = 0
    for index in range(cycles):
        for op in workload.cycle(index):
            if tracer is not None:
                tracer.op = op_id
            elapsed, ok = _attempt(workload, op, tally, tracer)
            tally.add(elapsed, ok)
            op_seconds += elapsed
            op_id += 1
    return op_seconds


def end_to_end(tally: Tally) -> dict:
    samples = tally.latencies.kept()
    p50, beyond50 = percentile(samples, 0.50)
    p90, beyond90 = percentile(samples, 0.90)
    return {
        "ops_per_s": throughput(tally),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "samples": len(samples),
        "beyond_p50": beyond50,
        "beyond_p90": beyond90,
    }


def traced_run(make_workload, seconds: float, spans_path=None):
    """Alternate untraced and traced passes over the same fixed op list.

    The untraced passes run on a workload built before any wrapper is
    installed; the traced passes on a second one built with the wrappers
    installed (recording off), so every rank oracle it owns is counted.
    Count metrics come from the first traced pass; later passes must
    repeat them exactly.  Self times and the overhead ratio are medians
    over passes; at least MIN_PAIRS pairs run, one in each order.
    """
    tracer = Tracer()
    plain = make_workload()
    with tracer.installed():
        traced = make_workload()
    cycles = traced.trace_cycles
    total = Tally()
    ratios, self_runs, counts, repeat_ok = [], [], None, True

    def traced_pass():
        tracer.reset()
        with tracer.installed():
            return run_pass(traced, cycles, total, tracer)

    started = time.perf_counter()
    try:
        while True:
            pair_start = time.perf_counter()
            # alternate which pass goes first, so a drifting host favours neither
            if len(ratios) % 2:
                with_trace = traced_pass()
                untraced = run_pass(plain, cycles, total)
            else:
                untraced = run_pass(plain, cycles, total)
                with_trace = traced_pass()
            ratios.append(with_trace / untraced)
            self_runs.append(layer_self_seconds(tracer.spans))
            pass_counts = _count_metrics(tracer)
            if counts is None:
                counts = pass_counts
                if spans_path is not None:
                    write_spans(tracer.spans, spans_path)
            elif pass_counts != counts:
                repeat_ok = False
            pair_seconds = time.perf_counter() - pair_start
            elapsed = time.perf_counter() - started
            if len(ratios) >= MIN_PAIRS and elapsed + pair_seconds > seconds:
                break
    finally:
        plain.close()
        traced.close()
    metrics = dict(counts)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(run[layer] for run in self_runs)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return metrics, total, repeat_ok, len(ratios)


def _count_metrics(tracer: Tracer) -> dict:
    out = {f"{layer}.calls": tracer.calls[layer] for layer in LAYERS}
    for name in COUNT_NAMES:
        out[name] = tracer.counts[name]
    rank_calls = tracer.counts["core.rank_calls"]
    evals = tracer.counts["core.oracle_evals"]
    out["core.memo_hit_ratio"] = 1 - evals / rank_calls if rank_calls else 0.0
    return out

import math
import time

import pytest

from harness import (
    MIN_BEYOND, MIN_OPS, SAMPLE_SIZE, LatencySample, Tally, Workload, end_to_end, measure,
    percentile,
)
from hostspeed import NOMINAL_S


def test_percentile_reports_nearest_rank_with_ten_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 0.5) == (50, 50)
    assert percentile(samples, 0.9) == (90, MIN_BEYOND)


def test_percentile_refuses_with_fewer_than_ten_beyond():
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(list(range(99)), 0.9)
    assert percentile(list(range(20)), 0.5)[1] == 10
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.5)


def test_failed_ops_count_as_slowest_and_not_as_completed():
    tally = Tally(op_seconds=0.1, attempted=100)
    for latency in [0.001] * 95 + [math.inf] * 5:
        tally.latencies.add(latency)
    tally.failures["raised OSError"] = 5
    e2e = end_to_end(tally)
    assert e2e["latency_p90_ms"] == pytest.approx(1.0)
    assert e2e["ops_per_s"] == pytest.approx(950)
    assert tally.wrong == 0
    tally.failures["wrong: bad answer"] = 1
    assert tally.wrong == 1


class Idle(Workload):
    def cycle(self, index):
        return list(range(30))

    def run(self, op):
        return op

    def check(self, op, result):
        return None if result == op else "echo"


def test_a_run_is_whole_cycles_with_enough_ops():
    tally = measure(Idle(), 0.05)
    assert tally.attempted >= MIN_OPS and tally.attempted % 30 == 0
    assert tally.failed == 0


def test_latency_sample_keeps_a_fixed_size_uniform_sample():
    sample = LatencySample(seed=7)
    size = len(sample.values)
    for i in range(3 * SAMPLE_SIZE):
        sample.add(float(i))
    kept = sample.kept()
    assert len(sample.values) == size == len(kept) == SAMPLE_SIZE
    assert sample.seen == 3 * SAMPLE_SIZE
    # a uniform sample of 0 .. 3N-1 has its median near 1.5N
    assert percentile(kept, 0.5)[0] == pytest.approx(1.5 * SAMPLE_SIZE, rel=0.05)


class SlowReference(Idle):
    reference = staticmethod(lambda: time.sleep(2 * NOMINAL_S))


def test_op_times_are_scaled_to_the_reference_speed():
    # the reference task takes about twice its nominal time, so a time
    # measured now counts for about half of it at the reference speed
    tally = measure(SlowReference(), 0.05)
    assert tally.op_seconds / tally.wall_op_seconds == pytest.approx(0.5, rel=0.3)

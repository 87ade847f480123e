"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload anchor-coloring --seed 1 --seconds 20 --trace 0

Prints one ``name: value unit (details)`` line per metric and, as the last
line, a JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of an
untraced run; ``--trace 1`` the per-layer metrics of a traced run.  The
library is imported from ``src/`` next to this directory, never from an
installed copy.  End-to-end times are reported at the reference speed
of ``hostspeed``, so that the shared host's drifting speed cancels.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HALF, Gauge, setup_task

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("anchor-coloring", "axiom-scan", "list-search", "cli-certify")
DEFAULT_SEED = 1
SETUPS = 9  # set-ups per run (this process plus fresh child processes)
CHILD_TIMEOUT_S = 120


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up in this fresh process, print the set-up time and exit")
    return p.parse_args(argv)


def _import_library():
    """Import matroidkit from this checkout's src/, or exit with an error."""
    if not (SRC / "matroidkit" / "__init__.py").is_file():
        sys.exit(f"error: no matroidkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import matroidkit

    if Path(matroidkit.__file__).resolve().parent != SRC / "matroidkit":
        sys.exit(f"error: imported matroidkit from {matroidkit.__file__}, not {SRC}")


def _workdir(tag: str) -> str:
    return os.path.relpath(HERE / "_work" / f"{os.getpid()}-{tag}")


def _setup_seconds(gauge: Gauge, started: float) -> float:
    """Time since ``started``, scaled by the gauge's task times around it.

    The gauge, timing ``setup_task``, was made just before ``started``.
    """
    took = time.perf_counter() - started
    after = gauge.sample()
    for _ in range(HALF - 1):
        gauge.sample()
    return took * gauge.scale_around(after)


def _child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _line(name, value, unit, detail=""):
    print(f"{name}: {value:.6g} {unit}" + (f" ({detail})" if detail else ""))


def _failure_lines(tally):
    frac = tally.failed / tally.attempted
    reasons = ", ".join(f"{r} x{n}" for r, n in sorted(tally.failures.items())) or "none"
    _line("fail_frac", frac, "ratio", f"{tally.failed} failed of {tally.attempted} attempted; {reasons}")


def _untraced(args, gauge: Gauge, started: float) -> dict:
    from harness import end_to_end, measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, _workdir("run"))
    setups = [_setup_seconds(gauge, started)]
    try:
        tally = measure(workload, args.seconds, args.seed)
    finally:
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += [_child_setup_seconds(args) for _ in range(SETUPS - 1)]
    e2e = end_to_end(tally)
    n = e2e["samples"]
    _line("ops_per_s", e2e["ops_per_s"], "1/s",
          f"{tally.attempted - tally.failed} ops in {tally.op_seconds:.3f} s of op time "
          f"at reference speed, {tally.wall_op_seconds:.3f} s as measured")
    _line("latency_p50_ms", e2e["latency_p50_ms"], "ms",
          f"{tally.attempted} ops, {n} sampled, {e2e['beyond_p50']} beyond")
    _line("latency_p90_ms", e2e["latency_p90_ms"], "ms",
          f"{tally.attempted} ops, {n} sampled, {e2e['beyond_p90']} beyond")
    _failure_lines(tally)
    _line("peak_rss_mb", peak_rss_mb, "MB", "this process: set-up and timed phase")
    _line("setup_s", statistics.median(setups), "s",
          "median of " + ", ".join(f"{s:.3f}" for s in setups))
    metrics = {
        "ops_per_s": (e2e["ops_per_s"], "1/s"),
        "latency_p50_ms": (e2e["latency_p50_ms"], "ms"),
        "latency_p90_ms": (e2e["latency_p90_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return _result(tally, metrics)


def _traced(args) -> dict:
    from harness import traced_run
    from workloads import WORKLOADS

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-{args.seed}.tsv"
    tags = iter(("plain", "traced"))
    metrics, tally, repeated, passes = traced_run(
        lambda: WORKLOADS[args.workload](args.seed, _workdir(next(tags))),
        args.seconds,
        spans_path,
    )
    units = {}
    for name, value in metrics.items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
        units[name] = unit
        _line(name, value, unit)
    print(f"# {passes} traced passes; counts repeat across passes: {'yes' if repeated else 'NO'}")
    print(f"# spans of the first traced pass: {os.path.relpath(spans_path)}")
    _failure_lines(tally)
    return _result(tally, {name: (metrics[name], units[name]) for name in metrics})


def _result(tally, metrics) -> dict:
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    gauge = Gauge(setup_task)
    started = time.perf_counter()
    _import_library()
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, _workdir("setup")).close()
        print(json.dumps({"setup_s": _setup_seconds(gauge, started)}))
        return 0
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    result = _traced(args) if args.trace else _untraced(args, gauge, started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

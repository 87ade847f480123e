"""Check that the end-to-end metrics are steady across seeds.

Runs every workload of BENCHMARK.json once on each of the seeds 1..10
(untraced), then reports for each end-to-end metric its median over the
runs and the distance between the first and third quartile as a share
of that median, next to the metric's bound from BENCHMARK.json.  A
spread below a third of the bound is marked ``ok``, any other ``WIDE``.
With ``--against`` it also compares each median with a previous result
file and marks a worsening beyond the bound.

    python3 bench/steadiness.py --save bench/out/steady-a.json
    python3 bench/steadiness.py --against bench/out/steady-a.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float]:
    """Median and (q3 - q1) / median, quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--save", help="write the per-run results to this JSON file")
    p.add_argument("--against", help="compare medians with a file written by --save")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    previous = json.loads(Path(args.against).read_text()) if args.against else {}
    results: dict = {}
    steady = True
    for workload in workloads:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items())
            print(f"{workload} seed {seed}: {values}", flush=True)
        results[workload] = runs
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        print(f"{workload}: {attempted} ops, {failed} failed, {wrong} runs not correct")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            ok = share < bound / 3
            line = (f"  {name:16s} median {median:12.6g}  spread {share:7.2%}"
                    f"  bound {bound:.0%}  {'ok' if ok else 'WIDE'}")
            if workload in previous:
                before = statistics.median(r["metrics"][name]["value"] for r in previous[workload])
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                change = (median - before) / before * (1 if better == "lower" else -1)
                worse = change > bound
                line += f"  vs before {change:+.2%} worse{' REGRESSED' if worse else ''}"
                ok = ok and not worse
            steady = steady and ok
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(results))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

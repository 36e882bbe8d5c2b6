"""Steadiness check: do two sets of benchmark runs of the same code agree?

Usage:
    python3 bench/steady.py

For each workload, set A runs ``run.py`` once per seed in SEEDS_A (seeds with
recorded references), then set B once per seed in SEEDS_B, so set B also
shows that no workload is tuned to its default seed. For every end-to-end
metric it prints each set's median and spread (distance between the
quartiles over the median) and whether

  * the spread of each set stays under a third of the metric's bound in
    BENCHMARK.json, and
  * set B's median is no worse than set A's by more than the bound.

Exits 1 if any run fails or any comparison misses.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS_A = range(10)
SEEDS_B = range(100, 110)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for name, seeds in (("A", SEEDS_A), ("B", SEEDS_B)):
            for seed in seeds:
                result = run_once(workload, seed, config["run_seconds"])
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"{workload} set {name} seed {seed}: incorrect output", flush=True)
                sets[name].append(result)
                print(f"{workload} set {name} seed {seed}: "
                      + json.dumps({k: m["value"] for k, m in result["metrics"].items()}),
                      flush=True)
        for metric in config["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            values = {s: [r["metrics"][key]["value"] for r in runs] for s, runs in sets.items()}
            med = {s: statistics.median(v) for s, v in values.items()}
            spreads = {s: spread(v) for s, v in values.items()}
            worse = sign * (med["B"] - med["A"]) / med["A"]
            steady = max(spreads.values()) < bound / 3
            agree = worse <= bound
            ok = ok and steady and agree
            print(f"{workload:22s} {key:12s} median A {med['A']:.6g} B {med['B']:.6g} "
                  f"spread A {spreads['A']:.4f} B {spreads['B']:.4f} (bound {bound}) "
                  f"B worse by {worse:+.4f}: {'ok' if steady and agree else 'MISS'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

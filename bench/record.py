"""Record reference outputs of the current sources for the given seeds.

Usage: python3 bench/record.py SEED [SEED ...]

Runs one untraced pass of every workload per seed, checks the invariants,
and stores the arrays ``checks.reference_arrays`` selects in
``reference/<workload>.npz`` under the key prefix ``seed<N>.``. Existing
seeds in those files are kept unless recorded again. Only re-record when a
change is meant to alter the outputs, and say so where the change is
described.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import checks
import run


def record(seeds: list[int]) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in run.WORKLOADS:
        path = checks.REFERENCE_DIR / f"{name}.npz"
        stored: dict[str, np.ndarray] = {}
        if path.is_file():
            with np.load(path) as data:
                stored = {k: data[k] for k in data.files}
        for seed in seeds:
            graph, _ = run.describe_graphs(name, seed)
            captured = {}

            def keep(outdir):
                captured.update(checks.extract(name, outdir))

            rec = run.run_pass(name, seed, False, f"record-{name}-{seed}", graph, None,
                               time.monotonic() + run.RUN_DEADLINE_S, keep)
            if rec["problems"]:
                raise SystemExit(f"{name} seed {seed}: {rec['problems']}")
            for key, value in checks.reference_arrays(name, captured).items():
                stored[f"seed{seed}.{key}"] = value
            print(f"{name} seed {seed}: recorded ({rec['wall_s']:.2f} s)", flush=True)
        np.savez_compressed(path, **stored)


if __name__ == "__main__":
    record([int(s) for s in sys.argv[1:]])

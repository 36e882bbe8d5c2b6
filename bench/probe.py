"""Speed probe: samples how fast the benchmark's CPU is running.

Usage: python probe.py OUT_PATH N

Started by ``run.py`` on the same pinned CPU as the workload children, it
prints ``ready`` once warm, then sleeps ``PERIOD_S``, times one short unit of
work, and repeats until SIGTERM. It then writes ``[[start, seconds], ...]``
(``time.monotonic`` clock, shared with the children) as JSON to OUT_PATH and
exits.

On a shared machine the CPU's speed changes from one tenth of a second to
the next as other tenants load the same physical core, and work bound by
the interpreter, by the core or by memory slows by different amounts. So the
unit is a few double-steps of the Szegedy walk's reduced update, written
here independently of qprank, on a random N x N column-stochastic matrix:
the same mix of numpy calls and matrix traffic as the workload's own walk at
that size, whose mean time over an interval says how slow the workload ran
then. Each unit is about 0.4 ms of work on the reference machine, where two
double-steps and a measurement cost roughly (25000 + N**2) ns. One untimed
such repetition before each unit brings the matrices back into the caches the workload
evicted them from during the sleep, as the workload's own steps find them.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.02

_stop = False


def _request_stop(*_):
    global _stop
    _stop = True


class Unit:
    def __init__(self, n: int):
        rng = np.random.default_rng(0)
        self.g = rng.random((n, n))
        self.g /= self.g.sum(axis=0)
        r = np.sqrt(self.g)
        self.d = r * r.T
        self.a = np.full(n, 1.0 / np.sqrt(n))
        self.b = np.zeros(n)
        self.reps = max(1, round(4e5 / (25000 + n * n)))

    def __call__(self, reps: int) -> None:
        a, b, d = self.a, self.b, self.d
        for _ in range(reps):
            a, b = -b, a + 2.0 * (d @ b)
            a, b = -b, a + 2.0 * (d @ b)
            self.g @ (a * a) + 2.0 * b * (d @ a) + b * b


def main() -> int:
    signal.signal(signal.SIGTERM, _request_stop)
    unit = Unit(int(sys.argv[2]))
    unit(unit.reps)
    print("ready", flush=True)
    samples = []
    while not _stop:
        time.sleep(PERIOD_S)
        unit(1)
        start = time.monotonic()
        unit(unit.reps)
        samples.append([start, time.monotonic() - start])
    with open(sys.argv[1], "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass in a fresh interpreter.

Usage: python child.py '<json spec>'

The spec names the CLI invocations to run, the hook that times each item,
whether to trace, and where to write spans. The child imports ``qprank.cli``
from ``src/``, initialises BLAS, notes the moment it is ready, runs every
invocation through ``qprank.cli.main`` and prints one JSON object as the last
line of its standard output. Its times are on the ``time.monotonic`` clock,
which the parent and the speed probe share. Nothing under ``src/`` is modified: the item
hooks and the tracer replace module attributes in this process only.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Tracer:
    """Spans (name, start, end, parent, run id) recorded around calls into the
    package's public functions and written out once, after the pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            span = {"id": span_id, "name": name, "parent": self.stack[-1] if self.stack else None,
                    "run": self.run_id}
            self.spans.append(span)
            self.stack.append(span_id)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self.stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each public name at every module that binds it.

        ``analysis`` and ``cli`` import the graph and Google functions by
        name, so those bindings are patched alongside the defining module's.
        The walk is patched on the class, which covers both ``rank``'s direct
        call and ``analysis``' ``.average``.
        """
        from qprank import analysis, cli, google, graphs, walk

        def horizon(args, kwargs, _result):
            default = args[1] if len(args) > 1 else walk.DEFAULT_HORIZON
            return {"n": args[0].n, "T": kwargs.get("horizon", default)}

        def ensemble(_args, _kwargs, report):
            return {"attempted": report.count, "failed": report.failures}

        bindings = [
            ("graphs.generate", graphs.generate, [graphs, analysis], None),
            ("graphs.remove_node", graphs.remove_node, [graphs, analysis], None),
            ("google.google_from_graph", google.google_from_graph, [google, analysis, cli], None),
            ("google.classical_pagerank", google.classical_pagerank, [google, analysis, cli],
             None),
            ("analysis.importance_vector", analysis.importance_vector, [analysis], None),
            ("analysis.ranking_order", analysis.ranking_order, [analysis], None),
            ("analysis.kendall_coefficient", analysis.kendall_coefficient, [analysis], None),
            ("analysis.pairwise_stability", analysis.pairwise_stability, [analysis], None),
            ("analysis.ensemble_run", analysis.ensemble_run, [analysis], ensemble),
        ]
        for name, fn, modules, attrs in bindings:
            traced = self.wrap(name, fn, attrs)
            attr = fn.__name__
            for module in modules:
                setattr(module, attr, traced)
        cls = walk.SzegedyWalk
        cls.__init__ = self.wrap("walk.init", cls.__init__)
        cls.average_with_convergence = self.wrap(
            "walk.average", cls.average_with_convergence, horizon
        )

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def main() -> int:
    spec = json.loads(sys.argv[1])
    import numpy as np

    np.ones((64, 64)) @ np.ones((64, 64))  # OpenBLAS sets up its buffers on first use
    # Start-up so far does not depend on qprank; the parent scales set-up
    # times by its speed.
    calibrated = time.monotonic()
    from qprank import analysis, cli

    ready = time.monotonic()
    if spec.get("setup_only"):
        print(json.dumps({"calibrated": calibrated, "ready": ready}))
        return 0

    items: list[list] = []

    def hook(module, attr, key):
        fn = getattr(module, attr)

        def timed(item):
            start = time.monotonic()
            try:
                return fn(item)
            finally:
                items.append([key(item), start, time.monotonic()])

        setattr(module, attr, timed)

    if spec["hook"] == "ensemble_member":
        hook(analysis, "run_ensemble_item", lambda item: item[0].seed)
    elif spec["hook"] == "damping_value":
        hook(cli, "importance_item", lambda item: item[2])

    tracer = None
    run_main = cli.main
    if spec["trace"]:
        tracer = Tracer(spec["run_id"])
        tracer.install()
        run_main = tracer.wrap("cli.main", cli.main)

    calls = []
    for argv in spec["argvs"]:
        start = time.monotonic()
        code = run_main(argv)
        calls.append({"exit": code, "start": start, "end": time.monotonic()})
    if tracer is not None:
        tracer.write(spec["spans"])
    print(json.dumps({
        "calibrated": calibrated,
        "ready": ready,
        "calls": calls,
        "items": items,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

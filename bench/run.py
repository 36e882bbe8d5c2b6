"""qprank benchmark: one workload, end to end or per layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/qprank`` must exist). Each pass
runs the workload's CLI invocations in a fresh child interpreter through
``qprank.cli.main``, one child at a time, with ``--jobs 1`` and BLAS pinned to
one thread. The benchmark pins itself, and so every child, to one CPU, and
keeps a speed probe (probe.py) sampling that CPU for the whole run; the other
core stays free. Passes repeat until another pass would overrun
``--seconds``; after each pass set-up-only children measure interpreter
start, BLAS initialisation and ``import qprank.cli`` again. Every pass's
artifacts go to a temporary directory inside the checkout that is removed
afterwards, and are checked against the invariants and, for recorded seeds,
the reference outputs (see checks.py).

Pass, item and layer times are scaled by the probe's speed over the same
interval, and set-up times by the speed of the start-up that comes before
``import qprank.cli``, so they read in seconds at the reference machine's
usual speed (see "Speed normalisation" in README.md); the record keeps the
raw times. ``wall_s``, ``item_ms_p50`` and ``setup_s`` are medians over the
run's passes, items and set-up samples.

With ``--trace 0`` the result holds the end-to-end metrics. With ``--trace 1``
untraced and traced passes alternate, and the result holds the per-layer
metrics derived from the traced passes' spans plus the tracing overhead.

The second-to-last line of standard output is the run record (versions,
pinned threads, sizes, raw samples); the last line is the result object.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
PROBE = BENCH / "probe.py"
SETUP_SAMPLES_PER_PASS = 10
# Median time from spawning a child to its having imported numpy and set up
# BLAS, before it imports qprank, on the reference machine (see
# Workload.probe_ref_s); setup_s is the median set-up time scaled by this over
# the run's median of that calibration time.
CALIBRATION_REF_S = 0.16
# A run must end within 180 s even if the program hangs.
RUN_DEADLINE_S = 170
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The probe's walk runs on min(n, PROBE_N_MAX) nodes: at 512 its two matrices
# (4 MiB) already spill the core's L2, as the workload's do at 2048.
PROBE_N_MAX = 512
# An item can last 70 ms (one damping value of stability_sf256_fine); its
# probe window is widened to this length around it so that it holds enough
# probe units.
MIN_PROBE_WINDOW_S = 0.5
# Caches of the reference machine (/sys/devices/system/cpu/cpu0/cache). The
# benchmark reads no file outside its checkout, so they are stated, not read:
# on another host they describe the reference machine, not that host.
REFERENCE_MACHINE_CACHE_BYTES = {"L2_per_core": 2 * 2**20, "L3_shared": 105 * 2**20}


@dataclass(frozen=True)
class Workload:
    """CLI invocations of one pass; why each workload exists is in README.md."""

    argvs: tuple[tuple[str, ...], ...]
    hook: str | None  # which call is one item; None: the whole pass is one item
    items_per_pass: int
    # Mean time of one probe unit on the reference machine, a 2-core Xeon
    # (family 6, model 143), over the runs the bounds were set from. A time
    # scaled by probe_ref_s / (the unit's mean time over the same interval)
    # reads in seconds at that machine's usual speed.
    probe_ref_s: float

    def option(self, flag: str, default: str | None = None) -> str | None:
        """The value of a CLI option, read from the first invocation."""
        argv = self.argvs[0]
        return argv[argv.index(flag) + 1] if flag in argv else default


WORKLOADS = {
    "attack_sf16": Workload(
        argvs=(("attack", "--family", "sf", "--n", "16", "--removals", "5",
                "--ensemble", "100", "--mode", "both", "--T", "1000"),),
        hook="ensemble_member", items_per_pass=100, probe_ref_s=3.4e-4,
    ),
    "stability_sf256_fine": Workload(
        argvs=tuple(("stability", "--family", "sf", "--n", "256", "--grid", "fine",
                     "--mode", mode) for mode in ("quantum", "classical")),
        hook="damping_value", items_per_pass=98, probe_ref_s=2.8e-4,
    ),
    "rank_sf2048": Workload(
        argvs=(("rank", "--family", "sf", "--n", "2048", "--T", "1000"),),
        hook=None, items_per_pass=1, probe_ref_s=5.9e-4,
    ),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    return env


def spawn(spec: dict, deadline: float) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child, killed at ``deadline`` (monotonic clock); returns its
    spawn time and the completed process (exit code -9 if it was killed)."""
    spawned = time.monotonic()
    args = [sys.executable, str(CHILD), json.dumps(spec)]
    try:
        proc = subprocess.run(args, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(args, -9, "", "killed at the run deadline")
    return spawned, proc


def last_json_line(text: str) -> dict | None:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def measure_setup(deadline: float) -> tuple[float, float] | None:
    """Seconds from spawning a set-up-only child to its calibration point
    (numpy imported, BLAS set up) and to its being ready (qprank imported);
    None if it failed."""
    spawned, proc = spawn({"setup_only": True}, deadline)
    out = last_json_line(proc.stdout)
    if proc.returncode != 0 or out is None:
        return None
    return out["calibrated"] - spawned, out["ready"] - spawned


# ---------------------------------------------------------------------------
# Speed normalisation
# ---------------------------------------------------------------------------


def pin_cpu() -> int:
    """Pin this process, and so every child and the probe, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """The probe process (probe.py) for the duration of a ``with`` block;
    ``samples`` holds its (start, seconds) pairs once the block has ended."""

    def __init__(self, path: Path, n: int, ref_s: float):
        self.path = path
        self.n = min(n, PROBE_N_MAX)
        self.ref_s = ref_s
        self.samples: list[list[float]] = []
        self.starts: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        self.proc = subprocess.Popen([sys.executable, str(PROBE), str(self.path), str(self.n)],
                                     cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("speed probe failed to start")
        return self

    def __exit__(self, *_exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.path.is_file():
            self.samples = json.loads(self.path.read_text())
            self.starts = [t for t, _ in self.samples]

    def factor(self, start: float, end: float) -> float:
        """The reference unit time over the probe unit's mean time within
        [start, end], widened to MIN_PROBE_WINDOW_S: multiplying a time
        measured over the interval by it gives the time at the reference
        speed."""
        widen = max(0.0, MIN_PROBE_WINDOW_S - (end - start)) / 2
        lo = bisect.bisect_left(self.starts, start - widen)
        hi = bisect.bisect_left(self.starts, end + widen)
        units = [s for _, s in self.samples[lo:hi]]
        if not units:
            raise RuntimeError(f"no speed-probe samples within [{start:.3f}, {end:.3f}]")
        return self.ref_s / statistics.fmean(units)


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


def artifact_digest(outdir: Path) -> tuple[str, int, int]:
    """Hash of the data artifacts (the run-config echo names the temporary
    directory, so it is left out), plus total bytes and files written."""
    digest = hashlib.sha256()
    size = files = 0
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        size += path.stat().st_size
        files += 1
        if not path.name.endswith("_run_config.json"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest(), size, files


def run_pass(name: str, seed: int, trace: bool, run_id: str, graph, reference,
             deadline: float, keep=None) -> dict:
    """One child running the workload; returns timings, items and check results.

    ``keep`` (a callable taking the output directory) sees the artifacts before
    the temporary directory is removed.
    """
    wl = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        outdir = Path(tmp) / "out"
        spans_path = Path(tmp) / "spans.jsonl"
        spec = {
            "argvs": [list(a) + ["--seed", str(seed), "--jobs", "1", "--out", str(outdir)]
                      for a in wl.argvs],
            "hook": wl.hook,
            "trace": trace,
            "run_id": run_id,
            "spans": str(spans_path),
        }
        spawned, proc = spawn(spec, deadline)
        result = last_json_line(proc.stdout)
        rec = {"traced": trace, "items": wl.items_per_pass, "problems": []}
        if proc.returncode != 0 or result is None:
            rec["problems"].append(f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return rec
        rec["setup"] = (result["calibrated"] - spawned, result["ready"] - spawned)
        rec["span"] = (result["calls"][0]["start"], result["calls"][-1]["end"])
        rec["wall_s"] = sum(c["end"] - c["start"] for c in result["calls"])
        rec["peak_rss_mb"] = result["maxrss_kib"] / 1024.0
        codes = [c["exit"] for c in result["calls"]]
        if any(codes):
            rec["problems"].append(f"CLI exit codes {codes}")
            return rec
        rec["item_spans"] = result["items"]
        rec["problems"] += checks.check(name, outdir, graph, reference)
        rec["digest"], rec["bytes_written"], rec["files_written"] = artifact_digest(outdir)
        if trace:
            rec["layers"] = layer_metrics(spans_path)
            rec["layers"]["cli.bytes_written"] = rec["bytes_written"]
            rec["layers"]["cli.files_written"] = rec["files_written"]
        if keep is not None:
            keep(outdir)
        return rec


def normalise(p: dict, probe: SpeedProbe) -> None:
    """Add a checked pass's times at the reference speed: the pass's wall time,
    its layers' self times and each item's latency, keyed by ensemble seed or
    damping value. A
    damping value is one item across both modes, so its two rankings are
    summed. Without an item hook the whole pass is the one item."""
    factor = probe.factor(*p["span"])
    p["wall_norm_s"] = p["wall_s"] * factor
    if "layers" in p:
        layers = p["layers"]
        for key in layers:
            if key.endswith("self_s"):
                layers[key] *= factor
        walk_self = layers["walk.average.self_s"]
        layers["walk.gb_per_s_computed"] = (layers["walk.bytes_computed"] / walk_self / 1e9
                                            if walk_self else 0.0)
    if not p["item_spans"]:
        p["item_norm_s"] = {"pass": p["wall_norm_s"]}
        return
    per_key: dict = {}
    for key, start, end in p["item_spans"]:
        per_key[key] = per_key.get(key, 0.0) + (end - start) * probe.factor(start, end)
    p["item_norm_s"] = per_key


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------

LAYERS = ("graphs", "google", "walk", "analysis", "cli")


def layer_unit(key: str) -> str:
    for suffix, unit in (("_s", "s"), ("gb_per_s_computed", "GB/s"), ("bytes_computed", "B"),
                         ("bytes_written", "B"), ("flops_computed", "flop")):
        if key.endswith(suffix):
            return unit
    return "count"


def layer_metrics(spans_path: Path) -> dict[str, float]:
    """Per-layer metrics of one traced pass. A span's self time is its
    duration minus that of its child spans; calls nest, so children never
    overlap."""
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        own = (s["end"] - s["start"] - child_ns[s["id"]]) / 1e9
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + own

    double_steps = flops = doubles = 0
    for s in spans:
        if s["name"] == "walk.average":
            n, horizon = s["attrs"]["n"], s["attrs"]["T"]
            # Per double-step: two D @ b steps plus G @ (a*a) and D @ a to
            # measure, i.e. four n x n matvecs; the initial measure is two.
            double_steps += horizon - 1
            flops += 2 * n * n * (4 * (horizon - 1) + 2)
            doubles += n * n * (4 * (horizon - 1) + 2)
    ensembles = [s["attrs"] for s in spans if s["name"] == "analysis.ensemble_run"]

    def get(name, table):
        return table.get(name, 0)

    walk_self = get("walk.average", self_s)
    metrics = {
        "walk.average.calls": get("walk.average", calls),
        "walk.average.self_s": walk_self,
        "walk.double_steps": double_steps,
        "walk.flops_computed": flops,
        "walk.bytes_computed": 8 * doubles,
        "walk.gb_per_s_computed": 8 * doubles / walk_self / 1e9 if walk_self else 0.0,
        "walk.init.self_s": get("walk.init", self_s),
        "google.google_from_graph.calls": get("google.google_from_graph", calls),
        "google.google_from_graph.self_s": get("google.google_from_graph", self_s),
        "google.classical_pagerank.calls": get("google.classical_pagerank", calls),
        "google.classical_pagerank.self_s": get("google.classical_pagerank", self_s),
        "graphs.generate.self_s": get("graphs.generate", self_s),
        "graphs.remove_node.calls": get("graphs.remove_node", calls),
        "graphs.remove_node.self_s": get("graphs.remove_node", self_s),
        "analysis.importance_vector.calls": get("analysis.importance_vector", calls),
        "analysis.importance_vector.self_s": get("analysis.importance_vector", self_s),
        "analysis.ranking_order.self_s": get("analysis.ranking_order", self_s),
        "analysis.kendall_coefficient.calls": get("analysis.kendall_coefficient", calls),
        "analysis.kendall_coefficient.self_s": get("analysis.kendall_coefficient", self_s),
        "analysis.pairwise_stability.self_s": get("analysis.pairwise_stability", self_s),
        "analysis.ensemble_run.attempted": sum(e["attempted"] for e in ensembles),
        "analysis.ensemble_run.failed": sum(e["failed"] for e in ensembles),
        "cli.main.calls": get("cli.main", calls),
        "cli.self_s": get("cli.main", self_s),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    return metrics


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qprank").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_record(name: str, seed: int, graph_shape: dict, cpu: int) -> dict:
    import numpy as np
    from qprank.walk import DEFAULT_HORIZON

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    wl = WORKLOADS[name]
    return {
        **source_identity(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "pinned_env": PINNED_ENV,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "seed": seed,
        "workload": {"name": name, "argvs": [list(a) for a in wl.argvs],
                     "T": int(wl.option("--T", str(DEFAULT_HORIZON))),
                     "items_per_pass": wl.items_per_pass, **graph_shape},
        "reference_machine_cache_bytes": REFERENCE_MACHINE_CACHE_BYTES,
        # G and D, the two n x n float64 arrays each double-step streams.
        "walk_array_bytes": 2 * 8 * graph_shape["n"] ** 2,
    }


def describe_graphs(name: str, seed: int):
    """The generated inputs: (graph for the rank check, n/m summary)."""
    from qprank import graphs

    wl = WORKLOADS[name]
    n = int(wl.option("--n"))
    count = wl.items_per_pass if wl.hook == "ensemble_member" else 1
    gs = [graphs.generate(graphs.GeneratorSpec(wl.option("--family"), n=n, seed=seed + i))
          for i in range(count)]
    edges = [g.num_edges for g in gs]
    shape = {"n": n, "m": edges[0] if count == 1 else {"graphs": count, "min": min(edges),
                                                      "max": max(edges), "total": sum(edges)}}
    return gs[0], shape


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the only value when there is one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    graph, shape = describe_graphs(name, seed)
    reference = checks.load_reference(name, seed)
    record = run_record(name, seed, shape, pin_cpu())
    record["reference_compared"] = reference is not None

    passes: list[dict] = []
    setup_samples: list[tuple[float, float]] = []  # (calibration, set-up) seconds
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp, \
            SpeedProbe(Path(tmp) / "probe.json", shape["n"], WORKLOADS[name].probe_ref_s) as probe:
        start = time.monotonic()
        deadline = start + RUN_DEADLINE_S
        durations: list[float] = []
        while True:
            began = time.monotonic()
            for traced in ((False, True) if trace else (False,)):
                passes.append(run_pass(name, seed, traced, f"{name}-{seed}-{len(passes)}",
                                       graph, reference, deadline))
                setup_samples += [passes[-1]["setup"]] if "setup" in passes[-1] else []
            samples = (measure_setup(deadline) for _ in range(SETUP_SAMPLES_PER_PASS))
            setup_samples += [s for s in samples if s is not None]
            durations.append(time.monotonic() - began)
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(durations) > min(seconds, RUN_DEADLINE_S):
                break

    digests = {p.get("digest") for p in passes if not p["problems"]}
    if len(digests) > 1:
        for p in passes:
            p["problems"].append("artifacts differ between passes of one seed")
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["items"] for p in passes if p["problems"])
    ok = [p for p in passes if not p["problems"]]
    for p in ok:
        normalise(p, probe)
    calibrations = [c for c, _ in setup_samples]
    setups = [s for _, s in setup_samples]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]

    metrics: dict[str, dict] = {}
    if not trace and untraced:
        items_ms = [1000.0 * s for p in untraced for s in p["item_norm_s"].values()]
        metrics = {
            "wall_s": (statistics.median(p["wall_norm_s"] for p in untraced), "s"),
            "item_ms_p50": (statistics.median(items_ms), "ms"),
            "setup_s": (statistics.median(setups) * CALIBRATION_REF_S
                        / statistics.median(calibrations), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
        }
        record["item_samples"] = {"items": len(items_ms), "passes": len(untraced)}
        # Not a bounded metric: see "Metrics" in README.md.
        record["item_ms_p90"] = quantile(items_ms, 90)
        record["raw_medians"] = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "setup_s": statistics.median(setups),
            "calibration_s": statistics.median(calibrations),
        }
    elif trace and traced and untraced:
        for key in traced[0]["layers"]:
            metrics[key] = (statistics.median(p["layers"][key] for p in traced), layer_unit(key))
        # Passes alternate untraced, traced; each pair is measured back to back.
        pairs = [(u, t) for u, t in zip(passes[0::2], passes[1::2]) if u in ok and t in ok]
        metrics["trace.overhead_s"] = (
            statistics.median(t["wall_norm_s"] - u["wall_norm_s"] for u, t in pairs), "s")
        metrics["error_rate"] = (failed / attempted, "1")
    record["error_rate"] = failed / attempted
    record["probe"] = {"n": probe.n, "samples": len(probe.samples), "ref_s": probe.ref_s,
                       "mean_s": statistics.fmean(s for _, s in probe.samples)}
    record["passes"] = [{k: v for k, v in p.items()
                         if k not in ("layers", "digest", "item_spans", "item_norm_s")}
                        for p in passes]
    record["setup_samples_s"] = setups
    record["calibration_samples_s"] = calibrations
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qprank" / "cli.py").is_file():
        print(f"error: no qprank sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # On SIGTERM, unwind so the running child is killed and awaited and the
    # temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks on the artifacts one benchmark pass leaves behind.

Each workload has an ``extract`` that reads the CLI's output files into
arrays, an ``invariants`` check that holds for every seed, and a comparison
against reference arrays recorded at the commit that introduced the
benchmark (``reference/<workload>.npz``, one key prefix per recorded seed).
Comparisons use a stated tolerance, never bytes: a closed-form or sparse
walk engine legitimately moves the last bits.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Importances, fidelities and distances: |x - ref| <= RTOL * |ref| + ATOL.
RTOL = 1e-8
ATOL = 1e-10
# Rank importances are stored as float32 to keep the reference small.
RANK_RTOL = 1e-6
# Classical fixed point G p = p, L1 residual against an independently built G.
CLASSICAL_RESIDUAL = 1e-9
# Attack Kendall means come from rank order. Ranking tied nodes with the
# importances snapped to a 1e-9 relative grid (ties then broken by id) moved
# the means of two 100-graph ensembles by up to 0.035, so 0.05 admits that
# reordering while still catching a wrong damping value, horizon or removal.
KENDALL_ATOL = 0.05

STABILITY_ALPHAS = np.linspace(0.01, 0.98, 98)
# Reference sub-grid: every 7th damping value plus the last (15 x 15).
STABILITY_SUBGRID = list(range(0, 98, 7)) + [97]
MODES = ("quantum", "classical")
REMOVALS = 5
ENSEMBLE = 100
RANK_ALPHA = 0.85


def _one(outdir: Path, pattern: str) -> Path:
    found = sorted(outdir.glob(pattern))
    if len(found) != 1:
        raise ValueError(f"expected one file matching {pattern}, found {len(found)}")
    return found[0]


def _read_grid(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = np.array([float(v) for v in rows[0][1:]])
    grid = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return header, grid


# ---------------------------------------------------------------------------
# Extraction: output files -> named arrays
# ---------------------------------------------------------------------------


def extract_attack(outdir: Path) -> dict[str, np.ndarray]:
    summary = json.loads(_one(outdir, "attack_*_summary.json").read_text())
    means = np.array([[summary["means"][f"kendall_{m}_{r}"] for r in range(1, REMOVALS + 1)]
                      for m in MODES])
    stds = np.array([[summary["stddevs"][f"kendall_{m}_{r}"] for r in range(1, REMOVALS + 1)]
                     for m in MODES])
    return {"means": means, "stds": stds, "ensemble": np.array(summary["ensemble"]),
            "failures": np.array(summary["failures"])}


def extract_stability(outdir: Path) -> dict[str, np.ndarray]:
    out = {}
    for mode in MODES:
        for kind in ("fidelity", "distance"):
            alphas, grid = _read_grid(_one(outdir, f"stability_*_fine_{mode}_{kind}.csv"))
            out[f"{mode}_{kind}"] = grid
            out[f"{mode}_{kind}_alphas"] = alphas
    return out


def extract_rank(outdir: Path) -> dict[str, np.ndarray]:
    with open(_one(outdir, "rank_*.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads(_one(outdir, "rank_*_summary.json").read_text())
    return {
        "node": np.array([int(r["node"]) for r in rows]),
        "classical": np.array([float(r["classical_importance"]) for r in rows]),
        "quantum": np.array([float(r["quantum_importance"]) for r in rows]),
        "classical_rank": np.array([int(r["classical_rank"]) for r in rows]),
        "quantum_rank": np.array([int(r["quantum_rank"]) for r in rows]),
        "nodes": np.array(summary["nodes"]),
        "edges": np.array(summary["edges"]),
    }


# ---------------------------------------------------------------------------
# Invariants that hold for every seed
# ---------------------------------------------------------------------------


def invariants_attack(out: dict) -> list[str]:
    problems = []
    if int(out["failures"]) != 0:
        problems.append(f"{int(out['failures'])} ensemble seeds failed")
    if int(out["ensemble"]) != ENSEMBLE:
        problems.append(f"ensemble size {int(out['ensemble'])}, expected {ENSEMBLE}")
    if not np.all((out["means"] >= 0.0) & (out["means"] <= 1.0)):
        problems.append("Kendall mean outside [0, 1]")
    if not np.all(np.isfinite(out["stds"]) & (out["stds"] >= 0.0)):
        problems.append("Kendall std negative or not finite")
    return problems


def invariants_stability(out: dict) -> list[str]:
    problems = []
    for mode in MODES:
        for kind in ("fidelity", "distance"):
            grid = out[f"{mode}_{kind}"]
            if grid.shape != (98, 98):
                problems.append(f"{mode} {kind} grid has shape {grid.shape}")
                continue
            if np.abs(out[f"{mode}_{kind}_alphas"] - STABILITY_ALPHAS).max() > 1e-12:
                problems.append(f"{mode} {kind} damping values differ from the fine grid")
            if np.abs(grid - grid.T).max() > 0.0:
                problems.append(f"{mode} {kind} grid not symmetric")
        fid, dist = out[f"{mode}_fidelity"], out[f"{mode}_distance"]
        if fid.shape != (98, 98) or dist.shape != (98, 98):
            continue
        # The diagonal is sum_j p_j, so this is the sums-to-1 check of every vector.
        if np.abs(np.diag(fid) - 1.0).max() > 1e-9:
            problems.append(f"{mode} fidelity diagonal differs from 1")
        if fid.min() < 0.0 or fid.max() > 1.0 + 1e-9:
            problems.append(f"{mode} fidelity outside [0, 1]")
        if np.diag(dist).max() != 0.0 or dist.min() < 0.0:
            problems.append(f"{mode} distance diagonal nonzero or distance negative")
    return problems


def _ranks(p: np.ndarray) -> np.ndarray:
    order = np.lexsort((np.arange(len(p)), -p))
    ranks = np.empty(len(p), dtype=np.int64)
    ranks[order] = np.arange(1, len(p) + 1)
    return ranks


def _google(n: int, edges, alpha: float) -> np.ndarray:
    """Dense Google matrix built here, independently of ``qprank.google``."""
    e = np.zeros((n, n))
    src = np.array([s for s, _ in edges], dtype=np.int64)
    dst = np.array([t for _, t in edges], dtype=np.int64)
    e[dst, src] = 1.0
    out = np.bincount(src, minlength=n).astype(np.float64)
    e[:, out == 0] = 1.0 / n
    e[:, out > 0] /= out[out > 0]
    return alpha * e + (1.0 - alpha) / n


def invariants_rank(out: dict, graph) -> list[str]:
    problems = []
    n = graph.n
    if len(out["node"]) != n or not np.array_equal(out["node"], np.arange(n)):
        return [f"rank CSV does not list nodes 0..{n - 1}"]
    if int(out["nodes"]) != n or int(out["edges"]) != graph.num_edges:
        problems.append("summary node or edge count differs from the generated graph")
    for mode in MODES:
        p = out[mode]
        if abs(p.sum() - 1.0) > 1e-9 or p.min() < 0.0:
            problems.append(f"{mode} importances do not form a distribution")
        if not np.array_equal(out[f"{mode}_rank"], _ranks(p)):
            problems.append(f"{mode} ranks inconsistent with importances")
    p = out["classical"]
    residual = np.abs(_google(n, graph.edges, RANK_ALPHA) @ p - p).sum()
    if residual > CLASSICAL_RESIDUAL:
        problems.append(f"classical importances off the fixed point (L1 residual {residual:.3e})")
    return problems


def extract(workload: str, outdir: Path) -> dict[str, np.ndarray]:
    return {"attack_sf16": extract_attack, "stability_sf256_fine": extract_stability,
            "rank_sf2048": extract_rank}[workload](outdir)


def check(workload: str, outdir: Path, graph, reference: dict | None) -> list[str]:
    """Problems found in one pass's artifacts; empty when they are correct.

    ``graph`` is the generated input of the rank workload (unused otherwise);
    ``reference`` is the recorded output for this seed, or None.
    """
    try:
        out = extract(workload, outdir)
        if workload == "attack_sf16":
            problems = invariants_attack(out)
        elif workload == "stability_sf256_fine":
            problems = invariants_stability(out)
        else:
            problems = invariants_rank(out, graph)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    if reference is not None and not problems:
        problems = compare(workload, out, reference)
    return problems


# ---------------------------------------------------------------------------
# Reference comparison
# ---------------------------------------------------------------------------


def reference_arrays(workload: str, out: dict) -> dict[str, np.ndarray]:
    """The part of a pass's output that is recorded as the reference."""
    if workload == "attack_sf16":
        return {"means": out["means"]}
    if workload == "stability_sf256_fine":
        sub = np.ix_(STABILITY_SUBGRID, STABILITY_SUBGRID)
        return {f"{m}_{k}": out[f"{m}_{k}"][sub] for m in MODES for k in ("fidelity", "distance")}
    return {"classical": out["classical"].astype(np.float32),
            "quantum": out["quantum"].astype(np.float32)}


def load_reference(workload: str, seed: int) -> dict[str, np.ndarray] | None:
    path = REFERENCE_DIR / f"{workload}.npz"
    if not path.is_file():
        return None
    prefix = f"seed{seed}."
    with np.load(path) as data:
        ref = {k[len(prefix):]: data[k] for k in data.files if k.startswith(prefix)}
    return ref or None


def compare(workload: str, out: dict, ref: dict[str, np.ndarray]) -> list[str]:
    problems = []
    recorded = reference_arrays(workload, out)
    for key, expected in ref.items():
        got = recorded[key]
        if got.shape != expected.shape:
            problems.append(f"{key}: shape {got.shape}, reference {expected.shape}")
            continue
        expected = expected.astype(np.float64)
        got = got.astype(np.float64)
        if workload == "attack_sf16":
            limit = KENDALL_ATOL
        elif workload == "rank_sf2048":
            limit = RANK_RTOL * np.abs(expected) + ATOL
        else:
            limit = RTOL * np.abs(expected) + ATOL
        worst = float((np.abs(got - expected) - limit).max())
        if worst > 0.0:
            problems.append(f"{key}: exceeds the reference tolerance by {worst:.3e}")
    return problems

import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from qprank import (
    DirectedGraph,
    GoogleMatrix,
    gen_erdos_renyi,
    gen_hierarchical_ternary,
    gen_scale_free,
)

# Locations searched for the real-world Pajek dataset used by the regression
# tests; absent file -> those tests skip with a warning.
EPA_ENV_VAR = "QPRANK_EPA"
EPA_CANDIDATES = (
    Path(__file__).resolve().parent.parent / "data" / "EPA.net",
    Path("data/EPA.net"),
)


def epa_path() -> Path | None:
    env = os.environ.get(EPA_ENV_VAR)
    if env and Path(env).is_file():
        return Path(env)
    for candidate in EPA_CANDIDATES:
        if candidate.is_file():
            return candidate
    return None


def random_graph(rng: np.random.Generator, n: int, density: float = 0.3) -> DirectedGraph:
    """Seeded random digraph for oracle comparisons (not a model under test)."""
    edges = {
        (int(i), int(j))
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < density
    }
    return DirectedGraph(n, frozenset(edges))


@st.composite
def small_digraphs(draw, max_nodes: int = 10):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.sets(st.sampled_from(pairs)))
    return DirectedGraph(n, frozenset(edges))


def cycle(n: int) -> DirectedGraph:
    """Directed n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return DirectedGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> DirectedGraph:
    """Complete digraph: every ordered pair of distinct nodes is an edge."""
    return DirectedGraph(n, frozenset((i, j) for i in range(n) for j in range(n) if i != j))


def patched_connectivity(g: DirectedGraph) -> np.ndarray:
    """Column-stochastic link matrix, built entry by entry: column j is
    uniform over j's out-neighbors, or over all nodes when j has none."""
    e = np.zeros((g.n, g.n))
    for s, t in g.edges:
        e[t, s] = 1.0
    out = e.sum(axis=0)
    dangling = out == 0.0
    e[:, dangling] = 1.0 / g.n
    e[:, ~dangling] /= out[~dangling]
    return e


def dense_google(g: DirectedGraph, alpha: float) -> GoogleMatrix:
    """Independent dense Google matrix alpha * E + (1 - alpha) / n: the oracle
    that the production build must match bit for bit."""
    return GoogleMatrix(g.n, alpha, alpha * patched_connectivity(g) + (1.0 - alpha) / g.n)


def operator_graphs() -> dict[str, DirectedGraph]:
    """Graphs on which the structured Google and overlap operators are checked
    against the dense build: hubs and dangling nodes, reciprocal edges, a
    hierarchy, self-loops, and no edges at all."""
    return {
        "sf": gen_scale_free(400, seed=2),
        "er-reciprocal": gen_erdos_renyi(60, 0.2, seed=1),
        "hier3": gen_hierarchical_ternary(4),
        "self-loops": gen_scale_free(200, seed=3, allow_self_loops=True),
        "edgeless": DirectedGraph(30, frozenset()),
    }


def rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    """Largest absolute difference relative to the reference's largest entry."""
    return float(np.abs(x - ref).max() / np.abs(ref).max())

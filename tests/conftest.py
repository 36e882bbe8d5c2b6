import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from qprank import DirectedGraph

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

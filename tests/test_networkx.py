"""Cross-checks against networkx, an independent implementation of PageRank
and of the scale-free growth model. Test-only: the package itself needs
numpy alone, and these tests skip where networkx is not installed."""

import numpy as np
import pytest

from qprank import (
    DirectedGraph,
    GoogleMatrix,
    classical_pagerank,
    gen_erdos_renyi,
    gen_hierarchical_ternary,
    gen_scale_free,
    importance_vector,
    ipr,
    ipr_scaling,
)
from qprank.google import DEFAULT_TOL, build_structured_google

nx = pytest.importorskip("networkx")

NX_TOL = 1e-14


def nx_pagerank(g: DirectedGraph, alpha: float) -> np.ndarray:
    graph = nx.DiGraph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(g.edge_list())
    ranks = nx.pagerank(graph, alpha=alpha, tol=NX_TOL, max_iter=10_000)
    return np.array([ranks[i] for i in range(g.n)])


@pytest.mark.parametrize(
    "g",
    [gen_scale_free(64, seed=0), gen_scale_free(400, seed=0), gen_erdos_renyi(100, 0.125, seed=0),
     gen_hierarchical_ternary(4)],
    ids=["sf64", "sf400", "er100", "hier3"],
)
def test_classical_pagerank_matches_networkx(g):
    for alpha in (0.3, 0.85, 0.98):
        structured = build_structured_google(g, alpha)
        theirs = nx_pagerank(g, alpha)
        # Each solver stops once an L1 step is below its tolerance (networkx
        # scales its tol by n); a contraction by alpha then puts each within
        # step / (1 - alpha) of the fixed point.
        bound = (DEFAULT_TOL + g.n * NX_TOL) / (1.0 - alpha)
        for gm in (structured, GoogleMatrix(g.n, alpha, structured.entries.toarray())):
            assert np.abs(classical_pagerank(gm) - theirs).sum() <= bound


def test_criterion_06_slopes_match_networkx_generator():
    # Criterion 6's scale-free clause on graphs from networkx's
    # scale_free_graph (same move probabilities and offsets; self-loops
    # dropped, repeat edges collapsed, as gen_scale_free does). Its median
    # quantum IPR slope at 32..256 agrees with gen_scale_free's, so the
    # clause's failure is the model's finite-size transient, not a defect
    # of the generator.
    sizes = (32, 64, 128, 256)

    def networkx_sf(n, seed):
        graph = nx.scale_free_graph(n, alpha=0.41, beta=0.54, gamma=0.05, delta_in=0.2, delta_out=0,
                                    seed=seed)
        return DirectedGraph(n, {(s, t) for s, t in graph.edges() if s != t})

    def median_slope(make):
        slopes = []
        for e in range(10):
            samples = [
                ipr(importance_vector(make(n, 1000 * e + k), "quantum", alpha=0.85, horizon=1000), 1)
                for k, n in enumerate(sizes)
            ]
            slopes.append(ipr_scaling(samples).slope)
        return float(np.median(slopes))

    ours = median_slope(lambda n, seed: gen_scale_free(n, seed=seed))
    theirs = median_slope(networkx_sf)
    assert abs(ours - theirs) <= 0.1, f"median slopes: gen_scale_free {ours:.3f}, networkx {theirs:.3f}"

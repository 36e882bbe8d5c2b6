"""Column-stochastic transition matrices and the classical stationary ranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .graphs import DirectedGraph

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class GoogleMatrix:
    """Damped column-stochastic transition matrix over n nodes.

    Column j is the outgoing distribution of node j: weight ``alpha`` on
    following links (uniform over out-neighbors, dangling columns patched to
    uniform over all nodes) plus ``(1 - alpha) / n`` of unconditional hopping
    to every node.
    """

    n: int
    alpha: float
    entries: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"damping alpha={self.alpha} outside (0, 1)")
        if self.entries.shape != (self.n, self.n):
            raise ParameterError("entries must be an n x n matrix")
        col_err = np.abs(self.entries.sum(axis=0) - 1.0).max()
        if col_err > 1e-12:
            raise ParameterError(f"columns must sum to 1 (off by {col_err:.3e})")
        floor = (1.0 - self.alpha) / self.n - 1e-15
        if self.entries.min() < floor:
            raise ParameterError("entries fall below the random-hopping floor")


def build_patched_connectivity(g: DirectedGraph) -> np.ndarray:
    """Column-stochastic link matrix of ``g``.

    Column j is uniform over j's out-neighbors; nodes with no outgoing link
    get a uniform column over all nodes instead.
    """
    if g.n < 1:
        raise ParameterError("graph must have at least one node")
    e = np.zeros((g.n, g.n))
    for s, t in g.edges:
        e[t, s] = 1.0
    out = e.sum(axis=0)
    dangling = out == 0.0
    e[:, dangling] = 1.0 / g.n
    e[:, ~dangling] /= out[~dangling]
    return e


def build_google(e: np.ndarray, alpha: float) -> GoogleMatrix:
    """Mix the link matrix with uniform hopping: alpha * E + (1 - alpha) / n."""
    n = e.shape[0]
    return GoogleMatrix(n, alpha, alpha * e + (1.0 - alpha) / n)


def google_from_graph(g: DirectedGraph, alpha: float) -> GoogleMatrix:
    return build_google(build_patched_connectivity(g), alpha)


def classical_pagerank(
    gm: GoogleMatrix, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> np.ndarray:
    """Stationary distribution of the transition matrix by power iteration.

    Starts from the uniform vector and iterates until the L1 residual of the
    fixed-point equation drops to ``tol``. The result sums to 1.
    """
    m = gm.entries
    x = np.full(gm.n, 1.0 / gm.n)
    residual = np.inf
    for _ in range(max_iter):
        y = m @ x
        residual = float(np.abs(y - x).sum())
        if residual <= tol:
            return x
        x = y / y.sum()
    raise ConvergenceError(
        f"power iteration stalled at residual {residual:.3e} after {max_iter} sweeps",
        residual=residual,
    )


def format_dense_matrix(m: np.ndarray) -> str:
    """Plain-text dump: one row per line, space-separated, 17 significant digits."""
    return "\n".join(" ".join(format(v, ".17g") for v in row) for row in m) + "\n"

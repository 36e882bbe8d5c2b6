"""Column-stochastic transition matrices and the classical stationary ranking."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ParameterError
from .graphs import DirectedGraph, Frozen

DEFAULT_ALPHA = 0.85
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000

# google_from_graph keeps the structured form for large sparse graphs only, and
# densifies it otherwise: above DENSE_MAX_NODES nodes, with at most
# STRUCTURED_MAX_DENSITY links per ordered node pair (keeps_structure). Its
# gain depends on sparseness: a stored entry of a structured product costs
# about 15 times a matrix entry of a dense one, so on denser graphs (er at its
# default p = 0.125, complete graphs) the dense arrays are faster at every
# size. Up to DENSE_MAX_NODES every graph is dense, where classical_pagerank
# solves for its fixed point. SzegedyWalk counts states, not nodes: it reduces
# a structured G to its q twin classes and applies the same two constants to
# q for the form of its operators, while its closed form has a cap on q of
# its own (walk.CLOSED_FORM_MAX_STATES). The size was the crossover of the
# dense closed form against the iterating form that takes the graph above it,
# measured as in the walk.py docstring. At alpha = 0.85 the solve
# beat power iteration on the same dense G by 0.05-0.92 ms on sf graphs of
# 16-128 nodes and er (p = 0.125) graphs of 16-64; on er graphs of 96-128
# nodes, which the iteration settles in the fewest sweeps, the two were
# within 0.06 ms of each other either way (two sweeps in CHANGES.md).
DENSE_MAX_NODES = 128
STRUCTURED_MAX_DENSITY = 1 / 64


class RankOnePlusSparse(Frozen):
    """The n x n matrix outer(u, v) + S, where S is zero except at
    S[rows[i], cols[i]] = vals[i] (each position listed at most once).

    A product with a vector costs O(n + len(vals)) and nothing of size n**2
    is stored.
    """

    u: np.ndarray
    v: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __init__(self, u: np.ndarray, v: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray):
        self.__dict__.update(u=u, v=v, rows=rows, cols=cols, vals=vals)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.u), len(self.v))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.u * (self.v @ x) + np.bincount(
            self.rows, self.vals * x[self.cols], minlength=len(self.u)
        )

    def __rmul__(self, c: float) -> RankOnePlusSparse:
        """The matrix times the scalar ``c``, still in structured form."""
        return RankOnePlusSparse(c * self.u, self.v, self.rows, self.cols, c * self.vals)

    def column_sums(self) -> np.ndarray:
        return self.u.sum() * self.v + np.bincount(self.cols, self.vals, minlength=len(self.v))

    def toarray(self) -> np.ndarray:
        a = np.outer(self.u, self.v)
        a[self.rows, self.cols] += self.vals
        return a


class GoogleMatrix(Frozen):
    """Damped column-stochastic transition matrix over n nodes.

    Column j is the outgoing distribution of node j: weight ``alpha`` on
    following links (uniform over out-neighbors, dangling columns patched to
    uniform over all nodes) plus ``(1 - alpha) / n`` of unconditional hopping
    to every node.

    ``entries`` is either the dense array or, in structured form, the
    ``RankOnePlusSparse`` 1 c^T + S: c holds each column's background value
    (hopping, plus the dangling patch) and S the link weights on the edges.
    Both are applied with ``@``.
    """

    n: int
    alpha: float
    entries: np.ndarray | RankOnePlusSparse

    def __init__(self, n: int, alpha: float, entries: np.ndarray | RankOnePlusSparse):
        if not 0.0 < alpha < 1.0:
            raise ParameterError(f"damping alpha={alpha} outside (0, 1)")
        e = entries
        if e.shape != (n, n):
            raise ParameterError("entries must be an n x n matrix")
        if isinstance(e, np.ndarray):
            col_sums, low = e.sum(axis=0), e.min()
        else:
            # every entry c_j + S[i, j] is at least min(c) + min(S, 0)
            col_sums, low = e.column_sums(), e.v.min() + e.vals.min(initial=0.0)
        col_err = np.abs(col_sums - 1.0).max()
        if col_err > 1e-12:
            raise ParameterError(f"columns must sum to 1 (off by {col_err:.3e})")
        floor = (1.0 - alpha) / n - 1e-15
        if low < floor:
            raise ParameterError("entries fall below the random-hopping floor")
        self.__dict__.update(n=n, alpha=alpha, entries=entries)


def _columns(g: DirectedGraph, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Column background values and link values of ``g``'s Google matrix, unchecked.

    Column j holds alpha / out_j + (1 - alpha) / n on each of j's links and
    the column's background value elsewhere: (1 - alpha) / n, plus alpha / n
    when j has no outgoing link (the dangling patch).
    """
    n = g.n
    if n < 1:
        raise ParameterError("graph must have at least one node")
    out = g.out_degrees()
    hop = (1.0 - alpha) / n
    return np.where(out == 0, alpha * (1.0 / n) + hop, hop), alpha * (1.0 / out[g.src])


def build_structured_google(g: DirectedGraph, alpha: float) -> GoogleMatrix:
    """The Google matrix of ``g`` in structured form, in O(n + m) memory."""
    background, link = _columns(g, alpha)
    return GoogleMatrix(g.n, alpha, RankOnePlusSparse(np.ones(g.n), background, g.dst, g.src, link))


def keeps_structure(n: int, links: int) -> bool:
    """Whether an operator on n states with ``links`` sparse entries is
    applied in structured form: above DENSE_MAX_NODES states and with at most
    STRUCTURED_MAX_DENSITY links per ordered pair of them."""
    return n > DENSE_MAX_NODES and links <= STRUCTURED_MAX_DENSITY * n * n


def google_from_graph(g: DirectedGraph, alpha: float) -> GoogleMatrix:
    """The Google matrix of ``g``: structured when ``g`` is large and sparse,
    else the dense array of the same entries."""
    if keeps_structure(g.n, g.num_edges):
        return build_structured_google(g, alpha)
    background, link = _columns(g, alpha)
    dense = np.empty((g.n, g.n))
    dense[...] = background  # the rows of outer(1, c), filled in place
    dense[g.dst, g.src] += link
    return GoogleMatrix(g.n, alpha, dense)


def classical_pagerank(gm: GoogleMatrix) -> np.ndarray:
    """Stationary distribution of the transition matrix; it sums to 1.

    A dense G of at most DENSE_MAX_NODES nodes gets the fixed point from one
    linear solve:
    with G = alpha P + (1 - alpha) / n 1 1^T, the fixed point summing to 1
    solves (I - alpha P) x = (1 - alpha) / n 1, and I - alpha P = I - G +
    (1 - alpha) / n 1 1^T is nonsingular for alpha < 1. Every other G is
    power-iterated from the uniform vector until the L1 residual of the
    fixed-point equation drops to DEFAULT_TOL, for at most DEFAULT_MAX_ITER
    sweeps; only that iteration raises ConvergenceError.
    """
    m, n = gm.entries, gm.n
    if isinstance(m, np.ndarray) and n <= DENSE_MAX_NODES:
        hop = (1.0 - gm.alpha) / n
        x = np.linalg.solve(np.eye(n) - m + hop, np.full(n, hop))
        return x / x.sum()
    x = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(DEFAULT_MAX_ITER):
        y = m @ x
        residual = float(np.abs(y - x).sum())
        if residual <= DEFAULT_TOL:
            return x
        x = y / y.sum()
    raise ConvergenceError(
        f"power iteration stalled at residual {residual:.3e} after {DEFAULT_MAX_ITER} sweeps",
        residual=residual,
    )

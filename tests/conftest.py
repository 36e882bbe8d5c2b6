import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from qprank import (
    DirectedGraph,
    GoogleMatrix,
    ParameterError,
    gen_erdos_renyi,
    gen_hierarchical_ternary,
    gen_scale_free,
)
from qprank.analysis import tie_classes
from qprank.walk import NEAR_UNIT_GAP, UNIT_MODE_ULPS, overlap

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
def small_digraphs(draw, max_nodes: int = 10, allow_self_loops: bool = False):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j or allow_self_loops]
    edges = draw(st.sets(st.sampled_from(pairs)))
    return DirectedGraph(n, frozenset(edges), allow_self_loops)


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


def densified(m) -> np.ndarray:
    """The entries of a dense or structured operator as a dense array."""
    return m if isinstance(m, np.ndarray) else m.toarray()


# The dense simulator's unitary is n**2 x n**2, O(n**4) memory.
DENSE_NODE_LIMIT = 64


class DenseWalk:
    """Literal simulator on the full n**2 amplitude vector: the independent
    reference for ``SzegedyWalk``.

    The walker lives on ordered node pairs |j>_1 |k>_2. Builds the projector
    onto the per-node vectors |psi_j> = sum_k sqrt(G[k, j]) |j>_1 |k>_2, the
    register swap, and the one-step unitary U = S (2 P - 1) as explicit dense
    matrices, hence the hard size guard.
    """

    def __init__(self, gm: GoogleMatrix):
        if gm.n > DENSE_NODE_LIMIT:
            raise ParameterError(f"dense simulator limited to n <= {DENSE_NODE_LIMIT}")
        n = gm.n
        self.n = n
        r = np.sqrt(densified(gm.entries))
        # Column j holds |psi_j>: amplitude R[k, j] at pair index j*n + k.
        cols = np.zeros((n * n, n))
        for j in range(n):
            cols[j * n : (j + 1) * n, j] = r[:, j]
        self.psi_columns = cols
        swap = np.zeros((n * n, n * n))
        for j in range(n):
            for k in range(n):
                swap[k * n + j, j * n + k] = 1.0
        self.swap = swap
        reflection = 2.0 * (cols @ cols.T) - np.eye(n * n)
        self.u = swap @ reflection

    def initial_state(self) -> np.ndarray:
        return self.psi_columns @ np.full(self.n, 1.0 / np.sqrt(self.n))

    def step(self, state: np.ndarray) -> np.ndarray:
        return self.u @ state

    def measure(self, state: np.ndarray) -> np.ndarray:
        """Distribution of the second register: sum the squared amplitudes of
        all pairs whose second index is i."""
        amp = state.reshape(self.n, self.n)
        return (amp * amp).sum(axis=0)


class ReducedWalk:
    """The walk's coefficients (a, b) on all n nodes, stepped literally, one
    unitary at a time, with D and the measurement built from the full,
    unreduced G: the independent reference for the three-term recurrence and
    the twin-class reduction that ``SzegedyWalk`` runs. A state is the pair
    (a, b)."""

    def __init__(self, gm: GoogleMatrix):
        self.n = gm.n
        self.g = gm.entries
        self.d = overlap(self.g, np.ones(self.n))

    def initial_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Uniform superposition of the per-node vectors; unit norm by construction."""
        return np.full(self.n, 1.0 / np.sqrt(self.n)), np.zeros(self.n)

    def step(self, state: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """One application of the walk unitary: (a, b) -> (-b, a + 2 D b)."""
        a, b = state
        return -b, a + 2.0 * (self.d @ b)

    def measure(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """p = G (a*a) + 2 b (D a) + b*b, clamped at 0."""
        return np.maximum(self.g @ (a * a) + 2.0 * b * (self.d @ a) + b * b, 0.0)

    def norm_sq(self, a: np.ndarray, b: np.ndarray) -> float:
        """The conserved a.a + b.b + 2 a.(D b)."""
        return float(a @ a + b @ b + 2.0 * (a @ (self.d @ b)))

    def rows(self, horizon: int) -> np.ndarray:
        """Row t is the measurement after t double-steps."""
        state, rows = self.initial_state(), []
        for _ in range(horizon):
            rows.append(self.measure(*state))
            state = self.step(self.step(state))
        return np.array(rows)


def dirichlet_kernel(phi: np.ndarray, horizon: int) -> np.ndarray:
    """mean over t = 0 .. horizon - 1 of exp(2 i t phi), elementwise.

    The mean has period pi in phi, so phi is first reduced to r in
    [-pi/2, pi/2]: an angle pair summing to pi then gives 1, where the raw
    formula's phase would give (-1)**(horizon - 1). The value at r = 0 is 1.
    """
    r = phi - np.pi * np.round(phi / np.pi)
    zero = r == 0.0
    safe = np.where(zero, 1.0, r)
    ratio = np.where(zero, 1.0, np.sin(horizon * safe) / (horizon * np.sin(safe)))
    return np.exp(1j * (horizon - 1) * r) * ratio


class ComplexCesaroModes:
    """The closed-form Cesaro average in complex arithmetic, one complex
    Dirichlet kernel per angle pair theta_k +- theta_l with theta = arccos
    lam: the reference for the real-arithmetic ``walk.CesaroModes``, which
    takes the same arguments and gives the same ``conditioned`` and
    ``average``.

    Each mode's coefficients are written 2 Re[x_k exp(2 i t theta_k)], so the
    time average of x_k(t) y_l(t) is 2 Re[x_k y_l K(theta_k + theta_l) +
    x_k conj(y_l) K(theta_k - theta_l)] with K the Dirichlet kernel. A unit
    mode is folded to a_k = w_k, b_k = 0, theta_k = 0.
    """

    def __init__(self, g: np.ndarray, d: np.ndarray, sizes: np.ndarray, n: int):
        self.g, self.sizes = g, sizes
        lam, self.v = np.linalg.eigh(d)
        w = (self.v * np.sqrt(sizes)[:, None]).sum(axis=0) / np.sqrt(n)
        gap = 1.0 - np.abs(lam)
        unit = gap <= UNIT_MODE_ULPS * len(d) * np.finfo(np.float64).eps
        self.conditioned = bool(np.all(unit | (gap >= NEAR_UNIT_GAP)))
        lam = np.where(unit, np.sign(lam), lam)
        theta = np.where(unit, 0.0, np.arccos(lam))
        sin = np.where(unit, 1.0, np.sqrt((1.0 - lam) * (1.0 + lam)))
        xa = np.where(unit, w / 2, 0.5j * np.exp(-1j * theta) * w / sin)
        xb = np.where(unit, 0.0, -0.5j * w / sin)
        # weights of K(theta_k + theta_l) and K(theta_k - theta_l) in A (the
        # part measured through G) and in 2 C lam^T + B (measured directly)
        xb_lam = 2.0 * xb[:, None] * lam[None, :]
        self.through_g = np.stack([np.outer(xa, xa), np.outer(xa, xa.conj())])
        self.direct = np.stack([
            xb_lam * xa[None, :] + np.outer(xb, xb),
            xb_lam * xa.conj()[None, :] + np.outer(xb, xb.conj()),
        ])
        self.angles = np.stack([theta[:, None] + theta[None, :], theta[:, None] - theta[None, :]])

    def average(self, horizon: int) -> np.ndarray:
        k = dirichlet_kernel(self.angles, horizon)
        a = 2.0 * (self.through_g * k).real.sum(axis=0)
        m = 2.0 * (self.direct * k).real.sum(axis=0)
        v = self.v
        p = self.g @ ((v @ a) * v).sum(axis=1) + ((v @ m) * v).sum(axis=1) / self.sizes
        return np.maximum(p, 0.0)


def classical_fidelity(p: np.ndarray, q: np.ndarray) -> float:
    """Bhattacharyya overlap sum_j sqrt(p_j q_j); 1 iff the vectors coincide.
    The reference for ``pairwise_stability``'s fidelity grid."""
    p, q = np.asarray(p), np.asarray(q)
    if p.shape != q.shape:
        raise ParameterError("vectors must have the same length")
    return float(np.sqrt(p * q).sum())


def qpr_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Largest per-node importance difference, max_i |p_i - q_i|. The
    reference for ``pairwise_stability``'s distance grid."""
    p, q = np.asarray(p), np.asarray(q)
    if p.shape != q.shape:
        raise ParameterError("vectors must have the same length")
    return float(np.abs(p - q).max())


def lexsort_order(p: np.ndarray) -> list[int]:
    """Nodes by tie class, each class by ascending id, from the class of
    every node: the reference for ``ranking_order``."""
    return np.lexsort((np.arange(len(p)), tie_classes(p))).tolist()


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


def oracle_cell(x) -> str:
    """One table cell written on its own: text as it is, a number as
    format(float(x), ".17g")."""
    return x if isinstance(x, str) else format(float(x), ".17g")


def oracle_table(header, columns) -> str:
    """The text of a table formatted cell by cell and row by row, cells
    joined by commas: the reference for ``cli._write_table``, which takes
    the same arguments."""
    lines = [",".join(header), *(",".join(map(oracle_cell, row)) for row in zip(*columns))]
    return "\n".join(lines) + "\n"

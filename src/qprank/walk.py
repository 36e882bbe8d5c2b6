"""Coherent two-register walk driven by a column-stochastic matrix.

The walker lives on ordered node pairs |j>_1 |k>_2. Writing R for the
entrywise square root of the transition matrix G, each node j carries the
unit vector |psi_j> = sum_k R[k, j] |j>_1 |k>_2, and one step applies
U = S (2 P - 1), where P projects onto span{|psi_j>} and S swaps the two
registers. States reachable from the uniform superposition of the |psi_j>
stay inside span{|psi_j>} + S span{|psi_k>}, so the dynamics closes on 2n
real coefficients (a, b):

    U:  (a, b)  ->  (-b, a + 2 D b),      D[j, k] = R[k, j] * R[j, k]

with conserved norm  a.a + b.b + 2 a.(D b).  A second-register measurement
of the state gives the node distribution

    p_i = (G (a*a))_i + 2 b_i (D a)_i + b_i**2.

A structured G first goes to its twin classes: nodes with the same in- and
out-neighbour sets have equal rows and columns of G, so the walk from the
uniform state stays constant on each class and runs on q <= n class
coefficients (see ``SzegedyWalk``). A dense G keeps q = n.
``SzegedyWalk`` is the production simulator built on that recursion and
runs its Cesaro average with one of two engines:

* **closed form** (q <= CLOSED_FORM_MAX_STATES states, G and D densified
  if they are structured): D = V diag(lam) V^T is diagonalized once. In
  mode k, with theta_k = arccos lam_k and w = V^T a_0, the coefficients
  after t double-steps are
  a_k(t) = -w_k sin((2t - 1) theta_k) / sin theta_k and
  b_k(t) = w_k sin(2 t theta_k) / sin theta_k (Szegedy, FOCS 2004; for
  Google matrices, Paparo & Martin-Delgado, Sci. Rep. 2, 444, 2012), so the
  time average of every product of two modes is a Dirichlet kernel in
  theta_k +- theta_l and

      p_avg = G diag(V A V^T) + diag(V (2 C lam^T + B) V^T) / w

  with A, B, C the averaged products a_k a_l, b_k b_l, b_k a_l and w the
  class sizes. The kernels' phases factor into one phase per mode, so
  A, B and C come from real q x q arrays and two sines per angle pair
  (``CesaroModes``). The cost is O(q**3) whatever the horizon, in O(q**2)
  memory. ``average`` evaluates the kernels at the horizon only;
  ``average_with_convergence`` evaluates them again at horizon // 2 for the
  half-horizon gap.
* **iteration** (every q above CLOSED_FORM_MAX_STATES, on D structured or
  dense by google.keeps_structure, and every q with a mode within
  NEAR_UNIT_GAP of |lam| = 1, as at damping near 0): the coefficients
  follow the three-term recurrence b_{k+1} = 2 D b_k - b_{k-1}, with
  a_k = -b_{k-1}, a_0 = sqrt(w / n) and b_0 = 0. Since
  2 D b_{2t-1} = b_{2t} + b_{2t-2}, the measurement after t double-steps is

      p_t = G (b_{2t-1}**2) - b_{2t} * b_{2t-2} / w,

  so a double-step costs two products with 2 D and six elementwise
  operations, and G, being linear, is applied to the summed squares once
  per block of G_BLOCK double-steps rather than once per row. The loop
  passes horizon // 2 on its way and yields the half-horizon average for
  the gap at the cost of one more product with G; ``average`` runs the same
  loop, so both methods give the same bits.
  ``trajectory`` steps the same recurrence and measures the state
  (a, b) = (-b_{2t-1}, b_{2t}) row by row, G applied to each.

google.DENSE_MAX_NODES and google.STRUCTURED_MAX_DENSITY pick the form of G
and D (google.keeps_structure, applied to q), and CLOSED_FORM_MAX_STATES
picks the engine; all three are measured. DENSE_MAX_NODES comes from two
sweeps over n = 128-256 before the twin reduction (per ranking at T = 1000:
build, classical PageRank and the quantum average with its constructor; sf
and er at p = 0.125, three seeds each, one pinned CPU, one BLAS thread): the
dense closed form, then with a complex kernel, took 0.58-0.61 (sf) and
0.72-0.81 (er) of the time of the iterating form that takes the graph above
the constant at n = 128, and er 0.93-1.12 at 144; CHANGES.md has both
sweeps. CLOSED_FORM_MAX_STATES has its sweep at its comment.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError
from .google import GoogleMatrix, RankOnePlusSparse, keeps_structure

DEFAULT_HORIZON = 1000

# |lam| this close to 1, in units of q * machine epsilon, is a unit mode. On
# edgeless, complete and 2-cycle graphs of up to 256 states eigh puts the
# exact unit eigenvalue at most 0.63 q eps off; other sf and er graphs of up
# to CLOSED_FORM_MAX_STATES states keep |lam| at least 0.016 below 1.
UNIT_MODE_ULPS = 4.0

# A mode closer than this to |lam| = 1 without being a unit mode costs the
# closed form about eps / (1 - |lam|) in cancellation, so such graphs iterate.
# Against a long-double iteration at T = 1000 (sf n = 16, 64 and 128, alpha
# from 1e-5 to 0.98, which sets the gap), the closed form was 2-80x less
# accurate than the iteration and up to 3.5e-10 off where the gap was below
# 1e-3, and at most 6e-14 off elsewhere; on the reduced sf 256 (seed 2,
# q = 159) and sf 512 (seed 1, q = 256), 3-280x less accurate, up to 2.2e-8
# off where the gap was below 1e-3 (3.6e-9 at alpha = 1e-5) and at most
# 1.5e-13 off elsewhere. At alpha = 0.85 the gap of sf graphs up to n = 128,
# hub-removed ones included, is at least 0.016, and that of er graphs
# (p = 0.125, seeds 0-4) of 16 to 128 nodes at least 0.28 (0.069 after up
# to five hub removals); up to q = CLOSED_FORM_MAX_STATES it is at least 0.40
# on sf graphs of 129-512 nodes (0.062 after up to five removals of the
# highest in-degree node) and 0.53 on er graphs of 144-256 nodes, removals
# included (seeds 0-4).
NEAR_UNIT_GAP = 1e-3

# Where a mode sits near |lam| = 1 the coefficients grow linearly in t, and
# a row of the iterating average is a difference of two terms of order
# t**2. Summed over the whole horizon before G is applied, they leave a
# rounding of order T**3 in the sum; applied once per G_BLOCK double-steps,
# G keeps each block's sum small. Against a long-double iteration at
# T = 1000, the relative error with G applied at the half horizon and the end
# only, once per block, and once per row as in ``trajectory`` was
# 0.8-1.0e-9, 0.8-1.5e-10 and 0.3-1.2e-10 on sf n = 16 (seeds 0-3) at
# alpha = 1e-4; 3.0-8.8e-13, 0.3-1.8e-13 and 0.2-1.9e-13 at alpha = 0.01;
# and 1.5-1.9e-12, 2.0-2.9e-13 and 1.6-2.6e-13 on er n = 300 (seeds 0-1) at
# alpha = 0.01. A block costs one product with G beside its 2 G_BLOCK
# products with 2 D.
G_BLOCK = 32

# The closed form takes every walk of at most this many states (twin classes,
# or nodes when G is not reduced) with no mode near |lam| = 1; more states
# iterate. Timing the engines alone at T = 1000 (alpha = 0.85, seeds 0-2, one
# pinned CPU, one BLAS thread; the build and the reduction not timed), the
# closed form with its eigh took 0.25-0.30 of the reduced iteration's time on
# sf graphs of 256 nodes (q = 131-159), 0.31-0.41 at 384 (q = 193-223),
# 0.47-0.48 at 512 (q = 256-258) but 0.60 at q = 301, 0.65-0.86 at 640
# (q = 324-364) and 0.95-1.18 at 768 (q = 385-444); on er graphs, dense and
# not reduced, 0.33-0.47 at 192-256 and 0.51-0.78 at 320-384. The cap is the
# largest swept size at which it took at most half the iteration's time on
# every graph.
CLOSED_FORM_MAX_STATES = 256

# Up to this many states a kernel takes its angle sums and differences to
# dirichlet_ratio in one flat array, above it in one call each: the one call took
# 0.68-0.91 of two calls' time at q = 16-64, 1.2-1.6 at q = 80-128 (sf, T = 1000).
FLAT_KERNEL_MAX_STATES = 64


def _node_hashes(count: int) -> np.ndarray:
    """The first ``count`` outputs of splitmix64 from state 0: well-mixed
    64-bit values, none 0, whose wrapping sums over two different sets of ids
    almost never agree."""
    x = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def twin_classes(e: RankOnePlusSparse) -> tuple[np.ndarray, np.ndarray, RankOnePlusSparse] | None:
    """The classes of nodes with equal in-neighbour and out-neighbour sets
    (a self-loop counts as both) of the structured G = 1 c^T + S: each node's
    class index, the class sizes w, and G restricted to one representative
    (the lowest node) per class. None when every class is one node.

    Every block of G between two classes is constant, so the walk from the
    uniform state stays constant on each class (exact lumping; Kemeny and
    Snell, Finite Markov Chains, 1960, sec. 6.3). Nodes are grouped by a hash
    of their two neighbour sets, and the grouping is then checked exactly:
    each block of S must hold one value on all of its w_K w_L positions or
    on none, and c one value per class. A hash collision fails the check and
    leaves G unreduced.
    """
    n = len(e.v)
    h = _node_hashes(2 * n)
    key = np.zeros(n, dtype=np.uint64)
    np.add.at(key, e.rows, h[2 * e.cols])  # in-neighbours
    np.add.at(key, e.cols, h[2 * e.rows + 1])  # out-neighbours
    _, first, node_class = np.unique(key, return_index=True, return_inverse=True)
    q = len(first)
    if q == n:
        return None
    order = np.argsort(first)  # number the classes by their lowest node
    relabel = np.empty(q, dtype=np.intp)
    relabel[order] = np.arange(q)
    node_class, reps = relabel[node_class], first[order]
    sizes = np.bincount(node_class, minlength=q)
    pairs, at, block, count = np.unique(node_class[e.rows] * q + node_class[e.cols],
                                        return_index=True, return_inverse=True,
                                        return_counts=True)
    rows, cols = np.divmod(pairs, q)
    vals = e.vals[at]
    if not (np.array_equal(count, sizes[rows] * sizes[cols])
            and np.array_equal(vals[block], e.vals)
            and np.array_equal(e.v[reps][node_class], e.v)):
        return None
    return node_class, sizes.astype(float), RankOnePlusSparse(e.u[reps], e.v[reps], rows, cols, vals)


def overlap(g: np.ndarray | RankOnePlusSparse, sizes: np.ndarray) -> np.ndarray | RankOnePlusSparse:
    """The walk's D on states of ``sizes`` nodes each, in the form of its G:
    D[J, K] = sqrt(G[K, J] G[J, K]) sqrt(w_J w_K).

    A dense G is never reduced, and gives r r^T elementwise for r = sqrt(G).
    A structured G = 1 c^T + S gives D = s s^T + C with s = sqrt(w c), where
    C is symmetric bit for bit and non-zero only on the pairs joined by an
    entry of S either way, where it corrects the background. Unreduced,
    sqrt(w) = 1 exactly, and the scaling leaves every bit as it was.
    """
    if isinstance(g, np.ndarray):
        r = np.sqrt(g)
        return r * r.T
    n, m = len(g.v), len(g.vals)
    keys, inv = np.unique(
        np.concatenate([g.rows * n + g.cols, g.cols * n + g.rows]), return_inverse=True
    )
    j, k = np.divmod(keys, n)
    link_jk = np.bincount(inv[:m], g.vals, minlength=len(keys))
    link_kj = np.bincount(inv[m:], g.vals, minlength=len(keys))
    s, root = np.sqrt(g.v), np.sqrt(sizes)
    c = np.sqrt(g.v[j] + link_kj) * np.sqrt(g.v[k] + link_jk) - s[j] * s[k]
    scaled = root * s
    return RankOnePlusSparse(scaled, scaled, j, k, root[j] * root[k] * c)


def dirichlet_ratio(phi: np.ndarray, horizon: int) -> np.ndarray:
    """The real factor R of the mean over t = 0 .. horizon - 1 of
    exp(2 i t phi), elementwise, for phi in [-pi, pi].

    The mean has period pi in phi, so phi is first reduced to r = phi - m pi
    in [-pi/2, pi/2] (m is -1, 0 or 1), and the mean is
    exp(i (horizon - 1) phi) R with
    R = (-1)**((horizon - 1) m) sin(horizon r) / (horizon sin r). The ratio
    at r = 0 is 1, so phi = +-pi gives a mean of exactly 1, where the raw
    formula's phase would give (-1)**(horizon - 1).
    """
    m = np.round(phi / np.pi)
    r = phi - np.pi * m
    zero = r == 0.0
    ratio = np.sin(horizon * r) / (horizon * np.sin(np.where(zero, 1.0, r)))
    ratio[zero] = 1.0
    if horizon % 2 == 0:
        ratio[m != 0.0] *= -1.0
    return ratio


class CesaroModes:
    """Closed-form Cesaro average of the walk on dense G and D, from eigh(D),
    over states of ``sizes`` nodes each (twin classes; all 1 unreduced) out
    of ``n`` nodes.

    Each mode's coefficients are written 2 Re[x_k exp(2 i t theta_k)], so the
    time average of x_k(t) y_l(t) is 2 Re[x_k y_l K(theta_k + theta_l) +
    x_k conj(y_l) K(theta_k - theta_l)] with K the Dirichlet kernel. K has
    period pi, so it is taken at the angles psi = theta - pi/2 (``psi``),
    which puts a pair summing to pi at psi_k + psi_l = 0. With
    K(phi) = exp(i (T - 1) phi) R(phi) (``dirichlet_ratio``), the phase
    factors into f_k = exp(i (T - 1) psi_k) per mode, and with y = x_a f,
    u = x_b f and x = (2 lam x_a + x_b) f the averaged products are real:

        A = 2 [(R+ + R-) (y_r y_r^T) + (R- - R+) (y_i y_i^T)]
        2 C lam^T + B = 2 [(R+ + R-) (u_r x_r^T) + (R- - R+) (u_i x_i^T)]

    elementwise, R+ and R- the ratios at psi_k + psi_l and psi_k - psi_l.

    A unit mode (|lam| = 1, as on edgeless or reversible graphs) has a
    vector sum_j V[j, k] |psi_j> that the swap S maps to lam times itself, so
    the state depends on a_k + lam_k b_k only, and that stays at its initial
    value w_k. The mode is folded to a_k = w_k, b_k = 0, theta_k = 0, rather
    than carried with coefficients that grow linearly in t, which keeps the
    average exact there; its psi is -pi/2, and its phase (-i)**(T - 1) is
    taken exactly.
    """

    def __init__(self, g: np.ndarray, d: np.ndarray, sizes: np.ndarray, n: int):
        self.g, self.sizes = g, sizes
        lam, self.v = np.linalg.eigh(d)
        # V^T a_0 for a_0 = sqrt(sizes / n), the uniform state on n nodes
        w = (self.v * np.sqrt(sizes)[:, None]).sum(axis=0) / np.sqrt(n)
        gap = 1.0 - np.abs(lam)
        self.unit = gap <= UNIT_MODE_ULPS * len(d) * np.finfo(np.float64).eps
        self.conditioned = bool((self.unit | (gap >= NEAR_UNIT_GAP)).all())
        unit = np.flatnonzero(self.unit)  # every mode is computed, then these are overwritten
        lam[unit] = np.sign(lam[unit])
        theta, sin = np.arccos(lam), np.sqrt((1.0 - lam) * (1.0 + lam))
        theta[unit], sin[unit] = 0.0, 1.0
        self.psi = theta - np.pi / 2
        self.xa, self.xb = 0.5j * np.exp(-1j * theta) * w / sin, -0.5j * w / sin
        self.xa[unit], self.xb[unit] = w[unit] / 2, 0.0
        self.xl = 2.0 * lam * self.xa + self.xb

    def _ratios(self, horizon: int) -> np.ndarray:
        """R+ + R- and R- - R+, stacked as two q x q arrays. Both are
        symmetric, R being even in phi, so they are evaluated for k <= l
        only, in one ``dirichlet_ratio`` call on a flat array of the angle
        sums and differences up to FLAT_KERNEL_MAX_STATES states."""
        q = len(self.psi)
        k, l, upper, lower = upper_triangle(q)
        first, second = self.psi[k], self.psi[l]
        angles = (first + second, first - second)
        del first, second
        if q <= FLAT_KERNEL_MAX_STATES:
            at_sum, at_diff = dirichlet_ratio(np.concatenate(angles), horizon).reshape(2, -1)
        else:
            at_sum, at_diff = (dirichlet_ratio(phi, horizon) for phi in angles)
        square = np.empty((2, q * q))
        plus, minus = square
        plus[upper] = plus[lower] = at_sum + at_diff
        minus[upper] = minus[lower] = at_diff - at_sum
        return square.reshape(2, q, q)

    def average(self, horizon: int) -> np.ndarray:
        """Distribution averaged over double-steps 0 .. horizon - 1, one
        value per state (per node of each class)."""
        turn = (1, -1j, -1, 1j)[(horizon - 1) % 4]  # (-i)**(T - 1), exactly
        f = np.where(self.unit, turn, np.exp(1j * (horizon - 1) * self.psi))
        y, u, x = self.xa * f, self.xb * f, self.xl * f
        plus, minus = self._ratios(horizon)
        a = np.outer(y.real, y.real)
        a *= plus
        m = np.outer(u.real, x.real)
        m *= plus
        term = np.outer(y.imag, y.imag, out=plus)  # R+ + R- is spent
        term *= minus
        a += term
        np.outer(u.imag, x.imag, out=term)
        term *= minus
        m += term
        del plus, minus, term
        p = self.g @ _diagonal(self.v, a) + _diagonal(self.v, m) / self.sizes
        p *= 2.0
        return np.maximum(p, 0.0)


@functools.lru_cache(maxsize=8)
def upper_triangle(q: int) -> tuple[np.ndarray, ...]:
    """Row k, column l, flat position k q + l and mirrored position l q + k
    of each entry k <= l of a q x q array; read-only, since calls share them.
    The walks of a damping grid share one q; a hub attack's walks and Kendall
    counts a few (building them took 15 us of a 150 us ranking at q = 16)."""
    k, l = np.triu_indices(q)
    arrays = (k, l, k * q + l, l * q + k)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _dense(m: np.ndarray | RankOnePlusSparse) -> np.ndarray:
    return m if isinstance(m, np.ndarray) else m.toarray()


def _diagonal(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """diag(V A V^T)."""
    va = v @ a
    va *= v
    return va.sum(axis=1)


class SzegedyWalk:
    """Reduced-subspace simulator: O(q) state for q twin classes (q = n for
    a dense G); a step costs one product with D, O(q**2) dense and O(q + m)
    structured.

    A structured G is first reduced to its twin classes (``twin_classes``).
    In the orthonormal class coordinates e_K = 1_K / sqrt(w_K), w_K the size
    of class K (``sizes``), the walk keeps its form with G restricted to one
    representative per class (``g``), D restricted the same way and scaled
    by sqrt(w_J w_K) (``d``) and a_0 = sqrt(w / n); a node of class K
    measures p_K = (G (a*a))_K + (2 b_K (D a)_K + b_K**2) / w_K. A dense G,
    and a structured one without twins, keep q = n, w = 1 and their own G
    and D. The reduced operators are dense up to DENSE_MAX_NODES classes, and
    above it structured or dense by google.keeps_structure on q and the
    stored entries of the reduced D (the class pairs linked either way), the
    operator an iterated double-step multiplies by.

    ``modes`` holds the closed-form engine's spectrum, from G and D densified
    if they are structured, when there are at most CLOSED_FORM_MAX_STATES
    states and no mode within NEAR_UNIT_GAP of |lam| = 1 short of a unit
    mode; else it is None and averages iterate the
    three-term recurrence of the module docstring, which ``_double_steps``
    steps for both ``trajectory`` and the iterated average. ``average`` is
    the Cesaro average alone, and ``average_with_convergence`` adds the
    half-horizon gap; both, ``trajectory`` and ``measure`` give one value per
    node, twins bit-equal. ``measure`` and ``norm_sq`` act on the class
    coefficients (a, b) of one state.
    """

    def __init__(self, gm: GoogleMatrix):
        self.n = gm.n
        twins = None if isinstance(gm.entries, np.ndarray) else twin_classes(gm.entries)
        self.node_class, self.sizes, self.g = twins or (np.arange(self.n), np.ones(self.n),
                                                        gm.entries)
        self.d = overlap(self.g, self.sizes)
        q = len(self.sizes)
        if q < self.n and not keeps_structure(q, len(self.d.vals)):  # reduced: form picked on q
            self.g, self.d = self.g.toarray(), self.d.toarray()
        self.modes = None
        if q <= CLOSED_FORM_MAX_STATES:
            modes = CesaroModes(_dense(self.g), _dense(self.d), self.sizes, self.n)
            if modes.conditioned:
                self.modes = modes

    def _initial(self) -> np.ndarray:
        """a_0 of the uniform state, sqrt(w / n) per class."""
        return np.sqrt(self.sizes) / np.sqrt(self.n)

    def measure(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Second-register outcome distribution of the state with class
        coefficients (a, b), one value per node.

        Rounding can push individual entries a few ulp below zero; those are
        clamped to 0 so downstream consumers see a valid distribution.
        """
        bw = b / self.sizes
        p = self.g @ (a * a) + 2.0 * bw * (self.d @ a) + bw * b
        return np.maximum(p, 0.0)[self.node_class]

    def norm_sq(self, a: np.ndarray, b: np.ndarray) -> float:
        """Conserved squared norm a.a + b.b + 2 a.(D b)."""
        return float(a @ a + b @ b + 2.0 * (a @ (self.d @ b)))

    def _double_steps(self, horizon: int):
        """Yield (b_{2t-2}, b_{2t-1}, b_{2t}) for t = 1 .. horizon - 1, stepped
        through b_{k+1} = 2 D b_k - b_{k-1} from b_{-1} = -a_0 and b_0 = 0.

        After t double-steps the state is (a, b) = (-b_{2t-1}, b_{2t}).
        """
        d2 = 2.0 * self.d  # exact: the same bits as 2 (D x)
        prev = -self._initial()  # b_{-1}
        cur = np.zeros(len(self.sizes))  # b_0
        for _ in range(1, horizon):
            mid = d2 @ cur - prev
            nxt = d2 @ mid - cur
            yield cur, mid, nxt
            prev, cur = mid, nxt

    def trajectory(self, horizon: int) -> np.ndarray:
        """Instantaneous node distributions; row t is the measurement after t
        double-steps of the unitary (row 0 is the initial state)."""
        if horizon < 1:
            raise ParameterError("horizon must be >= 1")
        rows = [self.measure(self._initial(), np.zeros(len(self.sizes)))]
        rows += [self.measure(-mid, after) for _, mid, after in self._double_steps(horizon)]
        return np.array(rows)

    def _iterated_averages(self, horizon: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The class averages over ``horizon`` and ``horizon // 2``
        double-steps (None when that is 0) from the recurrence's double-steps.

        Row t is G (b_{2t-1}**2) - b_{2t} b_{2t-2} / w, so the loop sums the
        two terms over a block of at most G_BLOCK rows and applies G and the
        weights once per block.
        """
        half, q = horizon // 2, len(self.sizes)
        a0 = self._initial()
        squares, cross, total = a0 * a0, np.zeros(q), np.zeros(q)
        half_avg = None
        for t, (before, mid, after) in enumerate(self._double_steps(horizon), 1):
            if t % G_BLOCK == 0 or t == half:
                total += self.g @ squares - cross / self.sizes
                squares, cross = np.zeros(q), np.zeros(q)
                if t == half:
                    half_avg = np.maximum(total / half, 0.0)
            squares += mid * mid
            cross += after * before
        total += self.g @ squares - cross / self.sizes
        return np.maximum(total / horizon, 0.0), half_avg

    def average_with_convergence(self, horizon: int = DEFAULT_HORIZON) -> tuple[np.ndarray, float]:
        """Time-averaged node distribution over ``horizon`` double-steps.

        Also reports the sup-norm gap between the full average and the
        half-horizon average, a direct handle on how settled the Cesaro mean
        is (NaN when horizon == 1).
        """
        if horizon < 1:
            raise ParameterError("horizon must be >= 1")
        half = horizon // 2
        if self.modes is not None:
            avg = self.modes.average(horizon)
            half_avg = self.modes.average(half) if half else None
        else:
            avg, half_avg = self._iterated_averages(horizon)
        gap = float("nan") if half_avg is None else float(np.abs(avg - half_avg).max())
        return avg[self.node_class], gap

    def average(self, horizon: int = DEFAULT_HORIZON) -> np.ndarray:
        """The first value of ``average_with_convergence``, bit for bit,
        without the closed form's second kernel evaluation for the gap."""
        if self.modes is None:
            return self.average_with_convergence(horizon)[0]
        if horizon < 1:
            raise ParameterError("horizon must be >= 1")
        return self.modes.average(horizon)[self.node_class]

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

``SzegedyWalk`` is the production simulator built on that recursion;
``DenseWalk`` realizes the same dynamics literally on the n**2 amplitude
vector and serves as a cross-check for small n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .google import GoogleMatrix

DEFAULT_HORIZON = 1000
DENSE_NODE_LIMIT = 64


@dataclass
class WalkState:
    """Coefficients (a, b) of sum_j a_j |psi_j> + sum_k b_k S|psi_k>."""

    a: np.ndarray
    b: np.ndarray


class SzegedyWalk:
    """Reduced-subspace simulator: O(n) state; a step costs one product with
    D, O(n**2) for a dense G and O(n + m) for a structured one."""

    def __init__(self, gm: GoogleMatrix):
        self.n = gm.n
        self.g = gm.entries
        self.d = gm.overlap()

    def initial_state(self) -> WalkState:
        """Uniform superposition of the per-node vectors; unit norm by construction."""
        return WalkState(np.full(self.n, 1.0 / np.sqrt(self.n)), np.zeros(self.n))

    def _step(self, state: WalkState) -> tuple[WalkState, np.ndarray]:
        """The step and the product D b it computed on the way."""
        d_b = self.d @ state.b
        return WalkState(-state.b, state.a + 2.0 * d_b), d_b

    def step(self, state: WalkState) -> WalkState:
        """One application of the walk unitary: (a, b) -> (-b, a + 2 D b)."""
        return self._step(state)[0]

    def measure(self, state: WalkState, d_a: np.ndarray | None = None) -> np.ndarray:
        """Second-register outcome distribution of the current state.

        ``d_a`` is the product D a when the caller already has it. Rounding
        can push individual entries a few ulp below zero; those are clamped
        to 0 so downstream consumers see a valid distribution.
        """
        a, b = state.a, state.b
        if d_a is None:
            d_a = self.d @ a
        p = self.g @ (a * a) + 2.0 * b * d_a + b * b
        return np.maximum(p, 0.0)

    def norm_sq(self, state: WalkState) -> float:
        """Conserved squared norm a.a + b.b + 2 a.(D b)."""
        a, b = state.a, state.b
        return float(a @ a + b @ b + 2.0 * (a @ (self.d @ b)))

    def _distributions(self, horizon: int):
        """Yield the node distribution after 0, 1, ..., horizon - 1 double-steps."""
        if horizon < 1:
            raise ParameterError("horizon must be >= 1")
        state = self.initial_state()
        yield self.measure(state)
        for _ in range(1, horizon):
            # the second step sets a = -b for the b it multiplied by D, so
            # D a = -(D b) comes with it: three products per double-step
            state, d_b = self._step(self._step(state)[0])
            yield self.measure(state, -d_b)

    def trajectory(self, horizon: int) -> np.ndarray:
        """Instantaneous node distributions; row t is the measurement after t
        double-steps of the unitary (row 0 is the initial state)."""
        return np.array(list(self._distributions(horizon)))

    def average_with_convergence(self, horizon: int = DEFAULT_HORIZON) -> tuple[np.ndarray, float]:
        """Time-averaged node distribution over ``horizon`` double-steps.

        Also reports the sup-norm gap between the full average and the
        half-horizon average, a direct handle on how settled the Cesaro mean
        is (NaN when horizon == 1).
        """
        half = horizon // 2
        acc = np.zeros(self.n)
        half_snapshot = None
        for t, p in enumerate(self._distributions(horizon), start=1):
            acc += p
            if t == half:
                half_snapshot = acc.copy()
        avg = acc / horizon
        if half_snapshot is None:
            return avg, float("nan")
        return avg, float(np.abs(avg - half_snapshot / half).max())

    def average(self, horizon: int = DEFAULT_HORIZON) -> np.ndarray:
        return self.average_with_convergence(horizon)[0]


class DenseWalk:
    """Literal simulator on the full n**2 amplitude vector.

    Builds the projector, the register swap, and the one-step unitary as
    explicit dense matrices. Exponential in memory, hence the hard size
    guard; intended as an independent reference for ``SzegedyWalk``.
    """

    def __init__(self, gm: GoogleMatrix):
        if gm.n > DENSE_NODE_LIMIT:
            raise ParameterError(f"dense simulator limited to n <= {DENSE_NODE_LIMIT}")
        n = gm.n
        self.n = n
        r = np.sqrt(gm.toarray())
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

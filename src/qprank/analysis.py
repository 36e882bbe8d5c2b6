"""Derived measurements on importance vectors.

Covers localization (inverse participation ratio and its size scaling),
stability under the damping parameter (pairwise overlap and max-difference
grids), power-law structure of sorted rankings, rank-order correlation, the
iterated hub-removal experiment, and seeded ensemble aggregation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ParameterError
from .google import DEFAULT_ALPHA, classical_pagerank, google_from_graph
from .graphs import DirectedGraph, GeneratorSpec, generate, remove_node
from .walk import DEFAULT_HORIZON, SzegedyWalk, upper_triangle

MODES = ("quantum", "classical")

# Classification thresholds for the IPR size-scaling slope.
LOCALIZED_MAX_ABS_SLOPE = 0.25
DELOCALIZED_MAX_SLOPE = -0.6


# Importances whose relative gap is at most TIE_RTOL are equal for every
# ranking below, so that rankings do not depend on rounding. On sf n = 16 and
# 32 (seeds 0-99; classical, and quantum from both walk engines) adjacent
# sorted importances differ either by at most 1.3e-14, relative (rounding;
# mostly exact ties of equivalent nodes), or by 3.3e-5 or more; 1e-10 sits
# in the middle of that gap.
TIE_RTOL = 1e-10


def _sorted_classes(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes by importance, descending (stable), and the tie class of each."""
    p = np.asarray(p, dtype=np.float64)
    order = np.argsort(-p, kind="stable")
    v = p[order]
    starts = np.zeros(len(p), dtype=bool)
    starts[1:] = v[:-1] - v[1:] > TIE_RTOL * np.abs(v[:-1])
    return order, np.cumsum(starts)


def tie_classes(p: np.ndarray) -> np.ndarray:
    """Tie class of each node: 0 for the most important, counting up.

    Importances are sorted descending and a new class starts wherever a value
    falls more than TIE_RTOL, relative, below the one before it.
    """
    order, sorted_classes = _sorted_classes(p)
    classes = np.empty(len(order), dtype=np.int64)
    classes[order] = sorted_classes
    return classes


def ranking_order(p: np.ndarray) -> list[int]:
    """Nodes by tie class, most important first; each class by ascending id:
    one stable argsort, then one lexsort of its positions by (class, id)."""
    order, sorted_classes = _sorted_classes(p)
    return order[np.lexsort((order, sorted_classes))].tolist()


def node_ranks(p: np.ndarray) -> np.ndarray:
    """1-based rank of each node by exact importance, descending; only equal
    values break by ascending node id.

    Unlike ranking_order this ignores TIE_RTOL: ``rank`` writes these ranks
    beside the 17-digit importances, and the two columns must agree.
    """
    ranks = np.empty(len(p), dtype=np.int64)
    ranks[np.lexsort((np.arange(len(p)), -np.asarray(p)))] = np.arange(1, len(p) + 1)
    return ranks


def importance_vector(
    g: DirectedGraph,
    mode: str,
    alpha: float = DEFAULT_ALPHA,
    horizon: int = DEFAULT_HORIZON,
) -> np.ndarray:
    """One ranking vector for a graph: time-averaged walk or stationary distribution."""
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}, expected one of {MODES}")
    gm = google_from_graph(g, alpha)
    if mode == "quantum":
        return SzegedyWalk(gm).average(horizon)
    return classical_pagerank(gm)


# ---------------------------------------------------------------------------
# Localization
# ---------------------------------------------------------------------------


class IprSample(NamedTuple):
    """Inverse participation ratio of one distribution: xi = sum_i p_i**(2r)."""

    n: int
    xi: float


def ipr(p: np.ndarray, r: int = 1) -> IprSample:
    if r < 1 or int(r) != r:
        raise ParameterError("order parameter r must be a positive integer")
    p = np.asarray(p, dtype=np.float64)
    if abs(p.sum() - 1.0) > 1e-6:
        raise ParameterError("input must be a normalized distribution")
    xi = float((p ** (2 * r)).sum())
    if xi == 0.0:  # its logarithm would make the scaling fit NaN
        raise ParameterError(f"order r={r} underflows: sum of p**{2 * r} is 0 at n={len(p)}")
    return IprSample(n=len(p), xi=xi)


class IprScaling(NamedTuple):
    slope: float
    intercept: float
    label: str  # "localized" | "delocalized" | "intermediate"


def classify_slope(slope: float) -> str:
    if abs(slope) <= LOCALIZED_MAX_ABS_SLOPE:
        return "localized"
    if slope <= DELOCALIZED_MAX_SLOPE:
        return "delocalized"
    return "intermediate"


def ipr_scaling(samples: list[IprSample]) -> IprScaling:
    """Least-squares fit of log xi against log n across graph sizes.

    A flat slope means the distribution stays concentrated as the graph
    grows (localized); slope near 1 - 2r is the uniform limit (delocalized).
    """
    if len({s.n for s in samples}) < 2:
        raise ParameterError("need samples at >= 2 distinct graph sizes")
    x = np.log([s.n for s in samples])
    y = np.log([s.xi for s in samples])
    slope, intercept = np.polyfit(x, y, 1)
    return IprScaling(float(slope), float(intercept), classify_slope(float(slope)))


# ---------------------------------------------------------------------------
# Damping stability
# ---------------------------------------------------------------------------


class StabilityGrid(NamedTuple):
    """Pairwise overlap/difference of rankings across damping values."""

    fidelity: np.ndarray
    distance: np.ndarray


def coarse_alpha_grid(points: int = 20) -> np.ndarray:
    """Evenly spaced damping values spanning 0.01 to 0.98 inclusive."""
    if points < 1:
        raise ParameterError(f"grid needs at least one point, got {points}")
    return np.linspace(0.01, 0.98, points)


def pairwise_stability(vectors: list[np.ndarray]) -> StabilityGrid:
    """Fidelity sum_j sqrt(p_j q_j) and distance max_j |p_j - q_j| of every
    pair of vectors (p, q). Both are symmetric bit for bit, so row i is
    computed against the vectors from i on and mirrored into column i."""
    stacked = np.asarray(vectors, dtype=np.float64)
    fid = np.empty((len(stacked), len(stacked)))
    dist = np.empty_like(fid)
    for i, v in enumerate(stacked):
        fid[i, i:] = fid[i:, i] = np.sqrt(stacked[i:] * v).sum(axis=1)
        dist[i, i:] = dist[i:, i] = np.abs(stacked[i:] - v).max(axis=1)
    return StabilityGrid(fid, dist)


# ---------------------------------------------------------------------------
# Power-law structure of sorted rankings
# ---------------------------------------------------------------------------


class PowerLawFit(NamedTuple):
    """Least-squares line on (log rank index, log importance).

    beta is the negated slope of importance against 1-based rank index, c the
    fitted prefactor, residual the RMS of the log-log residuals.
    """

    beta: float
    c: float
    i_max: int
    residual: float


def power_law_fit(values, i_max: int | None = None) -> PowerLawFit:
    """Fit importance ~ c * index**(-beta) over rank indices [1, i_max] of
    ``values``, importances in ranking order (``p[ranking_order(p)]``).

    By default the fit ends just before the last tie class (the degenerate
    tail of values equal within TIE_RTOL); when fewer than 2 entries come
    before it, the full list is used.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n == 0:
        raise ParameterError("empty ranking")
    if i_max is None:
        classes = tie_classes(values)
        before_tail = n - int(np.count_nonzero(classes == classes.max()))
        i_max = before_tail if before_tail >= 2 else n
    if not 1 <= i_max <= n:
        raise ParameterError(f"bad fit range [1, {i_max}] for {n} entries")
    window = values[:i_max]
    if window.min() <= 0.0:
        raise ParameterError("nonpositive importance inside the fit range")
    if len(window) < 2:
        raise ParameterError("fit range must contain at least 2 entries")
    x = np.log(np.arange(1, i_max + 1, dtype=np.float64))
    y = np.log(window)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return PowerLawFit(
        beta=float(-slope),
        c=float(np.exp(intercept)),
        i_max=i_max,
        residual=float(np.sqrt(np.mean(resid**2))),
    )


# ---------------------------------------------------------------------------
# Rank-order correlation and the hub-removal experiment
# ---------------------------------------------------------------------------


# Up to _KENDALL_PAIRS_MAX elements the pairs are compared in one pass over
# walk.upper_triangle's cached k <= l, 0.14-0.40 of the blocked count's time at
# k = 2-192 (one pinned CPU) and 1.2-1.8 at k = 256-512, where its temporaries
# are fresh pages. Above, a block of rows at a time is compared with every later
# position, at most _KENDALL_BLOCK comparisons (one block up to k = 2048).
_KENDALL_PAIRS_MAX = 128
_KENDALL_BLOCK = 1 << 22


def kendall_coefficient(order_a, order_b) -> float:
    """Concordant-pair fraction of two orderings of one element set.

    1.0 when the orders agree, 0.0 when one is the exact reverse of the
    other. Equals (1 + tau) / 2 for the classic correlation tau. Costs
    O(k²) comparisons: one pass over cached index pairs up to
    _KENDALL_PAIRS_MAX elements, blocks of bounded size above it.
    """
    a = list(order_a)
    b = list(order_b)
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        raise ParameterError("orderings must not contain duplicates")
    if len(a) != len(b) or set(a) != set(b):
        raise ParameterError("orderings must cover the same element set")
    k = len(a)
    if k < 2:
        return 1.0
    pos_b = {element: i for i, element in enumerate(b)}
    rb = np.array([pos_b[element] for element in a], dtype=np.int64)
    if k <= _KENDALL_PAIRS_MAX:  # the pairs k = l are never concordant
        first, second = upper_triangle(k)[:2]
        return np.count_nonzero(rb[first] < rb[second]) / (k * (k - 1) / 2)
    concordant = 0
    rows = max(1, _KENDALL_BLOCK // k)
    for start in range(0, k, rows):
        block = rb[start : start + rows, None]
        concordant += np.count_nonzero(np.triu(block < rb[start : start + rows], 1))
        concordant += np.count_nonzero(block < rb[start + rows :])
    return concordant / (k * (k - 1) / 2)


class AttackRun(NamedTuple):
    """One iterated hub-removal run: removed original ids, K after each removal."""

    removed: tuple[int, ...]
    kendall: tuple[float, ...]


def attack_experiment(
    g: DirectedGraph,
    n_max: int,
    mode: str = "quantum",
    alpha: float = DEFAULT_ALPHA,
    horizon: int = DEFAULT_HORIZON,
) -> AttackRun:
    """Repeatedly knock out the currently most important node.

    Each round removes the top node of the current ranking (ties go to the
    lowest id), re-ranks the reduced graph, and scores the new ordering
    against the original ordering restricted to the survivors. Node identity
    is tracked through the removal re-indexing, so all reported ids and
    comparisons refer to the original graph's labels.
    """
    if not 0 <= n_max < g.n:
        raise ParameterError(f"removal count {n_max} must lie in [0, n)")
    kwargs = dict(alpha=alpha, horizon=horizon)
    original_order = ranking_order(importance_vector(g, mode, **kwargs))
    current_graph = g
    to_original = list(range(g.n))
    current_order = list(original_order)
    removed: list[int] = []
    scores: list[float] = []
    for _ in range(n_max):
        top = current_order[0]
        removed.append(to_original[top])
        current_graph = remove_node(current_graph, top)
        del to_original[top]
        current_order = ranking_order(importance_vector(current_graph, mode, **kwargs))
        reduced_as_original = [to_original[i] for i in current_order]
        surviving = set(to_original)
        restricted = [v for v in original_order if v in surviving]
        scores.append(kendall_coefficient(reduced_as_original, restricted))
    return AttackRun(tuple(removed), tuple(scores))


# ---------------------------------------------------------------------------
# Seeded ensembles
# ---------------------------------------------------------------------------


class EnsembleReport(NamedTuple):
    """Per-metric mean and sample standard deviation over seeded runs."""

    count: int
    failure_messages: tuple[str, ...]
    means: dict[str, float]
    stds: dict[str, float]

    @property
    def failures(self) -> int:
        return len(self.failure_messages)


def run_ensemble_item(args) -> dict[str, float] | str:
    """Build one seeded graph and apply the experiment; a parameter or
    convergence error on that draw comes back as its message, not raised, so
    one bad draw cannot sink the ensemble. Any other exception is a defect
    and propagates. Top-level so that process pools can pickle it."""
    spec, experiment = args
    try:
        return experiment(generate(spec))
    except (ParameterError, ConvergenceError) as exc:
        return f"seed {spec.seed}: {exc}"


def ensemble_run(spec: GeneratorSpec, count: int, experiment, map_fn=map) -> EnsembleReport:
    """Apply ``experiment(graph)`` to ``count`` graphs seeded spec.seed + index.

    ``experiment`` returns a flat dict of named metrics, the same keys for
    every graph. Aggregation is a deterministic reduction in seed order, so
    reports do not depend on the mapper's execution schedule (``map_fn`` may
    be a process pool's map).
    """
    if count < 1:
        raise ParameterError("ensemble count must be >= 1")
    items = [(spec.replace(seed=spec.seed + i), experiment) for i in range(count)]
    outcomes = list(map_fn(run_ensemble_item, items))
    failures = tuple(outcome for outcome in outcomes if isinstance(outcome, str))
    metric_dicts = [outcome for outcome in outcomes if not isinstance(outcome, str)]
    if not metric_dicts:
        raise ParameterError(f"all {count} ensemble runs failed; first: {failures[0]}")
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    for key in metric_dicts[0]:
        vals = np.array([m[key] for m in metric_dicts], dtype=np.float64)
        means[key] = float(vals.mean())
        stds[key] = float(vals.std(ddof=1)) if len(vals) >= 2 else 0.0
    return EnsembleReport(count=count, failure_messages=failures, means=means, stds=stds)


def attack_metrics(
    g: DirectedGraph,
    removals: int,
    modes: tuple[str, ...] = ("quantum", "classical"),
    alpha: float = DEFAULT_ALPHA,
    horizon: int = DEFAULT_HORIZON,
) -> dict[str, float]:
    """Flat metric dict of one hub-removal run per mode, for ensemble aggregation."""
    out: dict[str, float] = {}
    for mode in modes:
        run = attack_experiment(g, removals, mode=mode, alpha=alpha, horizon=horizon)
        for i, k in enumerate(run.kendall, start=1):
            out[f"kendall_{mode}_{i}"] = k
    return out


def powerlaw_metrics(
    g: DirectedGraph,
    modes: tuple[str, ...] = ("quantum", "classical"),
    alpha: float = DEFAULT_ALPHA,
    horizon: int = DEFAULT_HORIZON,
    i_max: int | None = None,
) -> dict[str, float]:
    """Flat metric dict of per-mode power-law fits, for ensemble aggregation."""
    out: dict[str, float] = {}
    for mode in modes:
        p = importance_vector(g, mode, alpha=alpha, horizon=horizon)
        fit = power_law_fit(p[ranking_order(p)], i_max=i_max)
        out[f"beta_{mode}"] = fit.beta
        out[f"c_{mode}"] = fit.c
        out[f"residual_{mode}"] = fit.residual
    return out


def degeneracy_resolution(p: np.ndarray) -> int:
    """Tie classes among the low half of the ranking.

    A larger count means the ranking separates the unimportant nodes instead
    of lumping them.
    """
    classes = np.sort(tie_classes(p))  # class of each rank position
    low = classes[len(classes) - len(classes) // 2 :]
    return int(np.count_nonzero(np.diff(low))) + int(len(low) > 0)

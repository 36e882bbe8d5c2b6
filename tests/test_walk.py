import tracemalloc

import numpy as np
import pytest

from qprank import (
    DirectedGraph,
    GoogleMatrix,
    ParameterError,
    SzegedyWalk,
    gen_erdos_renyi,
    gen_hierarchical_outerplanar,
    gen_hierarchical_ternary,
    gen_scale_free,
    google_from_graph,
    ranking_order,
    walk,
)
from qprank.google import DENSE_MAX_NODES, RankOnePlusSparse, build_structured_google
from qprank.walk import CLOSED_FORM_MAX_STATES, G_BLOCK, CesaroModes, dirichlet_ratio

from conftest import (
    ComplexCesaroModes,
    DenseWalk,
    ReducedWalk,
    complete,
    cycle,
    dense_google,
    operator_graphs,
    random_graph,
    rel_err,
)


def walk_for(g, alpha=0.85):
    return SzegedyWalk(google_from_graph(g, alpha))


def iterated(gm):
    """The walk with its closed-form engine switched off."""
    w = SzegedyWalk(gm)
    w.modes = None
    return w


HORIZONS = (1, 2, 3, 50, 1000)


def leaves_on_cycle(k, leaves):
    """A k-cycle and ``leaves`` more nodes that each link to node 0 only: the
    leaves are one twin class and every cycle node its own, so q = k + 1."""
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k + j, 0) for j in range(leaves)]
    return DirectedGraph(k + leaves, edges)


def twin_groups(g):
    """The nodes grouped by their (in-neighbour set, out-neighbour set),
    built edge by edge."""
    ins, outs = [set() for _ in range(g.n)], [set() for _ in range(g.n)]
    for s, t in g.edge_list():
        outs[s].add(t)
        ins[t].add(s)
    groups = {}
    for node, key in enumerate(zip(map(frozenset, ins), map(frozenset, outs))):
        groups.setdefault(key, []).append(node)
    return list(groups.values())


class TestInitialState:
    def test_two_node_values(self):
        gm = google_from_graph(DirectedGraph(2, frozenset({(0, 1)})), 0.85)
        a, b = ReducedWalk(gm).initial_state()
        assert np.allclose(a, 0.7071067811865475, atol=0, rtol=0)
        assert np.array_equal(b, np.zeros(2))

    def test_unit_norm_exactly_from_b_zero(self):
        gm = google_from_graph(gen_scale_free(17, seed=1), 0.85)
        w, (a, b) = SzegedyWalk(gm), ReducedWalk(gm).initial_state()
        assert b @ b == 0.0
        assert abs(w.norm_sq(a, b) - 1.0) < 1e-15

    def test_t0_measurement_is_row_average(self):
        g = random_graph(np.random.default_rng(3), 9)
        gm = google_from_graph(g, 0.85)
        p0 = SzegedyWalk(gm).trajectory(1)[0]
        assert np.abs(p0 - gm.entries.mean(axis=1)).max() < 1e-14

    def test_cycle_t0_uniform(self):
        assert np.abs(walk_for(cycle(3)).trajectory(1)[0] - 1 / 3).max() < 1e-14


class TestStep:
    """The literal reduced-walk oracle against the step's defining properties."""

    def test_projector_fixed_point(self):
        # A state with b = 0 lies inside the projected span, so one step just
        # swaps the two families: (a, 0) -> (0, a).
        oracle = ReducedWalk(google_from_graph(gen_scale_free(8, seed=2), 0.85))
        a = np.random.default_rng(0).normal(size=8)
        out_a, out_b = oracle.step((a, np.zeros(8)))
        assert np.array_equal(out_a, -np.zeros(8))
        assert np.array_equal(out_b, a)

    def test_double_step_closed_form(self):
        g = random_graph(np.random.default_rng(5), 7)
        gm = google_from_graph(g, 0.6)
        oracle = ReducedWalk(gm)
        r = np.sqrt(gm.entries)
        d = r * r.T
        a = np.random.default_rng(1).normal(size=7)
        out_a, out_b = oracle.step(oracle.step((a.copy(), np.zeros(7))))
        assert np.allclose(out_a, -a, atol=1e-15)
        assert np.allclose(out_b, 2 * d @ a, atol=1e-14)

    def test_norm_conserved_on_random_state(self):
        gm = google_from_graph(random_graph(np.random.default_rng(8), 8), 0.85)
        w, oracle = SzegedyWalk(gm), ReducedWalk(gm)
        rng = np.random.default_rng(4)
        s = rng.normal(size=8), rng.normal(size=8)
        before = w.norm_sq(*s)
        for _ in range(200):
            s = oracle.step(s)
        assert abs(w.norm_sq(*s) - before) < 1e-12


class TestMeasurement:
    def test_two_cycle_stays_balanced(self):
        assert np.abs(walk_for(cycle(2)).trajectory(30) - 0.5).max() < 1e-12

    def test_distributions_normalized_and_clamped(self):
        for p in walk_for(gen_scale_free(30, seed=6)).trajectory(100):
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-12

    def test_cycle_symmetry_instantaneous(self):
        # Rotation is an automorphism of the cycle, so every node measures alike.
        for p in walk_for(cycle(5)).trajectory(25):
            assert p.max() - p.min() < 1e-10

    def test_complete_digraph_symmetry_instantaneous(self):
        # Every node permutation is an automorphism of the complete digraph.
        for p in walk_for(complete(5)).trajectory(25):
            assert p.max() - p.min() < 1e-10


class TestAverage:
    def test_three_cycle_uniform(self):
        for alpha in (0.1, 0.85):
            avg = walk_for(cycle(3), alpha).average(200)
            assert np.abs(avg - 1 / 3).max() < 1e-10

    def test_two_cycle_any_horizon(self):
        for horizon in (1, 7, 50):
            avg = walk_for(cycle(2), 0.5).average(horizon)
            assert np.abs(avg - 0.5).max() < 1e-12

    def test_cesaro_settles(self):
        g = gen_scale_free(7, seed=5)
        w = walk_for(g)
        a500, a1000, a2000 = (w.average(T) for T in (500, 1000, 2000))
        d1 = np.abs(a1000 - a500).max()
        d2 = np.abs(a2000 - a1000).max()
        assert d2 < d1

    def test_convergence_report(self):
        w = walk_for(gen_scale_free(12, seed=1))
        avg, gap = w.average_with_convergence(400)
        assert gap == pytest.approx(np.abs(avg - w.average(200)).max())
        _, nan_gap = w.average_with_convergence(1)
        assert np.isnan(nan_gap)

    def test_deterministic_bitwise(self):
        gm = google_from_graph(gen_scale_free(20, seed=2), 0.85)
        assert np.array_equal(SzegedyWalk(gm).average(300), SzegedyWalk(gm).average(300))

    def test_horizon_validation(self):
        with pytest.raises(ParameterError):
            walk_for(cycle(3)).average(0)


class TestDenseOracle:
    def test_swap_is_involution(self):
        den = DenseWalk(google_from_graph(random_graph(np.random.default_rng(2), 5), 0.85))
        assert np.array_equal(den.swap @ den.swap, np.eye(25))

    def test_initial_measurements_agree(self):
        gm = google_from_graph(random_graph(np.random.default_rng(9), 8), 0.85)
        den = DenseWalk(gm)
        p_red = SzegedyWalk(gm).trajectory(1)[0]
        p_den = den.measure(den.initial_state())
        assert np.abs(p_red - p_den).max() < 1e-12

    def test_unitarity_of_dense_operator(self):
        den = DenseWalk(google_from_graph(random_graph(np.random.default_rng(12), 6), 0.5))
        assert np.abs(den.u @ den.u.T - np.eye(36)).max() < 1e-12

    def test_trajectories_match_reduced(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            g = random_graph(rng, int(rng.integers(3, 9)))
            for alpha in (0.3, 0.85):
                gm = google_from_graph(g, alpha)
                den = DenseWalk(gm)
                ds = den.initial_state()
                for p in SzegedyWalk(gm).trajectory(20):
                    assert np.abs(p - den.measure(ds)).max() < 1e-10
                    ds = den.step(den.step(ds))

    def test_size_guard(self):
        with pytest.raises(ParameterError):
            DenseWalk(google_from_graph(cycle(65), 0.85))


class TestTrajectory:
    def test_rows_match_manual_evolution(self):
        # G and D unreduced: a dense G, and a structured one without twins
        for gm in (google_from_graph(gen_scale_free(10, seed=3), 0.85),
                   build_structured_google(cycle(10), 0.85)):
            w = SzegedyWalk(gm)
            assert np.array_equal(w.trajectory(5), ReducedWalk(gm).rows(5))

    def test_rows_give_average_and_half_horizon_gap(self):
        gm = google_from_graph(gen_scale_free(12, seed=4), 0.85)
        w = SzegedyWalk(gm)
        for horizon in (2, 3, 50):
            traj = ReducedWalk(gm).rows(horizon)
            avg, gap = w.average_with_convergence(horizon)
            assert np.abs(traj.sum(axis=0) / horizon - avg).max() < 1e-14
            half_avg = traj[: horizon // 2].mean(axis=0)
            assert abs(gap - np.abs(avg - half_avg).max()) < 1e-14


class Counted:
    """An operator that counts its products with a vector under ``key``;
    a scalar multiple counts under its own key."""

    def __init__(self, op, counts, key):
        self.op, self.counts, self.key = op, counts, key
        counts.setdefault(key, 0)

    def __matmul__(self, x):
        self.counts[self.key] += 1
        return self.op @ x

    def __rmul__(self, c):
        return Counted(c * self.op, self.counts, f"{c:g}{self.key}")


class TestIteratedAverage:
    """The recurrence-based average against the rows of the literal
    reduced-walk oracle."""

    GRAPHS = {
        # 301 twin classes, whose D is sparse enough to stay structured
        "sf512-structured": (gen_scale_free(512, seed=2), 0.85),
        # 143 twin classes, whose D is too dense to stay structured; the walk
        # takes the closed form on them, so these tests force the iteration
        "sf256-reduced-dense": (gen_scale_free(256, seed=1), 0.85),
        "er300-dense": (gen_erdos_renyi(300, 0.125, seed=0), 0.85),
        # the top mode sits about 1e-8 below 1: the closed form declines it
        "sf16-near-unit": (gen_scale_free(16, seed=0), 1e-4),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_equals_mean_of_trajectory_rows(self, name):
        g, alpha = self.GRAPHS[name]
        gm = google_from_graph(g, alpha)
        w = SzegedyWalk(gm)
        assert (w.modes is None) == (name != "sf256-reduced-dense")
        w.modes = None
        assert isinstance(w.d, RankOnePlusSparse) == name.endswith("structured")
        assert (len(w.sizes) < g.n) == (name.startswith("sf") and g.n > DENSE_MAX_NODES)
        rows = ReducedWalk(gm).rows(max(HORIZONS))
        for horizon in HORIZONS:
            avg, gap = w.average_with_convergence(horizon)
            ref = rows[:horizon].mean(axis=0)
            tol = 1e-13
            if name.endswith("near-unit"):
                # the coefficients grow linearly in t, and the row sums of both
                # loops round at about T**2 eps (each is ~1e-10 off a
                # long-double iteration at T = 1000)
                tol = max(tol, 4 * horizon**2 * np.finfo(float).eps)
            assert rel_err(avg, ref) < tol
            if horizon == 1:
                assert np.isnan(gap)
            else:
                ref_gap = np.abs(ref - rows[: horizon // 2].mean(axis=0)).max()
                assert abs(gap - ref_gap) < tol * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["sf512-structured", "sf256-reduced-dense", "er300-dense"])
    def test_two_products_per_double_step(self, name):
        g, alpha = self.GRAPHS[name]
        w = iterated(google_from_graph(g, alpha))
        for horizon in (1, 2, 50, 1000):
            counts = {}
            w.d, w.g = Counted(w.d, counts, "D"), Counted(w.g, counts, "G")
            w.average(horizon)
            w.d, w.g = w.d.op, w.g.op
            assert counts["D"] == 0
            assert counts["2D"] == 2 * (horizon - 1)
            # once per block of G_BLOCK double-steps, once at the half horizon
            # and once at the end; never once per double-step
            assert counts["G"] <= (horizon - 1) // G_BLOCK + 2

    def test_near_unit_rounding_stays_at_the_row_loop_level(self):
        # G applied to the sums of a whole horizon left 0.8-1.0e-9 here; once
        # per block 0.8-1.5e-10; the row-by-row loop 0.3-1.2e-10
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("needs an extended-precision long double")
        for seed in range(4):
            gm = google_from_graph(gen_scale_free(16, seed=seed), 1e-4)
            g = gm.toarray().astype(np.longdouble)
            r = np.sqrt(g)
            d = r * r.T
            a, b = np.full(16, 1 / np.sqrt(np.longdouble(16))), np.zeros(16, np.longdouble)
            acc = np.zeros(16, np.longdouble)
            for _ in range(1000):
                acc += g @ (a * a) + 2 * b * (d @ a) + b * b
                for _ in range(2):
                    a, b = -b, a + 2 * (d @ b)
            w = SzegedyWalk(gm)
            assert w.modes is None
            assert rel_err(w.average(1000), (acc / 1000).astype(float)) < 3e-10


class TestStructuredWalk:
    """The walk on the structured Google matrix against the dense build."""

    @pytest.mark.parametrize("name", sorted(operator_graphs()))
    def test_matches_dense_walk(self, name):
        g = operator_graphs()[name]
        dense = dense_google(g, 0.85)
        r = np.sqrt(dense.entries)
        gm = build_structured_google(g, 0.85)
        x = np.random.default_rng(1).normal(size=g.n)
        assert rel_err(gm.overlap() @ x, (r * r.T) @ x) < 1e-13
        walk = SzegedyWalk(gm)
        # On the edgeless graph D = J/n has eigenvalue 1, so the coefficients
        # grow linearly in t and both forms' rounding as t**2: at T = 100 they
        # are each ~1e-12 off the exact uniform average, hence T = 50 here.
        assert rel_err(walk.average(50), SzegedyWalk(dense).average(50)) < 1e-12

    def test_large_graph_needs_no_square_array(self):
        g = gen_scale_free(4096, seed=0)
        tracemalloc.start()
        try:
            SzegedyWalk(google_from_graph(g, 0.85)).average(20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense n x n float64 array is 128 MiB at this size
        assert peak < g.n * g.n * 8 / 16


class TestClosedForm:
    """The closed-form Cesaro engine against the iteration, DenseWalk and
    exactly uniform answers."""

    GRAPHS = {
        "sf5": gen_scale_free(5, seed=1),
        "sf16": gen_scale_free(16, seed=0),
        "sf32-seed2": gen_scale_free(32, seed=2),
        "sf64": gen_scale_free(64, seed=3),
        f"sf{DENSE_MAX_NODES}": gen_scale_free(DENSE_MAX_NODES, seed=4),
        "er16": gen_erdos_renyi(16, 0.125, seed=1),
        "er64": gen_erdos_renyi(64, 0.125, seed=2),
        f"er{DENSE_MAX_NODES}": gen_erdos_renyi(DENSE_MAX_NODES, 0.125, seed=3),
        "er192": gen_erdos_renyi(192, 0.125, seed=4),
        f"er{CLOSED_FORM_MAX_STATES}": gen_erdos_renyi(CLOSED_FORM_MAX_STATES, 0.125, seed=5),
        "hier3-2": gen_hierarchical_ternary(2),
        "hier3-4": gen_hierarchical_ternary(4),
        "hier2-3": gen_hierarchical_outerplanar(3),
        "hier2-6": gen_hierarchical_outerplanar(6),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_iteration(self, name):
        gm = google_from_graph(self.GRAPHS[name], 0.85)
        closed, loop = SzegedyWalk(gm), iterated(gm)
        assert closed.modes is not None
        for horizon in HORIZONS:
            avg, gap = closed.average_with_convergence(horizon)
            ref, ref_gap = loop.average_with_convergence(horizon)
            assert np.abs(avg - ref).max() < 1e-12
            assert np.isnan(gap) if horizon == 1 else abs(gap - ref_gap) < 1e-12

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 0.98])
    @pytest.mark.parametrize("name", ["er192", f"er{CLOSED_FORM_MAX_STATES}"])
    def test_dense_graphs_above_the_node_constant(self, name, alpha):
        # dense and unreduced, q = n (alpha = 0.85 is in test_matches_iteration):
        # closed form up to CLOSED_FORM_MAX_STATES, but at alpha = 0.01 the top
        # mode sits 1.7e-4 below 1, where a forced closed form was 1.8e-11 off
        # the iteration, so the walk iterates
        g = self.GRAPHS[name]
        gm = google_from_graph(g, alpha)
        closed, loop = SzegedyWalk(gm), iterated(gm)
        assert isinstance(closed.d, np.ndarray) and len(closed.sizes) == g.n > DENSE_MAX_NODES
        assert (closed.modes is None) == (alpha == 0.01)
        for horizon in HORIZONS:
            assert rel_err(closed.average(horizon), loop.average(horizon)) <= 1e-12

    def test_graph_with_angle_pairs_at_pi_is_covered(self):
        # modes with lam = 0 (theta = pi/2, psi = 0) pair up to
        # theta_k + theta_l = pi, where the kernel is 1, not (-1)**(T - 1)
        psi = walk_for(self.GRAPHS["sf32-seed2"]).modes.psi
        assert (np.abs(np.add.outer(psi, psi)) < 1e-12).any()

    @pytest.mark.parametrize("g", [gen_scale_free(32, seed=2), gen_scale_free(128, seed=0),
                                   gen_scale_free(256, seed=1), gen_erdos_renyi(192, 0.125, seed=4),
                                   gen_hierarchical_outerplanar(6)]
                             + [DirectedGraph(n, []) for n in (1, 5, 30)]
                             + [cycle(n) for n in (2, 3, 64, 256)]
                             + [complete(n) for n in (3, 16, 256)],
                             ids=lambda g: f"n{g.n}-m{g.num_edges}")
    def test_matches_the_complex_kernel(self, g):
        # sf 32 seed 2 has angle pairs at pi; edgeless and complete graphs a
        # unit mode; odd and even horizons, up to one where any rounding of
        # the phase (T - 1) theta would show
        w = walk_for(g)
        args = ([m if isinstance(m, np.ndarray) else m.toarray() for m in (w.g, w.d)]
                + [w.sizes, g.n])
        real, ref = CesaroModes(*args), ComplexCesaroModes(*args)
        assert real.conditioned and ref.conditioned
        for horizon in (1, 2, 3, 7, 500, 1000, 10**9):
            assert rel_err(real.average(horizon), ref.average(horizon)) <= 1e-12

    @pytest.mark.parametrize("g", [DirectedGraph(n, []) for n in (1, 2, 5, 30)]
                             + [cycle(n) for n in (2, 3, 7, 64)]
                             + [complete(n) for n in (3, 8, 16)],
                             ids=lambda g: f"n{g.n}-m{g.num_edges}")
    def test_uniform_on_vertex_transitive_graphs(self, g):
        # edgeless graphs have a unit mode (D = J/n), folded rather than stepped
        for alpha in (0.5, 0.85):
            w = walk_for(g, alpha)
            assert w.modes is not None
            for horizon in HORIZONS:
                assert np.abs(w.average(horizon) - 1 / g.n).max() < 1e-14

    def test_matches_dense_simulator(self):
        rng = np.random.default_rng(41)
        for n in (3, 6, 12, 24):
            gm = google_from_graph(random_graph(rng, n), 0.85)
            assert SzegedyWalk(gm).modes is not None
            den = DenseWalk(gm)
            state, acc = den.initial_state(), np.zeros(n)
            for _ in range(50):
                acc += den.measure(state)
                state = den.step(den.step(state))
            assert np.abs(SzegedyWalk(gm).average(50) - acc / 50).max() < 1e-12

    @pytest.mark.parametrize("make, n, form, closed", [
        (cycle, DENSE_MAX_NODES, np.ndarray, True),
        (cycle, DENSE_MAX_NODES + 1, RankOnePlusSparse, True),
        (cycle, CLOSED_FORM_MAX_STATES, RankOnePlusSparse, True),
        (cycle, CLOSED_FORM_MAX_STATES + 1, RankOnePlusSparse, False),
        (complete, DENSE_MAX_NODES, np.ndarray, True),
        (complete, DENSE_MAX_NODES + 1, np.ndarray, True),
        (complete, CLOSED_FORM_MAX_STATES, np.ndarray, True),
        (complete, CLOSED_FORM_MAX_STATES + 1, np.ndarray, False),
    ], ids=["cycle-at", "cycle-above", "cycle-at-cap", "cycle-above-cap",
            "complete-at", "complete-above", "complete-at-cap", "complete-above-cap"])
    def test_form_and_engine_chosen_at_the_constant(self, make, n, form, closed):
        # the form changes above DENSE_MAX_NODES nodes: structured when sparse
        # (a cycle, twin-free) and dense otherwise; the engine above
        # CLOSED_FORM_MAX_STATES states, from the closed form to iteration
        w = walk_for(make(n))
        assert isinstance(w.g, form) and isinstance(w.d, form)
        assert (w.modes is not None) == closed

    @pytest.mark.parametrize("classes, closed", [(CLOSED_FORM_MAX_STATES, True),
                                                 (CLOSED_FORM_MAX_STATES + 1, False)],
                             ids=["q-at", "q-above"])
    def test_engine_chosen_by_the_class_count(self, classes, closed):
        # a structured G of 100 nodes more takes the closed form when its twin
        # classes number at most CLOSED_FORM_MAX_STATES
        g = leaves_on_cycle(classes - 1, 100)
        w = walk_for(g)
        assert isinstance(google_from_graph(g, 0.85).entries, RankOnePlusSparse)
        assert len(w.sizes) == classes
        assert (w.modes is not None) == closed

    def test_structured_form_takes_the_closed_form(self):
        # the engine follows the state count, not the form: a structured G
        # and D are densified for it
        w = SzegedyWalk(build_structured_google(cycle(8), 0.85))
        assert isinstance(w.d, RankOnePlusSparse) and w.modes is not None
        assert rel_err(w.average(1000), walk_for(cycle(8)).average(1000)) < 1e-14

    def test_memory_at_the_cap_stays_a_few_square_arrays(self):
        # a structured G of q = CLOSED_FORM_MAX_STATES twin classes: the
        # build densifies the reduced G and D and diagonalizes D, the average
        # evaluates two q x q ratio arrays and the two averaged products
        q = CLOSED_FORM_MAX_STATES
        gm = google_from_graph(leaves_on_cycle(q - 1, 100), 0.85)
        tracemalloc.start()
        try:
            w = SzegedyWalk(gm)
            w.average(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(w.sizes) == q and w.modes is not None
        assert peak < 12 * q * q * 8

    def test_modes_near_unit_iterate(self):
        # at alpha = 0.001 the top mode sits 1.6e-6 below 1, where the closed
        # form was 4x less accurate than the iteration
        g = gen_scale_free(16, seed=0)
        assert walk_for(g, 0.001).modes is None
        assert walk_for(g, 0.05).modes is not None

    @pytest.mark.parametrize("closed", [True, False], ids=["closed", "iterated"])
    def test_average_is_first_value_of_convergence_bit_for_bit(self, closed):
        for name in ("sf16", "er64", "hier2-6"):
            gm = google_from_graph(self.GRAPHS[name], 0.85)
            w = SzegedyWalk(gm) if closed else iterated(gm)
            assert (w.modes is not None) == closed
            for horizon in HORIZONS:
                assert np.array_equal(w.average(horizon), w.average_with_convergence(horizon)[0])

    def test_average_evaluates_one_kernel(self, monkeypatch):
        # one kernel is one evaluation of the ratios at the sums and the
        # differences of the angles (q = 16 <= FLAT_KERNEL_MAX_STATES); the
        # half-horizon gap's second is for average_with_convergence
        calls = []

        def counted(phi, horizon):
            calls.append(horizon)
            return dirichlet_ratio(phi, horizon)

        monkeypatch.setattr(walk, "dirichlet_ratio", counted)
        w = walk_for(self.GRAPHS["sf16"])
        w.average(1000)
        assert calls == [1000]
        w.average_with_convergence(1000)
        assert calls == [1000] * 2 + [500]

    @pytest.mark.parametrize("flat_max", [0, CLOSED_FORM_MAX_STATES], ids=["per-sign", "flat"])
    @pytest.mark.parametrize("horizon", [999, 1000])
    @pytest.mark.parametrize("graph", [gen_scale_free(16, seed=3), gen_scale_free(256, seed=2)],
                             ids=["q16", "q159"])
    def test_ratios_equal_the_per_sign_evaluations(self, graph, horizon, flat_max, monkeypatch):
        # both forms, whichever FLAT_KERNEL_MAX_STATES gives each size
        monkeypatch.setattr(walk, "FLAT_KERNEL_MAX_STATES", flat_max)
        modes = SzegedyWalk(google_from_graph(graph, 0.85)).modes
        q = len(modes.psi)
        assert q in (16, 159)
        k, l = np.triu_indices(q)
        at_sum = dirichlet_ratio(modes.psi[k] + modes.psi[l], horizon)
        at_diff = dirichlet_ratio(modes.psi[k] - modes.psi[l], horizon)
        expected = np.empty((2, q, q))
        expected[0, k, l] = expected[0, l, k] = at_sum + at_diff
        expected[1, k, l] = expected[1, l, k] = at_diff - at_sum
        assert modes._ratios(horizon).tobytes() == expected.tobytes()

    def test_cost_does_not_grow_with_horizon(self):
        # a loop over T, or a T x n array (128 GB here), would not finish
        avg = walk_for(gen_scale_free(16, seed=5)).average(10**9)
        assert abs(avg.sum() - 1.0) < 1e-12


class TestTwinClasses:
    """The walk on twin classes against the literal walk on the full,
    unreduced G."""

    # (n, seed): q twin classes and the engine the walk picks at alpha = 0.85
    GRAPHS = {
        "sf129": (129, 0),  # q = 70, closed form
        "sf176": (176, 0),  # q = 96, closed form
        "sf256-closed": (256, 3),  # q = 119, closed form
        "sf256-dense": (256, 1),  # q = 143, closed form on the densified D
        "sf512-dense": (512, 0),  # q = 258, dense iteration
        "sf512-structured": (512, 2),  # q = 301, structured iteration
    }

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 0.85, 0.98])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_average_matches_the_unreduced_walk(self, name, alpha):
        n, seed = self.GRAPHS[name]
        gm = google_from_graph(gen_scale_free(n, seed=seed), alpha)
        ref = ReducedWalk(gm).rows(1000).mean(axis=0)
        w = SzegedyWalk(gm)
        q = len(w.sizes)
        assert q < n
        assert (w.modes is not None) == (q <= CLOSED_FORM_MAX_STATES)
        assert isinstance(w.d, RankOnePlusSparse) == name.endswith("structured")
        # both engines on the reduced operators, whichever the walk picked
        dense = [m if isinstance(m, np.ndarray) else m.toarray() for m in (w.g, w.d)]
        closed = CesaroModes(*dense, w.sizes, n)
        assert closed.conditioned
        for avg in (w.average(1000), iterated(gm).average(1000),
                    closed.average(1000)[w.node_class]):
            assert rel_err(avg, ref) <= 1e-12
            assert ranking_order(avg) == ranking_order(ref)

    @pytest.mark.parametrize("name", ["sf256-closed", "sf256-dense", "sf512-structured"])
    def test_twins_get_bit_equal_values(self, name):
        n, seed = self.GRAPHS[name]
        g = gen_scale_free(n, seed=seed)
        w = walk_for(g)
        groups = twin_groups(g)
        assert len(groups) == len(w.sizes)
        avg, gap_avg = w.average(100), w.average_with_convergence(100)[0]
        traj = w.trajectory(5)
        for nodes in groups:
            assert len(set(w.node_class[nodes])) == 1
            for values in (avg, gap_avg, traj.T):
                assert all(np.array_equal(values[v], values[nodes[0]]) for v in nodes)

    def test_near_twins_stay_apart_and_self_loop_twins_merge(self):
        edges = [
            (1, 0), (2, 0), (7, 1),  # 1, 2: the same out-list, other in-lists
            (0, 3), (0, 4), (3, 7),  # 3, 4: the same in-list, other out-lists
            (5, 5), (5, 6), (6, 5), (6, 6), (5, 0), (6, 0),  # 5, 6: twins by their loops
            (8, 9), (9, 8), (8, 0), (9, 0),  # 8, 9: mutual but loop-free, so apart
        ]
        g = DirectedGraph(10, edges, allow_self_loops=True)
        gm = build_structured_google(g, 0.85)
        w = SzegedyWalk(gm)
        classes = [int(c) for c in w.node_class]
        assert classes[5] == classes[6]
        assert len(set(classes)) == 9 == len(twin_groups(g))
        ref = ReducedWalk(gm).rows(1000).mean(axis=0)
        assert rel_err(w.average(1000), ref) <= 1e-12

    @pytest.mark.parametrize("g", [cycle(300), gen_erdos_renyi(300, 0.01, seed=0)],
                             ids=["cycle", "er"])
    def test_twin_free_graph_keeps_its_operators(self, g):
        gm = google_from_graph(g, 0.85)
        assert isinstance(gm.entries, RankOnePlusSparse)
        assert walk.twin_classes(gm.entries) is None
        w = SzegedyWalk(gm)
        assert w.g is gm.entries
        d = gm.overlap()
        assert all(np.array_equal(getattr(w.d, f), getattr(d, f))
                   for f in ("u", "v", "rows", "cols", "vals"))
        assert np.array_equal(w.trajectory(20), ReducedWalk(gm).rows(20))

    def test_hash_collision_leaves_the_graph_unreduced(self, monkeypatch):
        # all nodes hashing alike form one class, which the exact check rejects
        monkeypatch.setattr(walk, "_node_hashes", lambda count: np.zeros(count, np.uint64))
        gm = google_from_graph(gen_scale_free(256, seed=1), 0.85)
        assert walk.twin_classes(gm.entries) is None
        w = SzegedyWalk(gm)
        assert len(w.sizes) == 256 and isinstance(w.d, RankOnePlusSparse)

    def test_unequal_link_weights_are_not_lumped(self):
        # 1 and 2 have the same neighbour sets, but 0 sends them 30% and 70%
        # of its links, so their rows of G differ
        n, alpha = 4, 0.85
        hop, dangling = (1 - alpha) / n, alpha / n + (1 - alpha) / n
        e = RankOnePlusSparse(np.ones(n), np.array([hop, dangling, dangling, dangling]),
                              np.array([1, 2]), np.array([0, 0]), alpha * np.array([0.3, 0.7]))
        gm = GoogleMatrix(n, alpha, e)
        assert walk.twin_classes(e) is None
        ref = ReducedWalk(gm).rows(50).mean(axis=0)
        assert rel_err(SzegedyWalk(gm).average(50), ref) <= 1e-12

    @pytest.mark.parametrize("name", ["sf256-closed", "sf256-dense", "sf512-structured"])
    def test_trajectory_and_norm_match_the_oracle(self, name):
        n, seed = self.GRAPHS[name]
        gm = google_from_graph(gen_scale_free(n, seed=seed), 0.85)
        w, oracle = SzegedyWalk(gm), ReducedWalk(gm)
        horizon = 50
        assert rel_err(w.trajectory(horizon), oracle.rows(horizon)) <= 1e-12
        state = oracle.initial_state()
        for _ in range(2 * (horizon - 1)):
            state = oracle.step(state)
        *_, (_, mid, after) = w._double_steps(horizon)
        assert abs(w.norm_sq(-mid, after) - oracle.norm_sq(*state)) <= 1e-12
        assert abs(w.norm_sq(-mid, after) - 1.0) <= 1e-12

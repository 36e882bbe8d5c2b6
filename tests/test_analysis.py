import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprank import (
    ConvergenceError,
    DirectedGraph,
    GeneratorSpec,
    GoogleMatrix,
    gen_hierarchical_outerplanar,
    gen_hierarchical_ternary,
    IprSample,
    ParameterError,
    SzegedyWalk,
    attack_experiment,
    classical_pagerank,
    coarse_alpha_grid,
    degeneracy_resolution,
    ensemble_run,
    gen_scale_free,
    importance_vector,
    ipr,
    ipr_scaling,
    kendall_coefficient,
    power_law_fit,
    remove_node,
)
from qprank.analysis import (
    _KENDALL_PAIRS_MAX,
    MODES,
    TIE_RTOL,
    attack_metrics,
    node_ranks,
    pairwise_stability,
    powerlaw_metrics,
    ranking_order,
    tie_classes,
)
from qprank.google import RankOnePlusSparse, build_structured_google

from conftest import classical_fidelity, complete, cycle, lexsort_order, qpr_distance


def normalized_vectors(min_size=2, max_size=12):
    return (
        st.lists(st.floats(0.001, 1.0), min_size=min_size, max_size=max_size)
        .map(lambda vals: np.array(vals) / np.sum(vals))
    )


class TestRankList:
    def test_sorted_descending_with_id_tiebreak(self):
        assert ranking_order(np.array([0.2, 0.5, 0.2, 0.1])) == [1, 0, 2, 3]

    def test_node_ranks_inverse(self):
        p = np.array([0.1, 0.4, 0.3, 0.2])
        assert list(node_ranks(p)) == [4, 1, 2, 3]


def relabelled(g, perm):
    """g with node i renamed perm[i]."""
    return DirectedGraph(g.n, perm[np.column_stack([g.src, g.dst])])


def quantum_orders(g, horizon):
    """Quantum ranking_order of g and of each hub-removed descendant down to
    two nodes, the top node removed each time."""
    orders = []
    while g.n > 1:
        order = ranking_order(importance_vector(g, "quantum", horizon=horizon))
        orders.append(order)
        g = remove_node(g, order[0])
    return orders


def without_closed_form(monkeypatch):
    """Make every SzegedyWalk iterate, as test_walk.iterated does for one."""
    init = SzegedyWalk.__init__

    def iterating_init(self, gm):
        init(self, gm)
        self.modes = None

    monkeypatch.setattr(SzegedyWalk, "__init__", iterating_init)


class TestTieRule:
    def test_classes_split_above_the_relative_tolerance(self):
        p = np.array([0.5, 0.5 * (1 + 2 * TIE_RTOL), 1.0 - TIE_RTOL / 2, 1.0])
        assert list(tie_classes(p)) == [2, 1, 0, 0]
        assert ranking_order(p) == [2, 3, 1, 0]

    @pytest.mark.parametrize("n", [0, 1, 2, 16, 300])
    def test_order_equals_the_lexsort_oracle(self, n):
        # exact ties, and chains of near-ties just inside and just outside
        # TIE_RTOL of one base value, on either side of it
        rng = np.random.default_rng(n)
        steps = np.array([-2.0, -1.001, -0.999, -0.5, 0.0, 0.5, 0.999, 1.001, 2.0]) * TIE_RTOL
        for _ in range(40):
            p = rng.random(n)
            for _ in range(min(n, 3)):
                at = rng.choice(n, size=min(n, len(steps)), replace=False)
                p[at] = p[at[0]] * (1.0 + rng.choice(steps, size=len(at)))
            assert ranking_order(p) == lexsort_order(p)

    def test_rounding_noise_ties_but_node_ranks_stay_exact(self):
        p = np.array([0.3, np.nextafter(0.3, 1.0), 0.4])
        assert ranking_order(p) == [2, 0, 1]
        # node_ranks follows the exact values that rank writes beside it
        assert list(node_ranks(p)) == [3, 2, 1]

    @pytest.mark.parametrize("g", [cycle(5), cycle(16), complete(4), complete(9),
                                   gen_hierarchical_ternary(2), gen_hierarchical_ternary(3),
                                   gen_hierarchical_ternary(4)],
                             ids=["cycle5", "cycle16", "complete4", "complete9",
                                  "hier3-2", "hier3-3", "hier3-4"])
    def test_relabelling_permutes_the_ranking(self, g):
        perm = np.random.default_rng(g.n).permutation(g.n)
        moved = relabelled(g, perm)
        for mode in MODES:
            classes = tie_classes(importance_vector(g, mode))
            # the same classes in the same order, each listed by its new ids
            expected = perm[np.lexsort((perm, classes))].tolist()
            assert ranking_order(importance_vector(moved, mode)) == expected

    @pytest.mark.parametrize("n", [16, 32])
    def test_rankings_do_not_depend_on_the_walk_engine(self, n, monkeypatch):
        # exact value order differs between the engines on about 37% of these
        # graphs; the horizon is short to keep the iteration cheap
        graphs = [gen_scale_free(n, seed=seed) for seed in range(50)]
        closed_form = [quantum_orders(g, 50) for g in graphs]
        without_closed_form(monkeypatch)
        assert [quantum_orders(g, 50) for g in graphs] == closed_form

    def test_rankings_do_not_depend_on_the_matrix_form(self):
        # the exact-value ranks (node_ranks) of these builds differ at 17-20
        # classical and up to 2 quantum nodes per n = 400 graph
        for n, seed in [(400, 0), (400, 1), (400, 2), (256, 0)]:
            structured = build_structured_google(gen_scale_free(n, seed=seed), 0.85)
            dense = GoogleMatrix(n, 0.85, structured.entries.toarray())
            for rank in (classical_pagerank, lambda gm: SzegedyWalk(gm).average(1000)):
                assert ranking_order(rank(structured)) == ranking_order(rank(dense))

    def test_attack_runs_do_not_depend_on_the_walk_engine(self, monkeypatch):
        graphs = [gen_scale_free(n, seed=seed) for n in (16, 32) for seed in range(3)]
        closed_form = [attack_experiment(g, 5) for g in graphs]
        without_closed_form(monkeypatch)
        assert [attack_experiment(g, 5) for g in graphs] == closed_form


class TestIpr:
    def test_point_mass(self):
        p = np.zeros(10)
        p[3] = 1.0
        for r in (1, 2, 3):
            assert ipr(p, r).xi == 1.0

    def test_uniform_r1(self):
        assert ipr(np.full(8, 1 / 8), 1).xi == 1 / 8

    def test_half_half_r2(self):
        assert ipr(np.array([0.5, 0.5]), 2).xi == 0.125

    def test_requires_normalization(self):
        with pytest.raises(ParameterError):
            ipr(np.array([0.5, 0.2]))

    def test_requires_positive_integer_r(self):
        with pytest.raises(ParameterError):
            ipr(np.array([0.5, 0.5]), 0)

    def test_underflow_names_r_and_n(self):
        # every 0.25**800 is below the smallest subnormal double
        with pytest.raises(ParameterError, match="r=400 .* n=4"):
            ipr(np.full(4, 0.25), 400)

    @settings(max_examples=60, deadline=None)
    @given(normalized_vectors(), st.integers(1, 3))
    def test_bounds_attained_by_limit_cases(self, p, r):
        xi = ipr(p, r).xi
        n = len(p)
        assert n ** (1 - 2 * r) - 1e-12 <= xi <= 1.0 + 1e-12


class TestIprScaling:
    def test_flat_is_localized(self):
        samples = [IprSample(n, 1.0) for n in (32, 64, 128)]
        fit = ipr_scaling(samples)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.label == "localized"

    def test_inverse_n_is_delocalized(self):
        samples = [IprSample(n, 1.0 / n) for n in (32, 64, 128)]
        fit = ipr_scaling(samples)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.label == "delocalized"

    def test_needs_two_sizes(self):
        with pytest.raises(ParameterError):
            ipr_scaling([IprSample(32, 0.5), IprSample(32, 0.4)])


class TestFidelityAndDistance:
    def test_self_fidelity_is_one(self):
        p = np.array([0.3, 0.25, 0.45])
        assert classical_fidelity(p, p) == pytest.approx(1.0, abs=1e-14)

    def test_disjoint_supports(self):
        assert classical_fidelity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        f = classical_fidelity(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
        assert f == pytest.approx(0.8944271909999159, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            classical_fidelity(np.array([1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            qpr_distance(np.array([1.0]), np.array([0.5, 0.5]))

    def test_distance_values(self):
        assert qpr_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
        assert qpr_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert qpr_distance(np.array([0.6, 0.4]), np.array([0.5, 0.5])) == pytest.approx(0.1)

    @settings(max_examples=60, deadline=None)
    @given(normalized_vectors(min_size=4, max_size=4), normalized_vectors(min_size=4, max_size=4))
    def test_fidelity_symmetric_and_bounded(self, p, q):
        assert classical_fidelity(p, q) == pytest.approx(classical_fidelity(q, p), abs=1e-14)
        assert classical_fidelity(p, q) <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        normalized_vectors(min_size=5, max_size=5),
        normalized_vectors(min_size=5, max_size=5),
        normalized_vectors(min_size=5, max_size=5),
    )
    def test_distance_is_a_metric(self, p, q, s):
        assert qpr_distance(p, q) == qpr_distance(q, p)
        assert qpr_distance(p, p) == 0.0
        assert qpr_distance(p, s) <= qpr_distance(p, q) + qpr_distance(q, s) + 1e-14


def ranked_grid(g, alphas, mode, **kwargs):
    """The stability grid as ``stability`` builds it: one ranking per damping value."""
    vectors = [importance_vector(g, mode, alpha=a, **kwargs) for a in alphas]
    return pairwise_stability(vectors)


class TestStabilityGrid:
    def test_diagonals(self):
        grid = ranked_grid(cycle(4), [0.2, 0.5, 0.8], "quantum", horizon=50)
        assert np.abs(np.diag(grid.fidelity) - 1.0).max() < 1e-12
        assert np.abs(np.diag(grid.distance)).max() == 0.0

    def test_cycle_fidelity_is_one_everywhere(self):
        grid = ranked_grid(cycle(3), [0.1, 0.5, 0.9], "classical", horizon=50)
        assert np.abs(grid.fidelity - 1.0).max() < 1e-10

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            ranked_grid(cycle(3), [0.5, 1.2], "classical")

    @pytest.mark.parametrize("n", [1, 7, 129, 1000])
    def test_grid_is_the_pairwise_functions_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        vectors = list(rng.dirichlet(np.ones(n), size=6))
        grid = pairwise_stability(vectors)
        for i, p in enumerate(vectors):
            for j, q in enumerate(vectors):
                assert grid.fidelity[i, j] == classical_fidelity(p, q)
                assert grid.distance[i, j] == qpr_distance(p, q)
        # computed for i <= j only and mirrored
        assert np.array_equal(grid.fidelity, grid.fidelity.T)
        assert np.array_equal(grid.distance, grid.distance.T)

    def test_coarse_grid_span(self):
        grid = coarse_alpha_grid()
        assert len(grid) == 20
        assert grid[0] == 0.01 and grid[-1] == 0.98


class TestPowerLawFit:
    def test_exact_synthetic_power_law(self):
        values = [0.1 * i ** (-0.9) for i in range(1, 40)]
        fit = power_law_fit(values, i_max=39)
        assert fit.beta == pytest.approx(0.9, abs=1e-12)
        assert fit.c == pytest.approx(0.1, abs=1e-12)
        assert fit.residual < 1e-12

    def test_constant_list_fits_flat(self):
        fit = power_law_fit([0.125] * 8)
        assert fit.beta == pytest.approx(0.0, abs=1e-12)
        assert fit.c == pytest.approx(0.125, rel=1e-12)

    def test_default_range_excludes_degenerate_tail(self):
        values = [0.4, 0.2, 0.1] + [0.05] * 5
        fit = power_law_fit(values)
        assert fit.i_max == 3

    def test_default_range_ends_before_the_last_tie_class(self):
        values = [0.4, 0.2, 0.1, 0.05 * (1 + 3e-10)] + [0.05 * (1 + k * 4e-11) for k in (2, 1, 0)]
        fit = power_law_fit(values)
        assert fit.i_max == 4

    def test_one_entry_before_the_tail_fits_the_whole_list(self):
        # a star's ranking: the hub, then one tie class of leaves
        values = [0.4] + [0.12] * 5
        fit = power_law_fit(values)
        assert fit.i_max == 6
        assert fit.beta == pytest.approx(np.log(0.4 / 0.12) * np.log(720) / (
            6 * np.sum(np.log(np.arange(1, 7)) ** 2) - np.log(720) ** 2), rel=1e-12)

    def test_rescaling_changes_only_prefactor(self):
        values = [0.2 * i ** (-0.7) * (1 + 0.01 * ((i * 7) % 3)) for i in range(1, 30)]
        base = power_law_fit(values, i_max=29)
        scaled = power_law_fit([3.0 * v for v in values], i_max=29)
        assert scaled.beta == pytest.approx(base.beta, abs=1e-12)
        assert scaled.c == pytest.approx(3.0 * base.c, rel=1e-10)
        assert scaled.residual == pytest.approx(base.residual, abs=1e-12)

    def test_nonpositive_importance_rejected(self):
        with pytest.raises(ParameterError):
            power_law_fit([0.5, 0.0], i_max=2)

    def test_bad_range_rejected(self):
        values = [0.5 / (i + 1) for i in range(5)]
        with pytest.raises(ParameterError):
            power_law_fit(values, i_max=9)


def brute_force_kendall(order_a, order_b):
    pos_b = {e: i for i, e in enumerate(order_b)}
    k = len(order_a)
    concordant = total = 0
    for i in range(k):
        for j in range(i + 1, k):
            total += 1
            if pos_b[order_a[i]] < pos_b[order_a[j]]:
                concordant += 1
    return concordant / total if total else 1.0


def row_loop_kendall(order_a, order_b):
    """The concordant-pair count of one numpy pass per element: the oracle
    for the blocked count of kendall_coefficient."""
    pos_b = {e: i for i, e in enumerate(order_b)}
    rb = np.array([pos_b[e] for e in order_a], dtype=np.int64)
    k = len(rb)
    concordant = 0
    for i in range(k - 1):
        concordant += int((rb[i + 1 :] > rb[i]).sum())
    return concordant / (k * (k - 1) / 2)


class TestKendall:
    def test_identical_orders(self):
        assert kendall_coefficient([3, 1, 4, 0, 2], [3, 1, 4, 0, 2]) == 1.0

    def test_reversed_orders(self):
        assert kendall_coefficient([0, 1, 2, 3], [3, 2, 1, 0]) == 0.0

    def test_single_swap(self):
        assert kendall_coefficient([1, 2, 3], [1, 3, 2]) == pytest.approx(2 / 3)

    def test_element_mismatch(self):
        with pytest.raises(ParameterError):
            kendall_coefficient([0, 1, 2], [0, 1, 3])

    def test_duplicates_rejected(self):
        with pytest.raises(ParameterError):
            kendall_coefficient([0, 1, 1], [0, 1, 2])

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(7))), st.permutations(list(range(7))))
    def test_matches_brute_force_and_reversal_identity(self, a, b):
        k = kendall_coefficient(a, b)
        assert k == pytest.approx(brute_force_kendall(a, b), abs=1e-14)
        assert k == pytest.approx(1.0 - kendall_coefficient(a, list(reversed(b))), abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 300), st.integers(0, 2**32 - 1))
    def test_equals_row_loop(self, k, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.permutation(k).tolist(), rng.permutation(k).tolist()
        assert kendall_coefficient(a, b) == row_loop_kendall(a, b)

    def test_equals_row_loop_across_blocks(self):
        rng = np.random.default_rng(3)
        a, b = rng.permutation(3000).tolist(), rng.permutation(3000).tolist()
        assert kendall_coefficient(a, b) == row_loop_kendall(a, b)

    def test_string_elements(self):
        a, b = ["x", "y", "z", "w"], ["y", "x", "z", "w"]
        assert kendall_coefficient(a, b) == row_loop_kendall(a, b) == 5 / 6

    def test_pairs_form_equals_row_loop_across_its_boundary(self):
        rng = np.random.default_rng(5)
        for k in range(2, _KENDALL_PAIRS_MAX + 9):
            a, b = rng.permutation(k).tolist(), rng.permutation(k).tolist()
            assert kendall_coefficient(a, b) == row_loop_kendall(a, b)
            assert kendall_coefficient(a, a) == 1.0 and kendall_coefficient(a, a[::-1]) == 0.0

    @pytest.mark.parametrize("k", [3, _KENDALL_PAIRS_MAX])
    def test_pairs_form_strings_and_errors(self, k):
        rng = np.random.default_rng(k)
        a = [f"node{i}" for i in rng.permutation(k)]
        b = [f"node{i}" for i in rng.permutation(k)]
        assert kendall_coefficient(a, b) == row_loop_kendall(a, b)
        with pytest.raises(ParameterError, match="duplicates"):
            kendall_coefficient(a[:-1] + a[:1], b)
        with pytest.raises(ParameterError, match="same element set"):
            kendall_coefficient(a[:-1] + ["other"], b)

    def test_memory_bounded_in_blocks(self):
        # one unblocked k x k comparison would take k**2 bytes, 400 MB here
        rng = np.random.default_rng(0)
        a, b = rng.permutation(20000).tolist(), rng.permutation(20000).tolist()
        tracemalloc.start()
        try:
            kendall_coefficient(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestAttack:
    def test_order_preserving_graph_scores_one(self):
        # Transitive tournament: every removal leaves another transitive
        # tournament, so the surviving order never changes.
        n = 6
        g = DirectedGraph(n, frozenset((j, i) for j in range(n) for i in range(j)))
        p = importance_vector(g, "classical")
        assert np.all(np.diff(p) < 0)
        run = attack_experiment(g, 3, mode="classical")
        assert run.kendall == (1.0, 1.0, 1.0)
        assert run.removed == (0, 1, 2)

    def test_three_cycle_single_removal_is_binary(self):
        run = attack_experiment(cycle(3), 1, mode="classical")
        assert run.kendall[0] in (0.0, 1.0)

    def test_removal_count_validation(self):
        with pytest.raises(ParameterError):
            attack_experiment(cycle(3), 3, mode="classical")

    def test_tracks_original_ids(self):
        n = 6
        g = DirectedGraph(n, frozenset((j, i) for j in range(n) for i in range(j)))
        run = attack_experiment(g, 4, mode="classical")
        assert len(set(run.removed)) == 4
        assert all(0 <= v < n for v in run.removed)

    def test_small_rounds_build_no_structure_and_no_triangle_mask(self, monkeypatch):
        # A guard that reads no clock: ranking and attacking a 16-node graph
        # fill its dense G in place and compare through cached index pairs,
        # so they construct no structured matrix and no k x k triangle mask.
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(RankOnePlusSparse, "__init__",
                            counted("RankOnePlusSparse", RankOnePlusSparse.__init__))
        monkeypatch.setattr(np, "triu", counted("triu", np.triu))
        monkeypatch.setattr(np, "tri", counted("tri", np.tri))
        g = gen_scale_free(16, seed=3)
        for mode in MODES:
            assert len(ranking_order(importance_vector(g, mode))) == 16
            assert len(attack_experiment(g, 5, mode=mode).kendall) == 5
        assert calls == []
        # the counters see the calls they guard against
        kendall_coefficient(range(_KENDALL_PAIRS_MAX + 1), range(_KENDALL_PAIRS_MAX + 1))
        build_structured_google(g, 0.85)
        assert set(calls) == {"triu", "RankOnePlusSparse"}

    def test_metrics_dict_shape(self):
        g = DirectedGraph(6, frozenset((j, i) for j in range(6) for i in range(j)))
        metrics = attack_metrics(g, 2, modes=("classical",), horizon=20)
        assert set(metrics) == {"kendall_classical_1", "kendall_classical_2"}


class TestEnsemble:
    def test_single_run_mean_no_spread(self):
        spec = GeneratorSpec(family="er", n=12, p=0.3, seed=5)
        report = ensemble_run(spec, 1, lambda g: {"edges": float(g.num_edges)})
        assert report.stds == {"edges": 0.0}
        assert report.failures == 0

    def test_identical_graphs_have_zero_stddev(self):
        spec = GeneratorSpec(family="hier3", n=9, seed=0)
        report = ensemble_run(spec, 5, lambda g: {"edges": float(g.num_edges)})
        assert report.stds["edges"] == 0.0

    def test_failures_excluded_and_counted(self):
        spec = GeneratorSpec(family="er", n=10, p=0.5, seed=0)

        def flaky(g):
            if g.num_edges % 2 == 1:
                raise ConvergenceError("odd edge count", residual=1.0)
            return {"edges": float(g.num_edges)}

        report = ensemble_run(spec, 6, flaky)
        assert report.failures >= 1
        assert len(report.failure_messages) == report.failures
        assert all("seed" in msg for msg in report.failure_messages)

    def test_every_run_failing_is_a_parameter_error(self):
        def diverges(g):
            raise ConvergenceError("never settles", residual=1.0)

        with pytest.raises(ParameterError, match="all 3 ensemble runs failed; first: seed 4: "
                                                 "never settles"):
            ensemble_run(GeneratorSpec(family="er", n=5, seed=4), 3, diverges)

    def test_count_validation(self):
        with pytest.raises(ParameterError):
            ensemble_run(GeneratorSpec(family="er", n=5), 0, lambda g: {})

    def test_programming_errors_propagate(self):
        def broken(g):
            raise TypeError("not a per-seed failure")

        with pytest.raises(TypeError):
            ensemble_run(GeneratorSpec(family="er", n=5, seed=0), 3, broken)

    def test_powerlaw_metrics_keys(self):
        spec = GeneratorSpec(family="sf", n=32, seed=3)
        report = ensemble_run(
            spec, 2, lambda g: powerlaw_metrics(g, modes=("classical",), horizon=50)
        )
        assert {"beta_classical", "c_classical", "residual_classical"} <= set(report.means)


class TestHierarchyPreservation:
    def test_both_rankings_agree_on_the_top_node(self):
        for g in (gen_hierarchical_ternary(2), gen_hierarchical_ternary(3),
                  gen_hierarchical_outerplanar(4)):
            classical = ranking_order(importance_vector(g, "classical"))[0]
            quantum = ranking_order(importance_vector(g, "quantum", horizon=500))[0]
            assert classical == quantum

    def test_ternary_root_ranks_first(self):
        g = gen_hierarchical_ternary(3)
        for mode in ("classical", "quantum"):
            order = ranking_order(importance_vector(g, mode, horizon=500))
            assert order[0] == 0


class TestDegeneracyResolution:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 40])
    def test_is_the_distinct_classes_of_the_low_half(self, n):
        rng = np.random.default_rng(n)
        p = rng.integers(1, 4, n) / 7  # ties among few values
        low = sorted(tie_classes(p))[n - n // 2:]
        assert degeneracy_resolution(p) == len(set(low))

    def test_counts_distinct_bottom_values(self):
        p = np.array([0.4, 0.3, 0.1, 0.1, 0.05, 0.05])
        # bottom half: (0.1, 0.05, 0.05) -> 2 tie classes
        assert degeneracy_resolution(p) == 2

    def test_classes_are_relative(self):
        # bottom half: 3e-10 twice up to rounding, then 1e-10 -> 2 classes,
        # where absolute 1e-9 bins lumped all three into one
        p = np.array([0.6, 0.4 - 1e-9, 1e-10, 3e-10, 3e-10 * (1 + 1e-13), 6e-10])
        assert degeneracy_resolution(p) == 2

    def test_fine_differences_resolved(self):
        p = np.array([0.5, 0.25, 0.125, 0.125 - 2e-9])
        p = p / p.sum()
        assert degeneracy_resolution(p) == 2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprank import (
    ConvergenceError,
    DirectedGraph,
    GoogleMatrix,
    ParameterError,
    classical_pagerank,
    gen_erdos_renyi,
    gen_hierarchical_ternary,
    gen_scale_free,
    google,
    google_from_graph,
    load_edge_list,
    ranking_order,
)
from qprank.google import (
    DEFAULT_TOL,
    DENSE_MAX_NODES,
    STRUCTURED_MAX_DENSITY,
    RankOnePlusSparse,
    build_structured_google,
)

from conftest import (
    complete,
    cycle,
    dense_google,
    operator_graphs,
    patched_connectivity,
    rel_err,
    small_digraphs,
)

TWO_NODE = DirectedGraph(2, frozenset({(0, 1)}))
# Hand-solved fixed point of the damped 2-node chain at alpha = 0.85:
# I1 = 1.85 I0 and I0 + I1 = 1.
TWO_NODE_PR = np.array([1.0, 1.85]) / 2.85
EPS = np.finfo(np.float64).eps


class TestPatchedConnectivity:
    """The link matrix of the tests' dense oracle, against hand values."""

    def test_dangling_column_patched_to_uniform(self):
        e = patched_connectivity(TWO_NODE)
        assert np.allclose(e[:, 0], [0.0, 1.0])
        assert np.allclose(e[:, 1], [0.5, 0.5])

    def test_cycle_is_permutation_matrix(self):
        e = patched_connectivity(cycle(3))
        perm = np.zeros((3, 3))
        for i in range(3):
            perm[(i + 1) % 3, i] = 1.0
        assert np.array_equal(e, perm)

    def test_edgeless_graph_all_uniform(self):
        e = patched_connectivity(DirectedGraph(2, frozenset()))
        assert np.allclose(e, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(small_digraphs())
    def test_columns_stochastic(self, g):
        e = patched_connectivity(g)
        assert np.abs(e.sum(axis=0) - 1.0).max() < 1e-12


class TestBuildGoogle:
    def test_two_node_hand_values(self):
        gm = google_from_graph(TWO_NODE, 0.85)
        assert np.allclose(gm.entries[:, 0], [0.075, 0.925])
        assert np.allclose(gm.entries[:, 1], [0.5, 0.5])

    def test_edgeless_half_alpha(self):
        gm = google_from_graph(DirectedGraph(2, frozenset()), 0.5)
        assert np.allclose(gm.entries, 0.5)

    def test_stochasticity_preserved(self):
        for alpha in (0.05, 0.5, 0.95):
            gm = google_from_graph(cycle(3), alpha)
            assert np.abs(gm.entries.sum(axis=0) - 1.0).max() < 1e-12

    def test_alpha_range_enforced(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            for g in (cycle(3), cycle(DENSE_MAX_NODES + 1)):
                with pytest.raises(ParameterError):
                    google_from_graph(g, alpha)

    def test_hopping_floor(self):
        gm = google_from_graph(gen_scale_free(50, seed=1), 0.85)
        assert gm.entries.min() >= (1 - 0.85) / 50 - 1e-15

    def test_no_zero_columns_after_patch(self):
        g = gen_scale_free(64, seed=4)
        dangling = g.out_degrees() == 0
        assert dangling.any()
        entries = google_from_graph(g, 0.85).entries
        assert np.abs(entries[:, dangling] - 1 / 64).max() < 1e-16
        assert (entries.max(axis=0) > 0).all()

    @pytest.mark.parametrize("alpha", [0.01, 0.85, 0.98])
    def test_dense_fill_equals_the_densified_structure_bit_for_bit(self, alpha):
        graphs = [
            gen_scale_free(40, seed=1),
            gen_erdos_renyi(30, 0.125, seed=2),
            gen_hierarchical_ternary(3),
            TWO_NODE,  # node 1 dangles
            load_edge_list("0 0\n0 1\n1 1\n2 0\n2 3\n"),  # self-loops; node 3 dangles
            DirectedGraph(1, frozenset()),
            DirectedGraph(5, frozenset()),
        ]
        for g in graphs:
            entries = google_from_graph(g, alpha).entries
            oracle = build_structured_google(g, alpha).toarray()  # outer(1, c) + S
            assert isinstance(entries, np.ndarray)
            assert entries.tobytes() == oracle.tobytes()

    def test_no_nodes_rejected(self):
        # the CLI maps this to exit 2 (test_cli's empty-graph case)
        with pytest.raises(ParameterError, match="at least one node"):
            google_from_graph(DirectedGraph(0, frozenset()), 0.85)


class TestClassicalPagerank:
    def test_cycle_uniform_any_alpha(self):
        for alpha in (0.1, 0.5, 0.85, 0.98):
            pr = classical_pagerank(google_from_graph(cycle(3), alpha))
            assert np.abs(pr - 1 / 3).max() < 1e-10

    def test_two_node_hand_value(self):
        pr = classical_pagerank(google_from_graph(TWO_NODE, 0.85))
        assert np.abs(pr - TWO_NODE_PR).max() < 1e-12

    def test_complete_digraph_uniform(self):
        pr = classical_pagerank(google_from_graph(complete(5), 0.85))
        assert np.abs(pr - 0.2).max() < 1e-10

    def test_residual_and_normalization_on_generated_graphs(self):
        graphs = [
            gen_scale_free(48, seed=0),
            gen_erdos_renyi(48, 0.1, seed=1),
            gen_hierarchical_ternary(3),
        ]
        for g in graphs:
            for alpha in (0.01, 0.5, 0.85, 0.98):
                gm = google_from_graph(g, alpha)
                pr = classical_pagerank(gm)
                assert np.abs(gm.entries @ pr - pr).sum() <= 1e-12
                assert abs(pr.sum() - 1.0) < 1e-10
                assert pr.min() >= 0.0

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        # only the power iteration can stall: the graph must take the
        # structured form, as a sparse graph above DENSE_MAX_NODES does
        monkeypatch.setattr(google, "DEFAULT_MAX_ITER", 2)
        gm = google_from_graph(gen_scale_free(2 * DENSE_MAX_NODES, seed=3), 0.85)
        assert isinstance(gm.entries, RankOnePlusSparse)
        with pytest.raises(ConvergenceError, match="after 2 sweeps") as err:
            classical_pagerank(gm)
        assert err.value.residual > google.DEFAULT_TOL

    @pytest.mark.parametrize("g", [
        gen_scale_free(11, seed=0), gen_scale_free(16, seed=1), gen_scale_free(60, seed=2),
        gen_scale_free(DENSE_MAX_NODES, seed=3), gen_erdos_renyi(11, 0.3, seed=0),
        gen_erdos_renyi(16, 0.125, seed=1), gen_erdos_renyi(60, 0.125, seed=2),
        gen_erdos_renyi(DENSE_MAX_NODES, 0.125, seed=3),
    ], ids=lambda g: f"n{g.n}-m{g.num_edges}")
    def test_solve_matches_power_iteration(self, g):
        # the power iteration, reached through the structured form, is the
        # oracle of the dense form's solve
        for alpha in (0.01, 0.5, 0.85, 0.98):
            gm = google_from_graph(g, alpha)
            assert isinstance(gm.entries, np.ndarray)
            solved = classical_pagerank(gm)
            iterated = classical_pagerank(build_structured_google(g, alpha))
            assert np.array_equal(ranking_order(solved), ranking_order(iterated))
            assert np.abs(solved - iterated).sum() <= DEFAULT_TOL / (1.0 - alpha)
            assert np.abs(gm.entries @ solved - solved).sum() <= g.n * EPS

    def test_solve_near_unit_damping(self):
        # at alpha = 1 - 1e-7 I - alpha P is within 1e-7 of singular, and the
        # power iteration needs far more than DEFAULT_MAX_ITER sweeps; the
        # solve still gives a distribution that G maps to itself
        alpha = 1.0 - 1e-7
        for g in (gen_scale_free(16, seed=0), gen_erdos_renyi(DENSE_MAX_NODES, 0.125, seed=0)):
            gm = google_from_graph(g, alpha)
            pr = classical_pagerank(gm)
            assert np.abs(gm.entries @ pr - pr).sum() <= g.n * EPS
            assert abs(pr.sum() - 1.0) <= g.n * EPS
            assert pr.min() > 0.0

    def test_matches_repeated_squaring_oracle(self):
        # G^(2^k) columns converge to the stationary vector; independent of
        # the power-iteration path.
        rng = np.random.default_rng(7)
        for _ in range(6):
            n = int(rng.integers(2, 7))
            edges = {
                (int(i), int(j)) for i in range(n) for j in range(n) if i != j and rng.random() < 0.4
            }
            g = DirectedGraph(n, frozenset(edges))
            for alpha in (0.3, 0.85):
                gm = google_from_graph(g, alpha)
                m = gm.entries.copy()
                for _ in range(8):
                    m = m @ m
                    m /= m.sum(axis=0, keepdims=True)
                oracle = m[:, 0]
                pr = classical_pagerank(gm)
                assert np.abs(pr - oracle).max() < 1e-8


class TestStructuredGoogle:
    """The structured form against the dense build, which is the reference."""

    @pytest.mark.parametrize("name", sorted(operator_graphs()))
    def test_matches_dense_build(self, name):
        g = operator_graphs()[name]
        for alpha in (0.3, 0.85):
            dense = dense_google(g, alpha)
            structured = build_structured_google(g, alpha)
            assert np.array_equal(structured.toarray(), dense.entries)
            assert np.array_equal(google_from_graph(g, alpha).toarray(), dense.entries)
            x = np.random.default_rng(0).normal(size=g.n)
            assert rel_err(structured.entries @ x, dense.entries @ x) < 1e-13
            # the dense G of a graph up to DENSE_MAX_NODES is solved, the
            # structured one iterated: both are fixed points, and they differ
            # by at most the iteration's L1 error bound
            iterated, solved = classical_pagerank(structured), classical_pagerank(dense)
            for gm, pr in ((structured, iterated), (dense, solved)):
                assert np.abs(gm.entries @ pr - pr).sum() <= DEFAULT_TOL
            assert np.abs(iterated - solved).sum() <= DEFAULT_TOL / (1.0 - alpha)

    @pytest.mark.parametrize("name", sorted(operator_graphs()))
    def test_doubled_operator_gives_doubled_products(self, name):
        # the walk loop folds its factor 2 into D; doubling is exact
        d = build_structured_google(operator_graphs()[name], 0.85).overlap()
        x = np.random.default_rng(2).normal(size=len(d.u))
        doubled = 2.0 * d
        assert isinstance(doubled, RankOnePlusSparse)
        assert np.array_equal(doubled @ x, 2.0 * (d @ x))
        assert np.array_equal(doubled.toarray(), 2.0 * d.toarray())

    @settings(max_examples=60, deadline=None)
    @given(small_digraphs(), st.sampled_from([0.01, 0.3, 0.85, 0.98]))
    def test_dense_form_bitwise_equal_to_oracle(self, g, alpha):
        assert np.array_equal(google_from_graph(g, alpha).entries, dense_google(g, alpha).entries)

    def test_graph_classes_are_present(self):
        graphs = operator_graphs()
        reciprocal = graphs["er-reciprocal"].edges
        assert any((t, s) in reciprocal for s, t in reciprocal)
        assert any(s == t for s, t in graphs["self-loops"].edges)
        assert (graphs["sf"].out_degrees() == 0).any()

    def test_form_chosen_by_density(self):
        def circulant(n, k):  # k * n links: i -> i + 1, ..., i + k (mod n)
            links = {(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)}
            return DirectedGraph(n, frozenset(links))

        n = DENSE_MAX_NODES + 1
        k = int(STRUCTURED_MAX_DENSITY * n)  # k * n links is the most still structured
        assert isinstance(google_from_graph(circulant(n, k), 0.85).entries, RankOnePlusSparse)
        assert isinstance(google_from_graph(circulant(n, k + 1), 0.85).entries, np.ndarray)
        er = gen_erdos_renyi(2 * n, 0.125, seed=0)  # the er family's default density
        assert isinstance(google_from_graph(er, 0.85).entries, np.ndarray)

    def test_checks_apply_to_structured_form(self):
        g = build_structured_google(cycle(4), 0.85).entries
        low = 0.5 * g.v  # the other half moves onto the one link per column
        for bad in (
            RankOnePlusSparse(g.u, g.v, g.rows, g.cols, 2.0 * g.vals),
            RankOnePlusSparse(g.u, low, g.rows, g.cols, g.vals + 4.0 * low[g.cols]),
        ):
            with pytest.raises(ParameterError):
                GoogleMatrix(4, 0.85, bad)

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprank import (
    DirectedGraph,
    GeneratorSpec,
    ParameterError,
    ParseError,
    degree_distribution,
    gen_erdos_renyi,
    gen_hierarchical_outerplanar,
    gen_hierarchical_ternary,
    gen_scale_free,
    generate,
    load_edge_list,
    load_pajek,
    remove_node,
    write_edge_list,
    write_pajek,
)
from qprank import graphs
from qprank.graphs import HIERARCHY_SIZES, MAX_NODES

from conftest import complete, cycle, epa_path, small_digraphs


class TestDirectedGraph:
    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ParameterError):
            DirectedGraph(2, frozenset({(0, 2)}))

    @pytest.mark.parametrize("edges", [[(0.5, 1.9), (2, 0)], [(2, 0), (0.5, 1.9)],
                                       np.array([(0.5, 1.9), (2.0, 0.0)])])
    def test_rejects_non_integer_endpoints(self, edges):
        with pytest.raises(ParameterError, match=r"edge \(0\.5, 1\.9\) has a non-integer endpoint"):
            DirectedGraph(3, edges)

    @pytest.mark.parametrize("edges", [[], frozenset(), np.empty((0, 2)), [(np.int32(2), 0), (0, 1)],
                                       np.array([(2, 0), (0, 1)], dtype=np.uint8)])
    def test_accepts_integer_and_empty_edge_sets(self, edges):
        g = DirectedGraph(3, edges)
        assert g.src.dtype == g.dst.dtype == np.int64
        assert g.edge_list() == ([(0, 1), (2, 0)] if len(edges) else [])

    @pytest.mark.parametrize("big", [2**63, 2**64 - 1])
    def test_out_of_range_uint64_endpoint_is_named_unwrapped(self, big):
        with pytest.raises(ParameterError, match=rf"edge \({big}, 1\) out of range for n=3"):
            DirectedGraph(3, np.array([(0, 1), (big, 1)], dtype=np.uint64))

    def test_python_int_endpoint_beyond_int64_is_named(self):
        # numpy builds an object array for it, whose range check comes
        # before the int64 cast, so no OverflowError escapes
        with pytest.raises(ParameterError, match=rf"edge \({2**70}, 1\) out of range for n=3"):
            DirectedGraph(3, [(0, 1), (2**70, 1)])

    def test_rejects_self_loop_by_default(self):
        with pytest.raises(ParameterError):
            DirectedGraph(2, frozenset({(1, 1)}))

    def test_self_loop_allowed_when_flagged(self):
        g = DirectedGraph(2, frozenset({(1, 1)}), allow_self_loops=True)
        assert g.num_edges == 1

    def test_degree_arrays(self):
        g = DirectedGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        assert list(g.out_degrees()) == [2, 1, 0]
        assert list(g.in_degrees()) == [0, 1, 2]

    @settings(max_examples=50, deadline=None)
    @given(small_digraphs(), st.data())
    def test_repeated_unsorted_pairs_match_the_set(self, g, data):
        pairs = sorted(g.edges)
        shuffled = data.draw(st.permutations(pairs + pairs[: len(pairs) // 2]))
        for edges in (shuffled, np.array(shuffled, dtype=np.int64).reshape(-1, 2)):
            h = DirectedGraph(g.n, edges)
            assert h.edge_list() == pairs and h.edges == frozenset(pairs)
            assert np.array_equal(h.src, [s for s, _ in pairs])
            assert np.array_equal(h.dst, [t for _, t in pairs])
            assert h == g

    def test_array_input_checked_like_pairs(self):
        for n, pairs in ((3, [[0, 1], [3, 0]]), (3, [[0, -1]]), (2, [[1, 1]]), (3, [[0, 1, 2]])):
            with pytest.raises(ParameterError):
                DirectedGraph(n, np.array(pairs))
        assert DirectedGraph(2, np.array([[1, 1]]), allow_self_loops=True).num_edges == 1

    def test_storage_is_read_only(self):
        g = cycle(3)
        with pytest.raises(ValueError):
            g.src[0] = 1
        with pytest.raises(AttributeError):
            g.n = 4


class TestScaleFree:
    def test_count_beyond_any_array_rejected(self):
        with pytest.raises(ParameterError):
            gen_scale_free(MAX_NODES + 1)

    def test_minimum_size_has_seed_cycle_edges(self):
        g = gen_scale_free(3, seed=123)
        assert g.n == 3
        assert g.num_edges >= 2

    def test_deterministic_for_fixed_seed(self):
        a = gen_scale_free(100, seed=9)
        b = gen_scale_free(100, seed=9)
        assert a.edges == b.edges
        assert a.edges != gen_scale_free(100, seed=10).edges

    def test_requires_three_nodes(self):
        with pytest.raises(ParameterError):
            gen_scale_free(2)

    def test_invalid_probabilities_rejected(self):
        # gamma = 1 - alpha - beta, so alpha + beta > 1 is a negative gamma
        for alpha, beta in ((0.6, 0.5), (-0.1, 0.5), (0.5, -0.1), (float("nan"), 0.5)):
            with pytest.raises(ParameterError):
                gen_scale_free(10, alpha=alpha, beta=beta)
        with pytest.raises(ParameterError):
            gen_scale_free(10, alpha=0.0, beta=1.0)  # no move adds a node

    @pytest.mark.parametrize("delta", [float("inf"), 1e308])
    @pytest.mark.parametrize("name", ["delta_in", "delta_out"])
    def test_offset_overflowing_its_pick_weight_rejected(self, name, delta):
        # delta * 2n = inf would send every pick to the newest node
        with pytest.raises(ParameterError, match=f"sf degree offset {name}="):
            gen_scale_free(12, alpha=1.0, beta=0.0, seed=3, **{name: delta})
        with pytest.raises(ParameterError, match=f"sf degree offset {name}="):
            GeneratorSpec(family="sf", n=12, **{f"sf_{name}": delta})

    def test_hub_dominance_across_seeds(self):
        # 20 seeds at n=256: a dominant hub and a decaying log-log rank profile
        # must show up in at least 18.
        hits = 0
        for seed in range(20):
            g = gen_scale_free(256, seed=seed)
            in_deg = g.in_degrees()
            positive = np.sort(in_deg[in_deg > 0])[::-1]
            slope = np.polyfit(np.log(np.arange(1, len(positive) + 1)), np.log(positive), 1)[0]
            if slope < 0 and in_deg.max() >= 10 * np.median(in_deg):
                hits += 1
        assert hits >= 18

    def test_no_self_loops_by_default(self):
        for seed in range(5):
            g = gen_scale_free(200, seed=seed)
            assert all(s != t for s, t in g.edges)


def _cumsum_scale_free(n, *, alpha=0.41, beta=0.54, delta_in=0.2, delta_out=0.0, seed=0,
                       allow_self_loops=False):
    """The scale-free generator with the picker it had before the Fenwick
    trees: a float cumsum over every current node on each pick."""

    def pick(rng, degrees, offset, total):
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(degrees + offset), r, side="right"))
        return min(idx, len(degrees) - 1)

    rng = np.random.default_rng(seed)
    in_deg = np.zeros(n, dtype=np.float64)
    out_deg = np.zeros(n, dtype=np.float64)
    multi_edges = [(0, 1), (1, 2), (2, 0)]
    in_deg[:3] = out_deg[:3] = 1.0
    num_nodes = num_edges = 3
    while num_nodes < n:
        r = rng.random()
        if r < alpha:
            w = pick(rng, in_deg[:num_nodes], delta_in, num_edges + delta_in * num_nodes)
            v = num_nodes
            num_nodes += 1
        elif r < alpha + beta:
            v = pick(rng, out_deg[:num_nodes], delta_out, num_edges + delta_out * num_nodes)
            w = pick(rng, in_deg[:num_nodes], delta_in, num_edges + delta_in * num_nodes)
        else:
            v = pick(rng, out_deg[:num_nodes], delta_out, num_edges + delta_out * num_nodes)
            w = num_nodes
            num_nodes += 1
        multi_edges.append((v, w))
        out_deg[v] += 1
        in_deg[w] += 1
        num_edges += 1
    pairs = np.array(multi_edges)
    return DirectedGraph(n, pairs[(pairs[:, 0] != pairs[:, 1]) | allow_self_loops], allow_self_loops)


class TestPreferentialPick:
    """The Fenwick picker against the cumsum picker it replaced. The two sum
    differently rounded prefixes, so a draw within rounding of a boundary
    could pick a neighbour; on these seeds none does."""

    @pytest.mark.parametrize("n, seeds", [
        (16, range(1000)), (32, range(1000)), (64, range(1000)),
        (128, range(0, 1000, 5)), (256, range(0, 1000, 5)), (512, range(0, 1000, 5)),
    ])
    def test_same_graph_as_the_cumsum_picker(self, n, seeds):
        differ = [s for s in seeds if gen_scale_free(n, seed=s) != _cumsum_scale_free(n, seed=s)]
        assert differ == []

    @pytest.mark.parametrize("params", [
        dict(delta_out=0.7), dict(allow_self_loops=True), dict(alpha=0.05, beta=0.9),
    ], ids=["delta-out", "self-loops", "high-beta"])
    def test_same_graph_for_other_parameters(self, params):
        differ = [(n, s) for n in (16, 64, 128) for s in range(0, 200, 4)
                  if gen_scale_free(n, seed=s, **params) != _cumsum_scale_free(n, seed=s, **params)]
        assert differ == []

    def test_zero_weight_node_never_picked(self):
        tree = [0] * 8
        for node in (0, 0, 2):  # degrees 2, 0, 1
            graphs._fenwick_add(tree, node)
        # with no offset, node 1 holds the empty interval [2, 2)
        assert [graphs._fenwick_pick(tree, r, 0.0, 3) for r in (0.0, 1.99, 2.0, 2.99)] == [0, 0, 2, 2]
        assert graphs._fenwick_pick(tree, 3.0, 0.0, 3) == 2  # at the total: clamped

    def test_memory_linear_and_no_cumsum(self, monkeypatch):
        # A scaling guard that reads no clock: an O(n)-per-pick picker would
        # call np.cumsum, and an O(n^2) structure would break the memory bound.
        # Measured: 118 bytes per node + edge at n = 2**14. (2**14 rather than
        # the 2**16 of the localization study: tracemalloc makes every Python
        # int allocation ~13x slower, and 2**16 took 33 s traced, about 2 s not.)
        calls = []
        cumsum = np.cumsum

        def counted(*args, **kwargs):
            calls.append(1)
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counted)
        n = 2**14
        tracemalloc.start()
        try:
            g = generate(GeneratorSpec("sf", n=n, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 200 * (n + g.num_edges)


class TestErdosRenyi:
    def test_draws_beyond_any_array_rejected(self):
        with pytest.raises(ParameterError):
            gen_erdos_renyi(math.isqrt(MAX_NODES) + 1, 0.5)

    def test_p_zero_is_edgeless(self):
        assert gen_erdos_renyi(8, 0.0, seed=1).num_edges == 0

    def test_p_one_is_complete(self):
        g = gen_erdos_renyi(4, 1.0, seed=1)
        assert g.num_edges == 12

    def test_p_out_of_range(self):
        with pytest.raises(ParameterError):
            gen_erdos_renyi(4, 1.5)

    def test_mean_edge_count_matches_binomial(self):
        # 64*63 ordered pairs at p=0.125: mean 504, sigma ~ 21.
        counts = [gen_erdos_renyi(64, 0.125, seed=s).num_edges for s in range(100)]
        assert abs(np.mean(counts) - 504.0) <= 3 * 21.0

    def test_deterministic(self):
        assert gen_erdos_renyi(30, 0.2, seed=5).edges == gen_erdos_renyi(30, 0.2, seed=5).edges


class TestHierarchical:
    def test_ternary_generation_one_is_three_cycle(self):
        assert gen_hierarchical_ternary(1).edges == cycle(3).edges

    def test_ternary_node_counts(self):
        for n_gen in (1, 2, 3, 4):
            assert gen_hierarchical_ternary(n_gen).n == 3**n_gen

    def test_ternary_root_is_hub(self):
        g = gen_hierarchical_ternary(3)
        assert g.in_degrees()[0] == g.in_degrees().max()

    def test_ternary_deterministic(self):
        assert gen_hierarchical_ternary(3).edges == gen_hierarchical_ternary(3).edges

    def test_ternary_range(self):
        with pytest.raises(ParameterError):
            gen_hierarchical_ternary(5)

    def test_outerplanar_node_counts(self):
        assert gen_hierarchical_outerplanar(4).n == 32
        assert gen_hierarchical_outerplanar(6).n == 128
        for n_gen in range(1, 6):
            ratio = gen_hierarchical_outerplanar(n_gen + 1).n / gen_hierarchical_outerplanar(n_gen).n
            assert ratio == 2

    def test_outerplanar_range(self):
        with pytest.raises(ParameterError):
            gen_hierarchical_outerplanar(7)


class TestGeneratorSpec:
    def test_dispatch(self):
        g = generate(GeneratorSpec(family="hier3", n=9))
        assert g.n == 9

    @pytest.mark.parametrize("spec", [
        GeneratorSpec(family="sf", n=20), GeneratorSpec(family="er", n=7, p=0.0),
        GeneratorSpec(family="hier3", n=27), GeneratorSpec(family="hier2", n=8),
    ], ids=lambda spec: spec.family)
    def test_node_count_is_that_of_the_graph_built(self, spec):
        assert spec.n == generate(spec).n

    def test_validation(self):
        with pytest.raises(ParameterError, match="edge probability p=-0.1 outside"):
            GeneratorSpec(family="er", n=8, p=-0.1)
        for alpha, beta in ((0.6, 0.5), (-0.1, 0.5), (0.5, -0.1)):
            with pytest.raises(ParameterError, match="sf move probabilities"):
                GeneratorSpec(family="sf", n=8, sf_alpha=alpha, sf_beta=beta)
        with pytest.raises(ParameterError, match="seed -1 must be >= 0"):
            GeneratorSpec(family="er", n=8, seed=-1)
        with pytest.raises(ParameterError, match="unknown family 'nope'"):
            GeneratorSpec(family="nope")

    @pytest.mark.parametrize("spec, build", [
        (dict(family="sf", n=2), lambda: gen_scale_free(2)),
        (dict(family="sf", n=8, sf_alpha=0.0, sf_beta=1.0),
         lambda: gen_scale_free(8, alpha=0.0, beta=1.0)),
        (dict(family="er", n=0), lambda: gen_erdos_renyi(0, 0.5)),
        (dict(family="er", n=math.isqrt(MAX_NODES) + 1),
         lambda: gen_erdos_renyi(math.isqrt(MAX_NODES) + 1, 0.125)),
        (dict(family="hier3", n=243), lambda: gen_hierarchical_ternary(5)),
        (dict(family="hier2", n=256), lambda: gen_hierarchical_outerplanar(7)),
    ], ids=["sf-n2", "sf-beta1", "er-n0", "er-n-squared", "hier3-243", "hier2-256"])
    def test_spec_rejects_what_its_generator_rejects(self, spec, build):
        # the spec fails at once, before any graph is built
        with pytest.raises(ParameterError) as by_spec:
            GeneratorSpec(**spec)
        with pytest.raises(ParameterError) as by_generator:
            build()
        if not spec["family"].startswith("hier"):  # a hierarchy's generator counts generations
            assert str(by_spec.value) == str(by_generator.value)

    @pytest.mark.parametrize("family, n", [("hier3", 64), ("hier3", 0), ("hier3", 243),
                                           ("hier2", 2), ("hier2", 256), ("hier2", 64.5)])
    def test_hierarchy_rejects_other_node_counts(self, family, n):
        with pytest.raises(ParameterError, match=f"{family} graphs have n in .*, not n={n}"):
            GeneratorSpec(family, n=n)


class TestRemoveNode:
    def test_three_cycle(self):
        g = remove_node(cycle(3), 2)
        assert isinstance(g, DirectedGraph)
        assert g.n == 2
        assert g.edges == frozenset({(0, 1)})

    def test_single_node_to_empty(self):
        g = remove_node(DirectedGraph(1, frozenset()), 0)
        assert g.n == 0 and g.num_edges == 0

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            remove_node(cycle(3), 3)

    def test_edge_count_drop_equals_incident_degree(self):
        g = gen_scale_free(32, seed=11)
        hub = int(np.argmax(g.in_degrees()))
        incident = sum(1 for s, t in g.edges if s == hub or t == hub)
        reduced = remove_node(g, hub)
        assert g.num_edges - reduced.num_edges == incident

    @pytest.mark.parametrize("v", [1.5, np.float64(1.0), "1", None])
    @pytest.mark.parametrize("edges", [[(0, 1), (2, 3), (3, 0)], [(0, 1), (1, 2), (2, 3), (3, 0)]])
    def test_non_integer_node_rejected(self, edges, v):
        with pytest.raises(ParameterError, match="is not an integer"):
            remove_node(DirectedGraph(4, edges), v)

    @pytest.mark.parametrize("v", [1, np.int64(1), np.uint8(1)])
    def test_integer_types_accepted(self, v):
        assert remove_node(cycle(4), v) == DirectedGraph(3, [(1, 2), (2, 0)])

    @pytest.mark.parametrize("g", [DirectedGraph(1, []), DirectedGraph(1, [(0, 0)], allow_self_loops=True),
                                   DirectedGraph(2, []), DirectedGraph(5, [])],
                             ids=["one-node", "one-node-loop", "edgeless-2", "edgeless-5"])
    def test_edgeless_and_one_node(self, g):
        for v in {0, g.n // 2, g.n - 1}:
            assert_matches_fresh_build(g, v)

    @settings(max_examples=50, deadline=None)
    @given(st.booleans().flatmap(lambda loops: small_digraphs(allow_self_loops=loops)))
    def test_surviving_edges_unchanged(self, g):
        for v in {0, g.n // 2, g.n - 1}:
            assert_matches_fresh_build(g, v)


def assert_matches_fresh_build(g, v):
    """remove_node(g, v), checked field by field against the same edges
    relabelled and passed through the DirectedGraph constructor."""
    reduced = remove_node(g, v)
    pairs = [(s - (s > v), t - (t > v)) for s, t in g.edge_list() if v not in (s, t)]
    fresh = DirectedGraph(g.n - 1, pairs, g.allow_self_loops)
    for got, want in ((reduced.src, fresh.src), (reduced.dst, fresh.dst)):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)
    assert reduced == fresh and reduced.allow_self_loops == g.allow_self_loops


class TestDegreeDistribution:
    def test_edgeless(self):
        in_hist, out_hist = degree_distribution(DirectedGraph(4, frozenset()))
        assert list(in_hist) == [4] and list(out_hist) == [4]

    def test_empty_graph(self):
        for hist in degree_distribution(DirectedGraph(0, [])):
            assert hist.dtype == np.int64 and hist.shape == (0,)

    def test_cycle(self):
        in_hist, out_hist = degree_distribution(cycle(3))
        assert list(in_hist) == [0, 3] and list(out_hist) == [0, 3]

    def test_complete(self):
        g = complete(5)
        in_hist, out_hist = degree_distribution(g)
        assert in_hist[4] == 5 and out_hist[4] == 5
        assert in_hist.sum() == 5 and out_hist.sum() == 5


class TestPajek:
    def test_minimal_file(self):
        g = load_pajek("*Vertices 2\n*Arcs\n1 2\n")
        assert g.n == 2 and g.edges == frozenset({(0, 1)})

    def test_undirected_expansion(self):
        g = load_pajek("*Vertices 3\n*Edges\n1 2\n")
        assert g.edges == frozenset({(0, 1), (1, 0)})

    def test_case_insensitive_and_comments(self):
        text = "% a comment\n*vertices 3\n1 \"a\"\n2 \"b\"\n*ARCS\n1 3 2.5\n% mid comment\n3 2\n"
        g = load_pajek(text)
        assert g.edges == frozenset({(0, 2), (2, 1)})

    def test_duplicate_arcs_collapse(self):
        g = load_pajek("*Vertices 2\n*Arcs\n1 2\n1 2\n")
        assert g.num_edges == 1

    def test_self_loop_kept(self):
        g = load_pajek("*Vertices 2\n*Arcs\n1 1\n")
        assert (0, 0) in g.edges

    def test_missing_header(self):
        with pytest.raises(ParseError):
            load_pajek("*Arcs\n1 2\n")

    def test_endpoint_out_of_range_reports_line(self):
        with pytest.raises(ParseError) as err:
            load_pajek("*Vertices 2\n*Arcs\n1 3\n")
        assert err.value.line == 3

    def test_malformed_line_reports_line(self):
        with pytest.raises(ParseError) as err:
            load_pajek("*Vertices 2\n*Arcs\nfoo bar\n")
        assert err.value.line == 3

    def test_count_beyond_any_array_reports_line(self):
        with pytest.raises(ParseError) as err:
            load_pajek(f"% big\n*Vertices {MAX_NODES + 1}\n*Arcs\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_repeated_vertices_header_reports_line(self, count):
        # a smaller count would leave arcs out of range, a larger one would
        # silently grow the graph
        with pytest.raises(ParseError) as err:
            load_pajek(f"*Vertices 3\n*Arcs\n1 3\n*Vertices {count}\n")
        assert err.value.line == 4

    def test_roundtrip_identity(self):
        g = gen_scale_free(40, seed=2)
        again = load_pajek(write_pajek(g))
        assert again.n == g.n and again.edges == g.edges
        assert write_pajek(again) == write_pajek(g)

    @settings(max_examples=30, deadline=None)
    @given(small_digraphs())
    def test_roundtrip_property(self, g):
        again = load_pajek(write_pajek(g))
        assert again.n == g.n and again.edges == g.edges


@pytest.mark.skipif(epa_path() is None, reason="EPA Pajek file not present")
class TestEpaIngestion:
    def test_counts_match_file_after_dedup(self):
        text = epa_path().read_text()
        g = load_pajek(text)
        declared_n = None
        arcs = set()
        section = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if line.startswith("*"):
                key = line.split()[0].lower()
                if key == "*vertices":
                    declared_n = int(line.split()[1])
                section = key
                continue
            if section == "*arcs":
                s, t = line.split()[:2]
                arcs.add((int(s), int(t)))
            elif section == "*edges":
                s, t = line.split()[:2]
                arcs.add((int(s), int(t)))
                arcs.add((int(t), int(s)))
        assert g.n == declared_n
        assert g.num_edges == len(arcs)


class TestEdgeList:
    def test_roundtrip_preserves_isolated_nodes(self):
        g = DirectedGraph(5, frozenset({(0, 1)}))
        again = load_edge_list(write_edge_list(g))
        assert again.n == 5 and again.edges == g.edges

    def test_comments_ignored(self):
        g = load_edge_list("# free comment\n0 1\n\n# another\n1 0\n")
        assert g.n == 2 and g.num_edges == 2

    def test_malformed(self):
        with pytest.raises(ParseError):
            load_edge_list("0 1 2\n")

    @pytest.mark.parametrize("text", [f"0 1\n0 {MAX_NODES}\n", f"0 1\n# nodes {MAX_NODES + 1}\n"])
    def test_number_beyond_any_array_reports_line(self, text):
        with pytest.raises(ParseError) as err:
            load_edge_list(text)
        assert err.value.line == 2


# SHA-256 of write_edge_list(graph), recorded with the frozenset-based graph
# storage that the sorted edge arrays replaced: every seed keeps its graph.
GENERATOR_DIGESTS = [
    (dict(family="sf", n=16, seed=0), "73f0849edb2d672fc4fe3f98172e6e63c7019f364f65d83b76dab5239fdbdf63"),
    (dict(family="sf", n=16, seed=1), "2c92ffe4ce33a5107cee55831250d52b8181d9feffa5d0df7faa441db59062fb"),
    (dict(family="sf", n=16, seed=2), "c482c73ac32b7f36f4cb569fbb7177d2846b0193101f5046badfdc3c95ecffbf"),
    (dict(family="sf", n=256, seed=0), "06452c011636c18a460b78e71945738c2dedd71d2964a91c05c4adede67296e5"),
    (dict(family="sf", n=256, seed=1), "c70cb3d3428e7248f0e7405d690e72895efa3934e518d657d69a01457d533614"),
    (dict(family="sf", n=256, seed=2), "54f65b325683698a5208bee24128ef4a15a8fd5cfbcdd71ede2d8f5acee7c794"),
    (dict(family="sf", n=2048, seed=0), "c761bab4c7c8588121a5eb6e014bae1d578c18832a7ef9a1d5c090d45be7f92c"),
    (dict(family="sf", n=2048, seed=1), "a8f966da724a0581cc1cd9f14f136dd273242f4bcb805b2b9edf203559e01267"),
    (dict(family="sf", n=2048, seed=2), "d4725f9921235c2f408af20820c8dabfd2bee3e488a6a0df523f87bb1977c7c4"),
    # recorded with the cumsum picker, before the Fenwick trees
    (dict(family="sf", n=16384, seed=0), "57d41944c5e47b47df422bb24c1fabfffee233559ffcb9430d64ddfec3635ef5"),
    (dict(family="sf", n=256, seed=0, allow_self_loops=True),
     "f54b6f3e089df70d2e7051850d9b00e441f4678a050ed6379099397b58edcb44"),
    (dict(family="er", n=64, seed=0), "9d915c2c903ac657ea1a9dddb50ade14fa537ab0560e5d712f39b9519321fa39"),
    (dict(family="er", n=64, seed=1), "3d2238b7f01893895f4d1fc5670948e6b506d90e3184dc4dffbc8f6d5d10f490"),
    (dict(family="er", n=64, seed=2), "5a9dece17b6511ad2c8f28ea39aa2ebf72fac81812d94dad783c7f3cf7d66d13"),
    (dict(family="hier3", n=3), "16e0f1b14febf59e51734cf667cbc43952cfa01b2ddfc3b01ce2c2af29b4bc96"),
    (dict(family="hier3", n=9), "4beca8dce9c8f2edc23e74be94bd35da37d15a11466252b805328024d61eef6c"),
    (dict(family="hier3", n=27), "d54e3029eb40178b61373b9cecb67d5bb8489d199b60497d88a4ea006288d37f"),
    (dict(family="hier3", n=81), "a9354a507ad557f5db7b1f55246f099d10c9426bce9594df5a5af469b7dd1586"),
    (dict(family="hier2", n=4), "b3fdb46676827d67d47b7276008739add89d08f76f24b4be332b9fb96bc55d04"),
    (dict(family="hier2", n=8), "ed0f377592cb664bfe8771209385735179894c13eaee833e4177e98ce5626d9c"),
    (dict(family="hier2", n=16), "24740e40463833dbe9b194077eea71b95bbbb6e933227c9cc13cb4633cf7fb79"),
    (dict(family="hier2", n=32), "84ec223edc602165bd9ac4d9aa9e15caebd71efa12fbf51c30812d4f10e0bd3b"),
    (dict(family="hier2", n=64), "c2360d3d3ce3de480c3b3b78877c049440caec1ce0c222e6c499cdda4e801185"),
    (dict(family="hier2", n=128), "a9a1a33ec2266a4a1579955dd9d4c73fa9d3e25bfe5517fca41e6830fdb7f4e2"),
]
# Files with self-loops, repeated arcs and undirected edges.
PAJEK_WITH_LOOPS = '*Vertices 5\n1 "a"\n*Arcs\n1 1\n1 2\n3 2\n2 3\n5 5\n*Edges\n4 1\n2 2\n1 2\n'
EDGE_LIST_WITH_LOOPS = "# nodes 7\n3 3\n0 1\n1 0\n6 2\n2 2\n0 1\n5 4\n"


def _digest(g):
    return hashlib.sha256(write_edge_list(g).encode()).hexdigest()


def _digest_id(spec: dict) -> str:
    """The spec's values joined, but a hierarchy's generation in place of its size."""
    values = dict(spec)
    if values["family"] in HIERARCHY_SIZES:
        values["n"] = HIERARCHY_SIZES[values["family"]].index(values["n"]) + 1
    return "-".join(map(str, values.values()))


class TestGeneratorFingerprints:
    @pytest.mark.parametrize("spec, digest", GENERATOR_DIGESTS,
                             ids=[_digest_id(s) for s, _ in GENERATOR_DIGESTS])
    def test_generated_graph_unchanged(self, spec, digest):
        assert _digest(generate(GeneratorSpec(**spec))) == digest

    def test_loaded_graphs_unchanged(self):
        assert _digest(load_pajek(PAJEK_WITH_LOOPS)) == (
            "f446c7948ee7b3fa675cd3abc2e4e25eae404ab50886419e3b8cc38df60f023d"
        )
        assert _digest(load_edge_list(EDGE_LIST_WITH_LOOPS)) == (
            "3fd3f5cbaf3f158a2c1db6af82ba3659a304a6311d634ce2c1a6e36ddab0f179"
        )

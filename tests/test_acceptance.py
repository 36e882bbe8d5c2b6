"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion. Criteria that need the real-world Pajek dataset skip with a
warning when the file is absent (see conftest.epa_path).
"""


import json

import numpy as np
import pytest

from qprank import (
    DirectedGraph,
    GeneratorSpec,
    SzegedyWalk,
    classical_pagerank,
    ensemble_run,
    gen_erdos_renyi,
    gen_hierarchical_outerplanar,
    gen_hierarchical_ternary,
    gen_scale_free,
    google_from_graph,
    importance_vector,
    ipr,
    ipr_scaling,
    kendall_coefficient,
    load_pajek,
    power_law_fit,
    ranking_order,
)
from qprank.analysis import attack_metrics, powerlaw_metrics
from qprank.cli import main as cli_main

from conftest import DenseWalk, ReducedWalk, complete, cycle, epa_path, random_graph


def note(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_oracle_equivalence():
    # Reduced 2N simulator vs literal dense simulator: 1e-10 agreement for
    # 10 random graphs, n <= 12, alpha in {0.1, 0.5, 0.85}, t <= 50.
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 13)))
        for alpha in (0.1, 0.5, 0.85):
            gm = google_from_graph(g, alpha)
            dense = DenseWalk(gm)
            ds = dense.initial_state()
            for p in SzegedyWalk(gm).trajectory(51):
                worst = max(worst, float(np.abs(p - dense.measure(ds)).max()))
                ds = dense.step(dense.step(ds))
    assert worst < 1e-10
    note(1, f"reduced vs dense agree, worst gap {worst:.2e}")


def test_criterion_02_conservation_suite():
    # Norm drift < 1e-10 over 1e4 single steps and measured distribution
    # summing to 1 +- 1e-9 at every step, on all four graph families.
    # The ternary hierarchy tops out at 81 nodes (generation 4); the other
    # three families run at exactly n = 128.
    families = {
        "scale-free": gen_scale_free(128, seed=1),
        "erdos-renyi": gen_erdos_renyi(128, 0.05, seed=1),
        "hier-outerplanar": gen_hierarchical_outerplanar(6),
        "hier-ternary": gen_hierarchical_ternary(4),
    }
    for name, g in families.items():
        gm = google_from_graph(g, 0.85)
        walk, oracle = SzegedyWalk(gm), ReducedWalk(gm)
        state = oracle.initial_state()
        worst_norm = 0.0
        worst_sum = 0.0
        for _ in range(10_000):
            state = oracle.step(state)
            worst_norm = max(worst_norm, abs(walk.norm_sq(*state) - 1.0))
            worst_sum = max(worst_sum, abs(float(walk.measure(*state).sum()) - 1.0))
        assert worst_norm < 1e-10, f"{name}: norm drift {worst_norm:.2e}"
        assert worst_sum < 1e-9, f"{name}: distribution sum drift {worst_sum:.2e}"
    note(2, "unitarity and normalization hold over 1e4 steps on all families")


def test_criterion_03_classical_fixed_point():
    graphs = [
        gen_scale_free(64, seed=0),
        gen_erdos_renyi(64, 0.1, seed=0),
        gen_hierarchical_ternary(3),
        gen_hierarchical_outerplanar(5),
        cycle(5),
        complete(5),
        DirectedGraph(2, frozenset({(0, 1)})),
    ]
    for g in graphs:
        for alpha in (0.1, 0.85):
            gm = google_from_graph(g, alpha)
            pr = classical_pagerank(gm)
            assert float(np.abs(gm.entries @ pr - pr).sum()) <= 1e-12
    two_node = classical_pagerank(google_from_graph(DirectedGraph(2, frozenset({(0, 1)})), 0.85))
    assert np.abs(two_node - np.array([0.35088, 0.64912])).max() < 1e-4
    note(3, "fixed-point residual <= 1e-12 everywhere; 2-node value reproduced")


def test_criterion_04_symmetry():
    for g in (cycle(3), cycle(5), cycle(8), complete(4), complete(5)):
        uniform = 1.0 / g.n
        for alpha in (0.1, 0.85):
            gm = google_from_graph(g, alpha)
            pr = classical_pagerank(gm)
            avg = SzegedyWalk(gm).average(1000)
            assert np.abs(pr - uniform).max() < 1e-9
            assert np.abs(avg - uniform).max() < 1e-9
    note(4, "vertex-transitive graphs rank uniformly, classical and quantum")


def test_criterion_05_ipr_limits():
    for n in (4, 32, 256):
        for r in (1, 2):
            point = np.zeros(n)
            point[n // 2] = 1.0
            assert ipr(point, r).xi == 1.0
            assert ipr(np.full(n, 1.0 / n), r).xi == float(n) ** (1 - 2 * r)
    note(5, "participation-ratio endpoints exact for point mass and uniform")


def test_criterion_06_localization_phases():
    # 10 ensembles, each one graph per size in {32, 64, 128, 256}, alpha 0.85,
    # r = 1, horizon 1000. Required: scale-free quantum classified localized
    # (|slope| <= 0.25) in >= 8/10; Erdos-Renyi quantum and classical
    # classified delocalized (slope <= -0.6) in >= 8/10.
    sizes = (32, 64, 128, 256)

    def ensemble_label(family, mode, e):
        samples = []
        for k, n in enumerate(sizes):
            seed = 1000 * e + k
            g = gen_scale_free(n, seed=seed) if family == "sf" else gen_erdos_renyi(n, 0.125, seed=seed)
            samples.append(ipr(importance_vector(g, mode, alpha=0.85, horizon=1000), 1))
        return ipr_scaling(samples).label

    counts = {}
    for family, mode, wanted in (
        ("sf", "quantum", "localized"),
        ("er", "quantum", "delocalized"),
        ("er", "classical", "delocalized"),
    ):
        labels = [ensemble_label(family, mode, e) for e in range(10)]
        counts[(family, mode)] = labels.count(wanted)
    assert counts[("er", "quantum")] >= 8, f"ER quantum delocalized in {counts[('er', 'quantum')]}/10"
    assert counts[("er", "classical")] >= 8, f"ER classical delocalized in {counts[('er', 'classical')]}/10"
    assert counts[("sf", "quantum")] >= 8, (
        f"SF quantum localized in only {counts[('sf', 'quantum')]}/10 ensembles: at sizes "
        "32..256 the fitted slope sits near -0.4 (transient toward the flat large-N regime), "
        "outside the |slope| <= 0.25 band"
    )
    note(6, f"phase classification counts {counts}")


# Criterion 7's two runs, exactly as the README's "Paper experiments" lists them;
# the defaults give T = 1000 and the 20-point coarse grid.
STABILITY_QUANTUM_ARGV = ("stability", "--family", "sf", "--n", "128", "--grid", "coarse",
                          "--mode", "quantum", "--seed", "7")
STABILITY_CLASSICAL_ARGV = ("stability", "--family", "sf", "--n", "256", "--grid", "coarse",
                            "--mode", "classical", "--seed", "24")


def test_criterion_07_stability_bounds(tmp_path):
    def run(argv):
        out = tmp_path / argv[argv.index("--mode") + 1]
        assert cli_main([*argv, "--out", str(out)]) == 0
        (config,) = out.glob("*_run_config.json")
        params = json.loads(config.read_text())["params"]
        assert (params["T"], params["points"]) == (1000, 20)
        (summary,) = out.glob("*_summary.json")
        return json.loads(summary.read_text())

    quantum = run(STABILITY_QUANTUM_ARGV)
    min_fid, max_dist = quantum["min_fidelity"], quantum["max_distance"]
    assert min_fid >= 0.85, f"min quantum fidelity {min_fid:.4f}"
    assert max_dist <= 0.25, f"max quantum distance {max_dist:.4f}"

    min_cl = run(STABILITY_CLASSICAL_ARGV)["min_fidelity"]
    assert min_cl < 0.6, f"classical minimum fidelity {min_cl:.4f} never dropped below 0.6"
    note(7, f"quantum plateau: min fidelity {min_fid:.3f}, max distance {max_dist:.3f}; "
            f"classical dips to {min_cl:.3f}")


@pytest.mark.skipif(epa_path() is None, reason="EPA Pajek file not present; criterion 8 skipped")
def test_criterion_08_epa_regression():
    g = load_pajek(epa_path().read_text())
    classical = importance_vector(g, "classical")
    quantum = importance_vector(g, "quantum", horizon=1000)
    fit_cl = power_law_fit(classical[ranking_order(classical)], i_max=g.n)
    fit_q = power_law_fit(quantum[ranking_order(quantum)], i_max=g.n)
    assert abs(fit_cl.beta - 0.4545) <= 0.05, f"classical beta {fit_cl.beta:.4f}"
    assert abs(fit_cl.c - 0.0185) <= 0.005, f"classical prefactor {fit_cl.c:.4f}"
    assert abs(fit_q.beta - 0.3066) <= 0.05, f"quantum beta {fit_q.beta:.4f}"
    assert fit_q.beta < fit_cl.beta
    note(8, f"EPA fits: classical ({fit_cl.beta:.4f}, {fit_cl.c:.4f}), quantum {fit_q.beta:.4f}")


def test_criterion_09_ensemble_power_law():
    spec = GeneratorSpec(family="sf", n=256, seed=0)
    report = ensemble_run(spec, 29, lambda g: powerlaw_metrics(g, horizon=1000))
    assert report.failures == 0
    assert report.means["beta_quantum"] < report.means["beta_classical"]
    assert report.means["residual_quantum"] < 0.5
    assert report.means["residual_classical"] < 0.5
    note(9, f"29-graph ensemble: beta_q {report.means['beta_quantum']:.3f} < "
            f"beta_cl {report.means['beta_classical']:.3f}")


def test_criterion_10_attack_sensitivity():
    removals = 5
    for n in (16, 32):
        spec = GeneratorSpec(family="sf", n=n, seed=0)
        report = ensemble_run(
            spec, 100, lambda g: attack_metrics(g, removals, horizon=1000)
        )
        assert report.failures == 0
        hits = sum(
            report.means[f"kendall_quantum_{r}"] <= report.means[f"kendall_classical_{r}"]
            for r in range(1, removals + 1)
        )
        assert hits >= 4, f"n={n}: quantum more sensitive in only {hits}/5 removal counts"
    assert kendall_coefficient([1, 2, 3], [1, 2, 3]) == 1.0
    assert kendall_coefficient([1, 2, 3], [3, 2, 1]) == 0.0
    assert kendall_coefficient([1, 2, 3], [1, 3, 2]) == pytest.approx(2 / 3)
    note(10, "hub attacks disturb the quantum ranking at least as much as the classical")


# The ER half of criterion 10's claim, as the README's "Paper experiments"
# lists it; the defaults give 5 removals, 100 graphs and T = 1000.
ATTACK_ER_ARGVS = (("attack", "--family", "er", "--n", "16"),
                   ("attack", "--family", "er", "--n", "32"))


@pytest.mark.parametrize("argv", ATTACK_ER_ARGVS, ids=["n16", "n32"])
def test_er_attack_sensitivity(tmp_path, argv):
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    (summary,) = (json.loads(path.read_text()) for path in tmp_path.glob("*_summary.json"))
    assert summary["failures"] == 0
    means = summary["means"]
    hits = sum(means[f"kendall_quantum_{r}"] <= means[f"kendall_classical_{r}"]
               for r in range(1, 6))
    assert hits >= 4, f"{argv}: quantum more sensitive in only {hits}/5 removal counts"


@pytest.mark.parametrize("n", [128, 256])
def test_quantum_resolves_more_low_lying_degeneracy(tmp_path, n):
    # the abstract's "partially resolves the low-lying degeneracy": the low
    # half of the quantum ranking has more tie classes than the classical one
    for seed in range(5):
        out = tmp_path / str(seed)
        assert cli_main(["rank", "--family", "sf", "--n", str(n), "--seed", str(seed),
                         "--out", str(out)]) == 0
        (summary,) = (json.loads(path.read_text()) for path in out.glob("*_summary.json"))
        quantum = summary["degeneracy_resolution_quantum"]
        classical = summary["degeneracy_resolution_classical"]
        assert quantum > classical, f"n={n} seed {seed}: {quantum} <= {classical}"


def test_criterion_11_cli_determinism(tmp_path):
    def run(args):
        assert cli_main([str(a) for a in args]) == 0

    def data_bytes(root):
        return {
            p.name: p.read_bytes()
            for p in sorted(root.iterdir())
            if not p.name.endswith("run_config.json")
        }

    variants = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / name
        run(["attack", "--family", "sf", "--n", 12, "--removals", 3, "--ensemble", 6,
             "--T", 60, "--seed", 4, "--jobs", jobs, "--out", out])
        run(["rank", "--family", "sf", "--n", 24, "--seed", 4, "--T", 60, "--out", out])
        run(["generate", "--family", "er", "--n", 32, "--p", 0.1, "--seed", 4, "--out", out])
        run(["ipr", "--family", "er", "--sizes", "8,16", "--T", 40, "--seed", 4,
             "--mode", "both", "--jobs", jobs, "--out", out])
        run(["stability", "--family", "sf", "--n", 10, "--grid", "coarse", "--points", 4,
             "--T", 40, "--seed", 4, "--jobs", jobs, "--out", out])
        run(["stability", "--family", "sf", "--n", 10, "--grid", "sweep", "--alpha", 0.6,
             "--T", 40, "--seed", 4, "--jobs", jobs, "--out", out])
        run(["powerlaw", "--family", "sf", "--n", 16, "--ensemble", 4, "--T", 40,
             "--seed", 4, "--jobs", jobs, "--out", out])
        variants.append(data_bytes(out))
    assert variants[0] == variants[1] == variants[2]
    csv_names = [n for n in variants[0] if n.endswith(".csv")]
    assert csv_names, "expected CSV artifacts in the comparison set"
    note(11, f"byte-identical artifacts across reruns and --jobs ({len(csv_names)} CSVs)")

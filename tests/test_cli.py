import argparse
import concurrent.futures
import csv
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qprank import __version__, analysis, cli, graphs, load_edge_list, load_pajek
from qprank.cli import build_parser, main
from qprank.errors import ParameterError
from qprank.google import DENSE_MAX_NODES, RankOnePlusSparse, google_from_graph

from conftest import classical_fidelity, epa_path, oracle_cell, oracle_table, qpr_distance
from test_acceptance import ATTACK_ER_ARGVS, STABILITY_CLASSICAL_ARGV, STABILITY_QUANTUM_ARGV


def run(args) -> int:
    return main([str(a) for a in args])


@pytest.fixture
def generated(monkeypatch) -> list:
    """The spec of each graph the test generates, in order."""
    specs = []
    build = graphs.generate

    def counted(spec):
        specs.append(spec)
        return build(spec)

    monkeypatch.setattr(graphs, "generate", counted)
    monkeypatch.setattr(analysis, "generate", counted)  # the ensembles' own reference
    return specs


def read_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestGenerate:
    def test_er_example_invocation(self, tmp_path):
        assert run(["generate", "--family", "er", "--n", 64, "--p", 0.125,
                    "--seed", 7, "--out", tmp_path]) == 0
        edges = tmp_path / "generate_er_n64_seed7.edges"
        net = tmp_path / "generate_er_n64_seed7.net"
        assert edges.exists() and net.exists()
        assert load_edge_list(edges.read_text()).edges == load_pajek(net.read_text()).edges

    def test_hier3_node_count(self, tmp_path):
        assert run(["generate", "--family", "hier3", "--n", 9, "--out", tmp_path]) == 0
        g = load_edge_list((tmp_path / "generate_hier3_n9_seed0.edges").read_text())
        assert g.n == 9

    @pytest.mark.parametrize("family", ["hier3", "hier2"])
    def test_every_hierarchy_size_accepted(self, tmp_path, family):
        for n in graphs.HIERARCHY_SIZES[family]:
            assert run(["generate", "--family", family, "--n", n, "--out", tmp_path]) == 0
            g = load_edge_list((tmp_path / f"generate_{family}_n{n}_seed0.edges").read_text())
            assert g.n == n

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["generate", "--family", "sf", "--n", 40, "--seed", 3, "--out", out]) == 0
        left, right = tree_bytes(a), tree_bytes(b)
        for name in left:
            if not name.endswith("run_config.json"):  # echoes the differing --out
                assert left[name] == right[name]
        # the same invocation repeated in place reproduces every byte
        assert run(["generate", "--family", "sf", "--n", 40, "--seed", 3, "--out", a]) == 0
        assert tree_bytes(a) == left

    def test_degree_csv_bytes(self, tmp_path):
        assert run(["generate", "--family", "hier3", "--n", 3, "--out", tmp_path]) == 0
        csv_bytes = (tmp_path / "generate_hier3_n3_seed0_degrees.csv").read_bytes()
        assert csv_bytes == b"degree,in_count,out_count\n0,0,0\n1,3,3\n"

    def test_degree_csv_sums_to_n(self, tmp_path):
        run(["generate", "--family", "er", "--n", 20, "--p", 0.2, "--seed", 1, "--out", tmp_path])
        rows = read_rows(tmp_path / "generate_er_n20_seed1_p0.2_degrees.csv")
        assert sum(int(r["in_count"]) for r in rows) == 20
        assert sum(int(r["out_count"]) for r in rows) == 20


class TestRank:
    def test_three_cycle_uniform_columns(self, tmp_path):
        net = tmp_path / "c3.net"
        net.write_text("*Vertices 3\n*Arcs\n1 2\n2 3\n3 1\n")
        assert run(["rank", "--input", net, "--T", 100, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "rank_c3_n3_a0.85_T100.csv")
        for row in rows:
            assert float(row["classical_importance"]) == pytest.approx(1 / 3, abs=1e-9)
            assert float(row["quantum_importance"]) == pytest.approx(1 / 3, abs=1e-9)

    def test_three_cycle_bytes(self, tmp_path):
        # the quantum column's last bits differ by platform, so it is not pinned
        edges = tmp_path / "c3.edges"
        edges.write_text("0 1\n1 2\n2 0\n")
        assert run(["rank", "--input", edges, "--T", 100, "--out", tmp_path]) == 0
        prefix = tmp_path / "rank_c3_n3_a0.85_T100"
        lines = Path(f"{prefix}.csv").read_text().splitlines()
        assert lines[0] == "node,classical_importance,quantum_importance,classical_rank,quantum_rank"
        for i, line in enumerate(lines[1:]):
            assert line.startswith(f"{i},0.33333333333333331,")
            assert line.split(",")[3] == str(i + 1)
        assert len(lines) == 4

    def test_two_node_classical_value(self, tmp_path):
        net = tmp_path / "pair.net"
        net.write_text("*Vertices 2\n*Arcs\n1 2\n")
        assert run(["rank", "--input", net, "--T", 50, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "rank_pair_n2_a0.85_T50.csv")
        got = [float(r["classical_importance"]) for r in rows]
        assert got == pytest.approx([1 / 2.85, 1.85 / 2.85], abs=1e-6)

    def test_summary_and_config_echo(self, tmp_path):
        assert run(["rank", "--family", "sf", "--n", 16, "--seed", 2, "--T", 50,
                    "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / "rank_sf_n16_a0.85_T50_seed2_summary.json").read_text())
        assert {"degeneracy_resolution_classical", "degeneracy_resolution_quantum"} <= set(summary)
        config = json.loads((tmp_path / "rank_sf_n16_a0.85_T50_seed2_run_config.json").read_text())
        assert config["version"] == __version__
        assert config["params"]["seed"] == 2

    def test_trajectory_dump(self, tmp_path):
        assert run(["rank", "--family", "sf", "--n", 8, "--seed", 1, "--T", 20,
                    "--trajectory", 6, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "rank_sf_n8_a0.85_T20_seed1_trajectory6.csv")
        assert len(rows) == 6 * 8
        by_t = {}
        for r in rows:
            by_t.setdefault(int(r["t"]), 0.0)
            by_t[int(r["t"])] += float(r["instantaneous_qpr"])
        assert all(abs(total - 1.0) < 1e-9 for total in by_t.values())

    def test_rank_does_not_import_numpy_ma(self, tmp_path):
        # numpy 2.4's np.unique without indices or counts imports numpy.ma on first use
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = ("import sys; from qprank import cli; "
                f"code = cli.main(['rank', '--family', 'sf', '--n', '16', '--T', '10', "
                f"'--out', {str(tmp_path)!r}]); print(code, 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


class TestWriteTable:
    """``cli._write_table`` against conftest's cell-by-cell oracle."""

    @staticmethod
    def written(tmp_path, header, columns):
        path = tmp_path / "table.txt"
        cli._write_table(path, header, columns)
        return path.read_text()

    def test_signed_zeros_nan_infinities_and_subnormals(self, tmp_path):
        values = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                           0.1, 1 / 3, -0.0, 5e-324])
        columns = (values, values[::-1], -values)
        text = self.written(tmp_path, ("a", "b", "c"), columns)
        assert text == oracle_table(("a", "b", "c"), columns)
        assert text.splitlines()[1].split(",") == ["-0", "4.9406564584124654e-324", "0"]

    def test_integers_up_to_2_53(self, tmp_path):
        ints = np.array([0, 1, 7, 2**31, 2**53 - 1, 2**53, 2**53 - 1])
        columns = (ints, range(len(ints)), ints / 4, list(ints))
        text = self.written(tmp_path, ("node", "i", "x", "rank"), columns)
        assert text == oracle_table(("node", "i", "x", "rank"), columns)
        assert text.splitlines()[-2].split(",")[::3] == ["9007199254740992"] * 2

    def test_empty_table_is_its_header(self, tmp_path):
        assert self.written(tmp_path, ("x", "y"), (np.empty(0), [])) == "x,y\n"

    def test_table_longer_than_one_block(self, tmp_path):
        rows = 2 * cli.TABLE_BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        repeated = rng.integers(0, 40, rows) / 7  # values recur within and across blocks
        repeated[cli.TABLE_BLOCK_ROWS - 1 : cli.TABLE_BLOCK_ROWS + 1] = -0.0, 0.0
        columns = ([f"r{i % 5}" for i in range(rows)], np.arange(rows), repeated,
                   rng.random(rows))
        text = self.written(tmp_path, ("key", "i", "x", "y"), columns)
        assert text == oracle_table(("key", "i", "x", "y"), columns)
        assert len(text.splitlines()) == rows + 1

    def test_text_column_of_the_powerlaw_ensemble(self, tmp_path):
        assert run(["powerlaw", "--family", "sf", "--n", 24, "--ensemble", 3, "--T", 40,
                    "--out", tmp_path]) == 0
        prefix = "powerlaw_sf_n24_a0.85_T40_seed0_ens3"
        text = (tmp_path / f"{prefix}.csv").read_text()
        summary = json.loads((tmp_path / f"{prefix}_summary.json").read_text())
        keys = [line.split(",")[0] for line in text.splitlines()[1:]]
        assert sorted(keys) == sorted(summary["means"]) and len(keys) == 6
        columns = (keys, [summary["means"][k] for k in keys], [summary["stddevs"][k] for k in keys])
        assert text == oracle_table(("metric", "mean", "stddev"), columns)


@pytest.mark.parametrize("argv, flag, values", [
    (["rank", "--family", "sf", "--n", 32], "--seed", (3, 4)),
    (["powerlaw", "--family", "sf", "--n", 32, "--ensemble", 1], "--seed", (3, 4)),
    (["stability", "--family", "sf", "--n", 16, "--grid", "sweep"], "--alpha", (0.5, 0.3)),
    (["rank", "--family", "er", "--n", 32], "--p", (0.1, 0.3)),
    (["stability", "--family", "sf", "--n", 16], "--points", (4, 5)),
    (["ipr", "--family", "sf"], "--sizes", ("16,32", "32,64")),
    (["powerlaw", "--family", "sf", "--n", 32, "--ensemble", 1], "--i-max", (10, 12)),
    (["attack", "--family", "hier3", "--ensemble", 2, "--removals", 1], "--n", (9, 27)),
    # the same to six significant digits
    (["rank", "--family", "sf", "--n", 16], "--alpha", (0.1234561, 0.1234564)),
], ids=["rank-seed", "powerlaw-seed", "sweep-reference", "er-p", "coarse-points", "ipr-sizes",
        "powerlaw-i-max", "hier-gen", "alpha-seventh-digit"])
def test_runs_differing_in_one_value_keep_their_files(tmp_path, argv, flag, values):
    names = []
    for value in values:
        assert run(argv + [flag, value, "--T", 20, "--out", tmp_path / str(value)]) == 0
        names.append({path.name for path in (tmp_path / str(value)).iterdir()})
    assert names[0] and names[0].isdisjoint(names[1])
    configs = tmp_path.glob("*/*_run_config.json")
    params = [json.loads(path.read_text())["params"] for path in configs]
    assert {p[flag[2:].replace("-", "_")] for p in params} == set(values)


class TestExitCodes:
    def test_parameter_error(self, tmp_path):
        assert run(["generate", "--family", "er", "--n", 8, "--p", 1.5, "--out", tmp_path]) == 2

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("no header\n")
        assert run(["rank", "--input", bad, "--out", tmp_path]) == 3

    def test_missing_input_file(self, tmp_path):
        assert run(["rank", "--input", tmp_path / "absent.net", "--out", tmp_path]) == 3

    def test_convergence_error(self, tmp_path, capsys):
        # two 2-cycles plus a tail: at damping near 1 the power iteration
        # oscillates between the cycles for all google.DEFAULT_MAX_ITER sweeps.
        # The tail of DENSE_MAX_NODES - 3 nodes makes the graph sparse and
        # larger than DENSE_MAX_NODES, so G is structured and iterated.
        text = "0 1\n1 0\n2 3\n3 2\n" + "".join(f"{i} 0\n" for i in range(4, DENSE_MAX_NODES + 1))
        gm = google_from_graph(load_edge_list(text), 0.9999999)
        assert gm.n == DENSE_MAX_NODES + 1 and isinstance(gm.entries, RankOnePlusSparse)
        edges = tmp_path / "cycles.edges"
        edges.write_text(text)
        assert run(["rank", "--input", edges, "--alpha", 0.9999999, "--T", 10,
                    "--out", tmp_path]) == 4
        assert capsys.readouterr().err.startswith(
            "error [stage=iteration]: power iteration stalled at residual ")

    def test_small_graph_near_unit_damping_ranks(self, tmp_path):
        # the same cycles without the tail are dense and small: one solve
        edges = tmp_path / "cycles.edges"
        edges.write_text("0 1\n1 0\n2 3\n3 2\n4 0\n")
        assert run(["rank", "--input", edges, "--alpha", 0.9999999, "--T", 10,
                    "--out", tmp_path]) == 0

    def test_missing_graph_source(self, tmp_path):
        assert run(["rank", "--out", tmp_path]) == 2

    def test_attack_rejects_file_input(self, tmp_path):  # attack has no --input
        net = tmp_path / "g.net"
        net.write_text("*Vertices 2\n*Arcs\n1 2\n")
        assert run(["attack", "--input", net, "--removals", 1, "--ensemble", 2,
                    "--out", tmp_path]) == 2

    @pytest.mark.parametrize("argv, code, message", [
        (["rank", "--family", "sf", "--seed", -1], 2, "seed -1 must be >= 0"),
        (["ipr", "--family", "sf", "--sizes", "16,32", "--seed", -1], 2, "seed -1"),
        (["attack", "--family", "sf", "--n", 8, "--ensemble", 2, "--seed", -1], 2, "seed -1"),
        (["stability", "--family", "sf", "--n", 8, "--grid", "coarse", "--points", 0], 2,
         "argument --points: 0 must be >= 1"),
        (["stability", "--family", "sf", "--n", 8, "--grid", "coarse", "--points", -1], 2,
         "argument --points: -1 must be >= 1"),
        (["ipr", "--family", "sf", "--sizes", "32,a"], 2, "is not a list of integers"),
        (["ipr", "--family", "er", "--sizes", "16,16,32"], 2, "repeats a size"),
        (["powerlaw", "--family", "sf", "--n", 8, "--ensemble", 0], 2,
         "argument --ensemble: 0 must be >= 1"),
        (["powerlaw", "--family", "sf", "--n", 8, "--ensemble", -3], 2,
         "argument --ensemble: -3 must be >= 1"),
        (["rank", "--input", "NOT_UTF8"], 3, "cannot read"),
        (["rank", "--family", "sf", "--config", "NOT_UTF8"], 3, "cannot read config"),
        (["ipr", "--family", "hier3", "--sizes", "9,64"], 2,
         "hier3 graphs have n in (3, 9, 27, 81), not n=64"),
        (["rank", "--input", "NO_NODES"], 2, "at least one node"),
        # 8 removals from an 8-node graph would fail in every ensemble run
        (["attack", "--family", "sf", "--n", 8, "--ensemble", 2, "--removals", 8], 2,
         "--removals 8 must be below the node count 8"),
        (["attack", "--family", "hier3", "--n", 3, "--ensemble", 2, "--removals", 3], 2,
         "--removals 3 must be below the node count 3"),
        # parse errors are returned as exit 2, not raised as SystemExit
        (["rank", "--family", "sf", "--T", "abc"], 2, "argument --T: invalid int value: 'abc'"),
        (["stability", "--family", "sf", "--mode", "both"], 2,
         "argument --mode: invalid choice: 'both'"),
        (["rank", "--family", "sf", "--bogus", 1], 2, "unrecognized arguments: --bogus 1"),
        (["rank", "--family", "sf", "--n", 20, "--sf-delta-out", "inf"], 2,
         "sf degree offset delta_out=inf is too large"),
        (["rank", "--family", "sf", "--n", 20, "--sf-delta-in", "1e308"], 2,
         "sf degree offset delta_in=1e+308 is too large"),
        ([], 2, "the following arguments are required: command"),
        # a generated graph of impossible size
        (["stability", "--family", "hier3", "--n", 64], 2, "hier3 graphs have n in"),
        (["rank", "--family", "hier3", "--n", 243], 2, "not n=243"),
        (["attack", "--family", "hier2", "--n", 256, "--ensemble", 2], 2, "not n=256"),
        (["rank", "--family", "hier3", "--gen", 2], 2, "unrecognized arguments: --gen 2"),
        (["rank", "--family", "sf", "--n", 2], 2, "scale-free growth needs n >= 3"),
        (["powerlaw", "--family", "er", "--n", 0, "--ensemble", 3], 2, "n must be >= 1"),
        (["ipr", "--family", "sf", "--sizes", "64,2"], 2, "scale-free growth needs n >= 3"),
        # generate builds one graph in-process; ipr is sized by --sizes alone
        (["generate", "--family", "sf", "--jobs", 2], 2, "unrecognized arguments: --jobs 2"),
        (["ipr", "--family", "er", "--n", 64], 2, "unrecognized arguments: --n 64"),
    ], ids=["rank-seed", "ipr-seed", "attack-seed", "points-0", "points-neg", "sizes-not-int",
            "sizes-repeated", "powerlaw-ensemble-0", "powerlaw-ensemble-neg",
            "input-not-utf8", "config-not-utf8", "ipr-hier3", "empty-graph", "every-seed-fails",
            "hier-removals-all", "T-not-int", "mode-not-a-choice", "unknown-flag",
            "sf-delta-out-inf", "sf-delta-in-overflows", "no-subcommand",
            "hier3-n64", "hier3-n243", "hier2-n256", "gen-flag-gone", "sf-n2", "er-n0",
            "ipr-sf-size-2", "generate-jobs-gone", "ipr-n-gone"])
    def test_bad_input_exit_code(self, tmp_path, capsys, generated, argv, code, message):
        # each is rejected before any graph is generated, in one line
        files = {"NOT_UTF8": ("latin1.net", b"*Vertices 1\n1 \"caf\xe9\"\n"),
                 "NO_NODES": ("empty.edges", b"# nodes 0\n")}
        for name, data in files.values():
            (tmp_path / name).write_bytes(data)
        argv = [tmp_path / files[a][0] if a in files else a for a in argv]
        assert run(argv + ["--T=10", f"--out={tmp_path}"]) == code
        err = capsys.readouterr().err
        stage = {2: "parameters", 3: "input"}[code]
        assert err.startswith(f"error [stage={stage}]: ") and err.count("\n") == 1
        assert message in err
        assert generated == []

    def test_huge_finite_sf_offset_runs(self, tmp_path, generated):
        # 1e300 * 2n is finite: the uniform limit of the model, not an error
        assert run(["rank", "--family", "sf", "--n", 20, "--sf-delta-out", "1e300", "--T", 10,
                    "--out", tmp_path]) == 0
        assert [spec.sf_delta_out for spec in generated] == [1e300]

    def test_out_naming_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        assert run(["generate", "--family", "er", "--n", 5, "--out", afile]) == 2
        assert capsys.readouterr().err.startswith("error [stage=parameters]")

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # an edge list naming node 99999999999 asks for arrays of 1e11 entries;
        # the failed allocation is simulated, not attempted
        def too_large(g, alpha):
            raise MemoryError(f"Unable to allocate 745. GiB for an array with shape ({g.n},)")

        monkeypatch.setattr(cli, "google_from_graph", too_large)
        big = tmp_path / "big.edges"
        big.write_text("0 99999999999\n")
        assert run(["rank", "--input", big, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [stage=parameters]: out of memory")
        assert "shape (100000000000,)" in err

    @pytest.mark.parametrize("name, text", [
        ("endpoint.edges", "0 99999999999999999999\n"),
        ("count.net", "*Vertices 99999999999999999999\n*Arcs\n"),
    ])
    def test_number_beyond_any_array_is_a_parse_error(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert run(["rank", "--input", path, "--T", 10, "--out", tmp_path]) == 3
        assert capsys.readouterr().err.startswith("error [stage=input]: line 1: ")

    @pytest.mark.parametrize("family, n", [
        ("er", 2**62), ("sf", 2**62), ("sf", 10**20), ("er", 2**31),
    ])
    def test_generated_count_beyond_any_array(self, tmp_path, capsys, family, n):
        # rejected before any array is asked for: no "out of memory"
        tracemalloc.start()
        try:
            assert run(["rank", "--family", family, "--n", n, "--T", 10, "--out", tmp_path]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert capsys.readouterr().err.startswith(f"error [stage=parameters]: n={n}")

    @pytest.mark.parametrize("name, text, line", [
        ("twice.net", "*Vertices 3\n*Arcs\n1 3\n*Vertices 2\n", 4),
        ("twice.edges", "# nodes 5\n0 1\n# nodes 3\n", 3),
        ("no-count.net", "*Vertices\n", 1),
        ("bad-count.net", "*Vertices x\n", 1),
        ("negative-count.net", "*Vertices -1\n", 1),
        ("section.net", "*Vertices 2\n*Network x\n", 2),
        ("one-endpoint.net", "*Vertices 2\n*Arcs\n1\n", 3),
        ("no-section.net", "% a comment only\n", None),
        ("not-integer.edges", "0 1\n1 a\n", 2),
        ("negative.edges", "0 -1\n", 1),
        ("beyond-count.edges", "# nodes 2\n0 2\n", None),
        ("no-equals.cfg", "T=10\nalpha 0.5\n", 2),
    ], ids=["repeated-vertices", "repeated-nodes", "vertices-no-count", "vertices-bad-count",
            "vertices-negative-count", "unsupported-section", "one-endpoint", "no-section",
            "non-integer-endpoint", "negative-endpoint", "endpoint-beyond-count",
            "config-without-equals"])
    def test_malformed_file_is_a_parse_error(self, tmp_path, capsys, name, text, line):
        path = tmp_path / name
        path.write_text(text)
        flag = "--config" if name.endswith(".cfg") else "--input"
        assert run(["rank", flag, path, "--T", 10, "--out", tmp_path]) == 3
        err = capsys.readouterr().err
        if line is None:
            assert err.startswith("error [stage=input]: ") and "line" not in err
        else:
            assert err.startswith(f"error [stage=input]: line {line}: ")

    def test_hier3_generate_needs_n(self, tmp_path, capsys, generated):
        # the --n default, 64, serves sf, er and hier2; a hier3 run must give --n
        assert run(["generate", "--family", "hier3", "--out", tmp_path]) == 2
        assert capsys.readouterr().err == (
            "error [stage=parameters]: hier3 graphs have n in (3, 9, 27, 81), not n=64\n")
        assert generated == []
        assert list(tmp_path.iterdir()) == []

    def test_ipr_underflow_writes_nothing(self, tmp_path, capsys):
        # every p_i**800 of a 16-node er ranking is below the smallest double
        assert run(["ipr", "--family", "er", "--sizes", "16,32", "--r", 400, "--T", 10,
                    "--out", tmp_path]) == 2
        assert capsys.readouterr().err == (
            "error [stage=parameters]: order r=400 underflows: sum of p**800 is 0 at n=16\n")
        assert list(tmp_path.iterdir()) == []

    def test_negative_trajectory_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert run(["rank", "--family", "er", "--n", 5, "--T", 5, "--trajectory", -1,
                    "--out", out]) == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["attack", "--ensemble", 2, "--jobs", -3], "argument --jobs: -3 must be >= 1"),
        (["rank", "--T", 0], "argument --T: 0 must be >= 1"),
        (["ipr", "--sizes", "8,16", "--T", -5], "argument --T: -5 must be >= 1"),
        (["rank", "--alpha", 0], "argument --alpha: 0 must be in (0, 1)"),
        (["stability", "--grid", "sweep", "--alpha", 1.5], "argument --alpha: 1.5 must be in (0, 1)"),
        (["powerlaw", "--ensemble", 1, "--alpha", 1], "argument --alpha: 1 must be in (0, 1)"),
        (["rank", "--trajectory", -1], "argument --trajectory: -1 must be >= 0"),
        (["rank", "--config", "CONFIG"], "argument --T: 0 must be >= 1"),
        (["ipr", "--sizes", "8,16", "--r", 0], "argument --r: 0 must be >= 1"),
        (["stability", "--points", 0], "argument --points: 0 must be >= 1"),
        (["attack", "--ensemble", 2, "--removals", 0, "--T", 10],
         "argument --removals: 0 must be >= 1"),
        (["attack", "--ensemble", 0], "argument --ensemble: 0 must be >= 1"),
        (["powerlaw", "--ensemble", 0], "argument --ensemble: 0 must be >= 1"),
        (["powerlaw", "--ensemble", 2, "--i-max", 1], "argument --i-max: 1 must be >= 2"),
        (["powerlaw", "--ensemble", 2, "--i-max", 9], "--i-max 9 must not exceed the node count 8"),
        (["powerlaw", "--ensemble", 1, "--i-max", 9], "--i-max 9 must not exceed the node count 8"),
    ], ids=["jobs-negative", "T-0", "ipr-T-negative", "alpha-0", "sweep-alpha",
            "powerlaw-alpha-1", "trajectory-negative", "config-T-0", "ipr-r-0",
            "stability-points-0", "attack-removals-0", "attack-ensemble-0", "powerlaw-ensemble-0",
            "powerlaw-i-max-1", "powerlaw-i-max-above-n", "powerlaw-single-i-max-above-n"])
    def test_numeric_flag_out_of_range_exits_2(self, tmp_path, capsys, generated, argv, message):
        # rejected as the flags are read, or from them alone, before any graph is built
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T=0\n")
        argv = [cfg if a == "CONFIG" else a for a in argv]
        size = [] if argv[0] == "ipr" else ["--n", 8]  # the ipr cases carry --sizes
        assert run([argv[0], "--family", "sf", *size, *argv[1:], "--out", tmp_path]) == 2
        assert capsys.readouterr().err == f"error [stage=parameters]: {message}\n"
        assert generated == []

    def test_console_entry_point(self, tmp_path):
        # the error is one line, with no usage text; --version still exits 0
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

        def qprank(*argv):
            return subprocess.run([sys.executable, "-m", "qprank.cli", *argv], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=60)

        bad = qprank("rank", "--family", "sf", "--T", "abc")
        assert bad.returncode == 2
        assert bad.stderr == "error [stage=parameters]: argument --T: invalid int value: 'abc'\n"
        version = qprank("--version")
        assert (version.returncode, version.stdout) == (0, f"qprank {__version__}\n")
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# shared settings\nalpha=0.5\nT=40\nseed=9\n")
        out1 = tmp_path / "o1"
        assert run(["rank", "--family", "sf", "--n", 10, "--config", cfg, "--out", out1]) == 0
        assert (out1 / "rank_sf_n10_a0.5_T40_seed9.csv").exists()
        out2 = tmp_path / "o2"
        assert run(["rank", "--family", "sf", "--n", 10, "--config", cfg,
                    "--alpha", 0.85, "--out", out2]) == 0
        assert (out2 / "rank_sf_n10_a0.85_T40_seed9.csv").exists()

    def test_unknown_keys_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("removals=4\nT=30\n")
        assert run(["rank", "--family", "sf", "--n", 8, "--config", cfg,
                    "--out", tmp_path]) == 0

    @pytest.mark.parametrize("argv, entry", [
        (["generate", "--family", "sf", "--n", 8], "jobs=2"),
        (["ipr", "--family", "sf", "--sizes", "8,16", "--T", 20], "n=64"),
    ], ids=["generate-jobs", "ipr-n"])
    def test_keys_of_removed_flags_ignored(self, tmp_path, argv, entry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        assert run([*argv, "--config", cfg, "--out", tmp_path]) == 0
        config = json.loads(next(tmp_path.glob("*_run_config.json")).read_text())
        assert entry.split("=")[0] not in config["params"]

    def test_equals_form_applies_file_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=20\nT=30\n")
        assert run(["rank", "--family", "sf", f"--config={cfg}", "--out", tmp_path]) == 0
        assert (tmp_path / "rank_sf_n20_a0.85_T30_seed0.csv").exists()

    def test_trailing_config_flag_exits_2(self, tmp_path):
        assert run(["rank", "--family", "sf", "--out", tmp_path, "--config"]) == 2

    def test_file_and_flags_write_the_same_bytes(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.5\nT=40\nself_loops=yes\n")
        trees = []
        for name, extra in (("file", ["--config", cfg]),
                            ("flags", ["--alpha", 0.5, "--T", 40, "--self-loops"])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)  # the same relative --out, echoed by both
            assert run(["rank", "--family", "sf", "--n", 16, *extra, "--out", "o"]) == 0
            trees.append(tree_bytes(tmp_path / name / "o"))
        assert "rank_sf_n16_a0.5_T40_seed0_self-loops_run_config.json" in trees[0]
        assert trees[0] == trees[1]

    def test_store_true_key_honoured(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("self_loops=true\n")
        assert run(["generate", "--family", "sf", "--n", 10, "--config", cfg,
                    "--out", tmp_path]) == 0
        config = json.loads(
            (tmp_path / "generate_sf_n10_seed0_self-loops_run_config.json").read_text())
        assert config["params"]["self_loops"] is True

    @pytest.mark.parametrize("word, value", [
        ("YES", True), ("True", True), ("1", True), ("no", False), ("FALSE", False), ("0", False),
    ])
    def test_boolean_words_in_any_case(self, tmp_path, word, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"self_loops={word}\n")
        assert run(["generate", "--family", "sf", "--n", 10, "--config", cfg,
                    "--out", tmp_path]) == 0
        name = "generate_sf_n10_seed0_self-loops" if value else "generate_sf_n10_seed0"
        config = json.loads((tmp_path / f"{name}_run_config.json").read_text())
        assert config["params"]["self_loops"] is value

    @pytest.mark.parametrize("command, entry", [
        ("rank", "alpha=abc"),
        ("stability", "grid=bogus"),
        ("attack", "mode=bogus"),
        ("ipr", "mode=bogus"),
        ("stability", "mode=both"),
        ("rank", "self_loops=maybe"),
        ("rank", "T=0"),  # wrong even where the command line's --T overrides it
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, generated, command, entry):
        # rejected as the flags are read, before any graph is built, naming key and value
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        size = ["--sizes", "8,16"] if command == "ipr" else ["--n", 8]
        assert run([command, "--family", "sf", *size, "--T", 20, "--config", cfg,
                    "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [stage=parameters]: ") and err.count("\n") == 1
        key, value = entry.split("=")
        assert key.replace("_", "-") in err.replace("_", "-") and value in err
        assert generated == []


def strict_json(text: str):
    """json.loads that rejects NaN and the infinities, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["rank", "--family", "sf", "--n", 16, "--T", 1],  # one double-step: no half-horizon gap
    ["ipr", "--family", "er", "--sizes", "16,32", "--T", 10],
    ["stability", "--family", "sf", "--n", 12, "--points", 3, "--T", 10],
    ["powerlaw", "--family", "sf", "--n", 16, "--ensemble", 2, "--T", 10],
    ["attack", "--family", "sf", "--n", 16, "--ensemble", 2, "--removals", 2, "--T", 10],
    ["generate", "--family", "er", "--n", 8],
], ids=lambda argv: argv[0])
def test_every_record_is_strict_json(tmp_path, argv):
    assert run([*argv, "--out", tmp_path]) == 0
    records = sorted(tmp_path.glob("*_summary.json")) + sorted(tmp_path.glob("*_run_config.json"))
    assert len(records) == (1 if argv[0] == "generate" else 2)
    for path in records:
        strict_json(path.read_text())
    if argv[0] == "rank":
        summary = strict_json(next(tmp_path.glob("*_summary.json")).read_text())
        assert summary["quantum_convergence_sup_gap"] is None


@pytest.mark.parametrize("argv, artifacts", [
    (["generate", "--family", "er", "--n", 8],
     {".edges", ".net", "_degrees.csv", "_run_config.json"}),
    (["rank", "--family", "sf", "--n", 8, "--T", 10, "--trajectory", 2],
     {".csv", "_trajectory2.csv", "_summary.json", "_run_config.json"}),
    (["ipr", "--family", "er", "--sizes", "8,16", "--mode", "both", "--T", 10],
     {".csv", "_summary.json", "_run_config.json"}),
    (["stability", "--family", "sf", "--n", 8, "--points", 3, "--T", 10],
     {"_fidelity.csv", "_distance.csv", "_summary.json", "_run_config.json"}),
    (["stability", "--family", "sf", "--n", 8, "--grid", "sweep", "--T", 10],
     {".csv", "_summary.json", "_run_config.json"}),
    (["powerlaw", "--family", "sf", "--n", 16, "--ensemble", 1, "--T", 10],
     {"_quantum.csv", "_classical.csv", "_summary.json", "_run_config.json"}),
    (["powerlaw", "--family", "sf", "--n", 16, "--ensemble", 2, "--T", 10],
     {".csv", "_summary.json", "_run_config.json"}),
    (["attack", "--family", "sf", "--n", 8, "--ensemble", 2, "--removals", 1, "--T", 10],
     {".csv", "_summary.json", "_run_config.json"}),
], ids=["generate", "rank", "ipr", "stability-coarse", "stability-sweep", "powerlaw-single",
        "powerlaw-ensemble", "attack"])
def test_each_table_is_written_once(tmp_path, argv, artifacts):
    # every table is one CSV: no gnuplot .dat copy and no text dump of G
    assert run([*argv, "--out", tmp_path]) == 0
    (config,) = tmp_path.glob("*_run_config.json")
    prefix = config.name.removesuffix("_run_config.json")
    names = {path.name for path in tmp_path.iterdir()}
    assert names == {prefix + suffix for suffix in artifacts}
    assert not any(name.endswith((".dat", "_google.txt")) for name in names)
    if argv[0] == "powerlaw" and "_quantum.csv" in artifacts:
        g = graphs.generate(graphs.GeneratorSpec(family="sf", n=16))
        for mode in analysis.MODES:
            p = analysis.importance_vector(g, mode, alpha=0.85, horizon=10)
            ranked = p[analysis.ranking_order(p)]
            positive = ranked > 0
            expected = oracle_table(("log_rank_index", "log_importance"),
                                    (np.log(np.flatnonzero(positive) + 1), np.log(ranked[positive])))
            assert (tmp_path / f"{prefix}_{mode}.csv").read_text() == expected


class TestIprCommand:
    def test_example_invocation_reports_delocalized(self, tmp_path):
        assert run(["ipr", "--family", "er", "--sizes", "16,32,64", "--alpha", 0.85,
                    "--mode", "quantum", "--T", 150, "--seed", 4, "--out", tmp_path]) == 0
        summary = json.loads(
            (tmp_path / "ipr_er_a0.85_r1_T150_seed4_sizes16-32-64_summary.json").read_text()
        )
        assert summary["quantum"]["classification"] == "delocalized"

    def test_rejects_single_size(self, tmp_path):
        assert run(["ipr", "--family", "er", "--sizes", "32", "--out", tmp_path]) == 2

    @pytest.mark.parametrize("family, sizes, slopes, label", [
        ("hier3", "9,27,81", (-0.322, -0.404), "intermediate"),
        ("hier2", "8,16,32,64,128", (-1.012, -0.999), "delocalized"),
    ])
    def test_hierarchy_sizes_are_node_counts(self, tmp_path, family, sizes, slopes, label):
        assert run(["ipr", "--family", family, "--sizes", sizes, "--mode", "both",
                    "--out", tmp_path]) == 0
        summary = json.loads(next(tmp_path.glob("ipr_*_summary.json")).read_text())
        for mode, slope in zip(("quantum", "classical"), slopes):
            assert round(summary[mode]["slope"], 3) == slope
            assert summary[mode]["classification"] == label


class TestStabilityCommand:
    def test_unit_diagonal(self, tmp_path):
        assert run(["stability", "--family", "sf", "--n", 12, "--grid", "coarse",
                    "--points", 5, "--T", 40, "--seed", 3, "--out", tmp_path]) == 0
        prefix = "stability_sf_n12_T40_seed3_points5_coarse_quantum"
        with open(tmp_path / f"{prefix}_fidelity.csv") as fh:
            rows = list(csv.reader(fh))
        for i in range(1, len(rows)):
            assert float(rows[i][i]) == pytest.approx(1.0, abs=1e-12)
        summary = json.loads((tmp_path / f"{prefix}_summary.json").read_text())
        assert 0.0 <= summary["min_fidelity"] <= 1.0

    def test_sweep_mode(self, tmp_path):
        assert run(["stability", "--family", "sf", "--n", 10, "--grid", "sweep", "--points", 98,
                    "--T", 30, "--seed", 1, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "stability_sf_n10_a0.85_T30_seed1_points98_sweep_quantum.csv")
        assert len(rows) == 98
        ref_row = min(rows, key=lambda r: abs(float(r["alpha"]) - 0.85))
        assert float(ref_row["fidelity_vs_ref"]) == pytest.approx(1.0, abs=1e-12)

    def test_sweep_takes_its_size_from_points(self, tmp_path):
        assert run(["stability", "--family", "sf", "--n", 10, "--grid", "sweep", "--points", 5,
                    "--T", 30, "--seed", 1, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "stability_sf_n10_a0.85_T30_seed1_points5_sweep_quantum.csv")
        assert [float(row["alpha"]) for row in rows] == list(analysis.coarse_alpha_grid(5))

    def test_sweep_reference_is_alpha(self, tmp_path):
        # the 98-point grid holds 0.3 itself
        assert run(["stability", "--family", "sf", "--n", 10, "--grid", "sweep", "--alpha", 0.3,
                    "--points", 98, "--T", 30, "--seed", 1, "--out", tmp_path]) == 0
        prefix = "stability_sf_n10_a0.3_T30_seed1_points98_sweep_quantum"
        assert json.loads((tmp_path / f"{prefix}_summary.json").read_text())["alpha_ref"] == 0.3
        rows = read_rows(tmp_path / f"{prefix}.csv")
        ref_row = min(rows, key=lambda r: abs(float(r["alpha"]) - 0.3))
        assert float(ref_row["fidelity_vs_ref"]) == pytest.approx(1.0, abs=1e-12)
        assert float(ref_row["distance_vs_ref"]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["quantum", "classical"])
    def test_sweep_rows_are_the_scalar_metrics_bit_for_bit(self, tmp_path, mode):
        assert run(["stability", "--family", "sf", "--n", 12, "--grid", "sweep", "--alpha", 0.6,
                    "--mode", mode, "--T", 30, "--seed", 2, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / f"stability_sf_n12_a0.6_T30_seed2_sweep_{mode}.csv")
        g = graphs.generate(graphs.GeneratorSpec(family="sf", n=12, seed=2))
        ref = analysis.importance_vector(g, mode, alpha=0.6, horizon=30)
        for row in rows:
            v = analysis.importance_vector(g, mode, alpha=float(row["alpha"]), horizon=30)
            assert float(row["fidelity_vs_ref"]) == classical_fidelity(v, ref)
            assert float(row["distance_vs_ref"]) == qpr_distance(v, ref)

    @pytest.mark.parametrize("grid, ranked", [
        ("coarse", analysis.coarse_alpha_grid(5)),
        ("fine", analysis.coarse_alpha_grid(98)),
        ("sweep", [0.3, *analysis.coarse_alpha_grid(5)]),
    ], ids=["coarse", "fine", "sweep"])
    def test_one_ranking_per_damping_value(self, tmp_path, monkeypatch, grid, ranked):
        # a sweep ranks its reference --alpha first, in the same map as the grid
        calls = []
        rank_one = cli.importance_item
        monkeypatch.setattr(cli, "importance_item", lambda item: calls.append(item) or rank_one(item))
        assert run(["stability", "--family", "sf", "--n", 8, "--grid", grid, "--points", 5,
                    "--alpha", 0.3, "--T", 10, "--out", tmp_path]) == 0
        assert [item[2] for item in calls] == list(ranked)

    def test_sweep_bad_reference_fails_before_the_grid(self, tmp_path, monkeypatch):
        calls = []
        ranked = cli.importance_item
        monkeypatch.setattr(cli, "importance_item", lambda item: calls.append(item) or ranked(item))
        assert run(["stability", "--family", "sf", "--n", 10, "--grid", "sweep", "--alpha", 1.5,
                    "--T", 30, "--out", tmp_path]) == 2
        assert calls == []

    def test_file_input_names_carry_no_seed(self, tmp_path):
        # the seed does nothing for a graph file, so it does not name the run
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n2 0\n")
        names = []
        for seed in (0, 5):
            out = tmp_path / f"seed{seed}"
            assert run(["stability", "--input", edges, "--seed", seed, "--points", 3, "--T", 10,
                        "--out", out]) == 0
            names.append(sorted(path.name for path in out.iterdir()))
        assert names[0] == names[1]
        assert "stability_g_n3_T10_points3_coarse_quantum_summary.json" in names[0]
        assert not any("seed" in name for name in names[0])

    @pytest.mark.parametrize("n, grid, extra, alphas", [
        (40, "coarse", ["--points", 6], analysis.coarse_alpha_grid(6)),
        (40, "fine", [], analysis.coarse_alpha_grid(98)),
        (40, "sweep", ["--alpha", 0.6, "--points", 98], [0.6, *analysis.coarse_alpha_grid(98)]),
        (160, "coarse", ["--points", 3], analysis.coarse_alpha_grid(3)),  # structured G, twins
    ], ids=["coarse", "fine", "sweep", "structured-coarse"])
    def test_artifacts_are_the_oracle_writers(self, tmp_path, n, grid, extra, alphas):
        assert run(["stability", "--family", "sf", "--n", n, "--grid", grid, *extra, "--T", 100,
                    "--seed", 2, "--out", tmp_path]) == 0
        g = graphs.generate(graphs.GeneratorSpec(family="sf", n=n, seed=2))
        vectors = [analysis.importance_vector(g, "quantum", alpha=float(a), horizon=100)
                   for a in alphas]
        fid = [[classical_fidelity(p, q) for q in vectors] for p in vectors]
        dist = [[qpr_distance(p, q) for q in vectors] for p in vectors]
        if grid == "sweep":
            sweep = (alphas[1:], fid[0][1:], dist[0][1:])
            header = ("alpha", "fidelity_vs_ref", "distance_vs_ref")
            expected = {".csv": oracle_table(header, sweep)}
        else:
            header = ("alpha", *map(oracle_cell, alphas))
            expected = {"_fidelity.csv": oracle_table(header, (alphas, *zip(*fid))),
                        "_distance.csv": oracle_table(header, (alphas, *zip(*dist)))}
        for suffix, text in expected.items():
            (path,) = tmp_path.glob(f"stability_*_{grid}_quantum{suffix}")
            assert path.read_text() == text, suffix

    def test_fine_grid_output_is_streamed(self, tmp_path):
        # the two 98 x 99 grid tables' text is written a block of rows at a time, not
        # built whole; an untraced first run takes the one-time allocations of a fresh process
        argv = ["stability", "--family", "sf", "--n", 256, "--grid", "fine",
                "--mode", "classical", "--out", tmp_path]
        assert run(argv) == 0
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestPowerlawCommand:
    def test_single_instance_modes(self, tmp_path):
        assert run(["powerlaw", "--family", "sf", "--n", 32, "--ensemble", 1,
                    "--T", 60, "--seed", 5, "--mode", "both", "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / "powerlaw_sf_n32_a0.85_T60_seed5_summary.json").read_text())
        assert summary["quantum"]["beta"] > 0
        assert summary["classical"]["beta"] > 0

    @pytest.mark.parametrize("mode", ["quantum", "classical"])
    def test_star_fits_its_whole_ranking(self, tmp_path, mode):
        # one top node, then one tie class: the window before the tail is one entry
        star = tmp_path / "star.edges"
        star.write_text("".join(f"{leaf} 0\n" for leaf in range(1, 6)))
        assert run(["powerlaw", "--input", star, "--mode", mode, "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / f"powerlaw_star_n6_a0.85_T1000_mode{mode}_summary.json")
                             .read_text())
        assert summary[mode]["i_max"] == 6

    def test_ensemble_report(self, tmp_path):
        assert run(["powerlaw", "--family", "sf", "--n", 24, "--ensemble", 3,
                    "--T", 40, "--seed", 2, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "powerlaw_sf_n24_a0.85_T40_seed2_ens3.csv")
        metrics = {r["metric"] for r in rows}
        assert {"beta_quantum", "beta_classical"} <= metrics


class TestAttackCommand:
    def test_example_invocation_shape(self, tmp_path):
        assert run(["attack", "--family", "sf", "--n", 10, "--removals", 3,
                    "--ensemble", 4, "--mode", "both", "--T", 50, "--seed", 1,
                    "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "attack_sf_n10_a0.85_T50_seed1_removals3_ens4.csv")
        assert len(rows) == 3
        assert {"removals", "kendall_quantum_mean", "kendall_quantum_std",
                "kendall_classical_mean", "kendall_classical_std"} <= set(rows[0])
        for row in rows:
            assert 0.0 <= float(row["kendall_quantum_mean"]) <= 1.0
        summary = json.loads(
            (tmp_path / "attack_sf_n10_a0.85_T50_seed1_removals3_ens4_summary.json").read_text())
        assert summary["failures"] == 0
        assert summary["failure_messages"] == []

    def test_jobs_do_not_change_bytes(self, tmp_path):
        outs = []
        for jobs, name in ((1, "s"), (3, "p")):
            out = tmp_path / name
            assert run(["attack", "--family", "sf", "--n", 10, "--removals", 2,
                        "--ensemble", 4, "--T", 40, "--seed", 6, "--jobs", jobs,
                        "--out", out]) == 0
            outs.append(out)
        serial, parallel = (tree_bytes(o) for o in outs)
        # run_config echoes the jobs flag; every data artifact must match
        for name in serial:
            if name.endswith("run_config.json"):
                continue
            assert serial[name] == parallel[name]


@pytest.fixture
def pools(monkeypatch) -> list:
    """The max_workers of each process pool opened; a recorder stands in for
    the pool, so no process is started."""
    opened = []

    class Recorder:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return opened


@pytest.mark.parametrize("jobs, items, workers", [
    (10**6, 20, 8),  # never more processes than usable CPUs
    (5, 3, 3),  # nor than items
    (3, 20, 3),
    (2, 1, None),  # one item, or one worker, runs in this process
    (1, 20, None),
])
def test_pool_is_capped_at_the_machine(monkeypatch, pools, jobs, items, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert cli.parallel_map(abs, range(-items, 0), jobs) == list(range(items, 0, -1))
    assert pools == ([] if workers is None else [workers])


@pytest.mark.parametrize("cpus, jobs, workers", [
    (4, 8, 4),  # the machine's CPU count caps the pool
    (4, 1, None),  # one job runs in this process
    (None, 8, None),  # an unknown CPU count is taken as one
])
def test_pool_without_sched_getaffinity(monkeypatch, pools, cpus, jobs, workers):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cli.parallel_map(abs, range(-5, 0), jobs) == [5, 4, 3, 2, 1]
    assert pools == ([] if workers is None else [workers])


GENERATOR_DESTS = ("seed", "p", "sf_alpha", "sf_beta", "sf_delta_in", "sf_delta_out")


@pytest.mark.parametrize("command", ["generate", "rank", "ipr", "stability", "powerlaw", "attack"])
def test_generator_flag_defaults_are_the_specs(command):
    # the class attributes of GeneratorSpec are the one source of both
    sp = build_parser()[1][command]
    spec = graphs.GeneratorSpec("sf", n=16)
    for dest in GENERATOR_DESTS:
        assert sp.get_default(dest) == getattr(graphs.GeneratorSpec, dest) == getattr(spec, dest)


def test_run_config_records_the_numerical_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    assert run(["rank", "--family", "sf", "--n", 8, "--T", 10, "--out", tmp_path]) == 0
    env = json.loads(next(tmp_path.glob("*_run_config.json")).read_text())["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env == {"numpy": np.__version__, "blas": blas.get("name"),
                   "blas_version": blas.get("version"), "OPENBLAS_NUM_THREADS": "1",
                   "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2"}


# Flags a subcommand defines but does not read, and why they stay.
UNREAD_ALLOWED = {
    "rank.jobs": "bench/run.py passes --jobs 1 to every workload, rank_sf2048's included",
}

# Runs that between them take every branch that reads a flag.
FLAG_RUNS = [
    ["generate", "--family", "sf", "--n", 8],
    ["rank", "--family", "sf", "--n", 8, "--T", 10, "--trajectory", 3, "--jobs", 1],
    ["ipr", "--family", "sf", "--sizes", "8,16", "--T", 10],
    ["stability", "--family", "sf", "--n", 8, "--points", 3, "--T", 10],
    ["stability", "--family", "sf", "--n", 8, "--grid", "sweep", "--T", 10],
    ["powerlaw", "--family", "sf", "--n", 16, "--ensemble", 1, "--T", 10],
    ["powerlaw", "--family", "sf", "--n", 16, "--ensemble", 2, "--i-max", 5, "--T", 10],
    ["attack", "--family", "sf", "--n", 8, "--ensemble", 2, "--removals", 1, "--T", 10],
]


def test_every_flag_is_read(tmp_path, monkeypatch):
    # a read is an attribute access on the parsed namespace once parsing
    # is done; argparse's own accesses and the echo of vars(args) do not count
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parse = cli._Parser.parse_args

    def parse_args(self, args=None, namespace=None):
        before = set(reads)
        namespace = parse(self, args, Recording())
        reads.intersection_update(before)
        return namespace

    monkeypatch.setattr(cli._Parser, "parse_args", parse_args)
    _, subparsers = build_parser()
    unread = {f"{name}.{action.dest}" for name, sp in subparsers.items()
              for action in sp._actions if action.dest != "help"}
    for argv in FLAG_RUNS:
        reads.clear()
        assert run([*argv, "--out", tmp_path]) == 0
        unread -= {f"{argv[0]}.{name}" for name in reads}
    assert set(UNREAD_ALLOWED) <= unread, "stale UNREAD_ALLOWED entries"
    assert sorted(unread - set(UNREAD_ALLOWED)) == []


README = Path(__file__).resolve().parent.parent / "README.md"

# `module.NAME` followed by "(value)" or "= value"
DOCUMENTED_CONSTANT = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)`\s*(?:\(([^)]+)\)|=\s*([^\s,;)]+))")


def stale_constants(text: str) -> list[str]:
    """Each documented constant that qprank lacks or holds at another value."""
    stale = []
    for match in DOCUMENTED_CONSTANT.finditer(text):
        module, name, value = match[1], match[2], match[3] or match[4]
        actual = getattr(importlib.import_module(f"qprank.{module}"), name, None)
        if actual is None or float(Fraction(value)) != actual:
            stale.append(match[0])
    return stale


FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def undefined_flags(text: str) -> list[str]:
    """Each `--flag` of ``text`` that no qprank parser defines; `pip` lines
    name pip's own flags and are skipped."""
    parser, subparsers = build_parser()
    defined = {option for p in (parser, *subparsers.values())
               for action in p._actions for option in action.option_strings}
    lines = [line for line in text.splitlines() if not line.strip().startswith("pip ")]
    return [flag for line in lines for flag in FLAG.findall(line) if flag not in defined]


class TestReadme:
    def test_documented_flags_exist(self):
        text = README.read_text()
        assert len(FLAG.findall(text)) >= 20
        assert undefined_flags(text) == []

    def test_undefined_flags_are_found(self):
        text = "`--T`, `--max-iter` or `--ensemble` below 1; `--tol`; --sf-delta-in/--sf-gamma"
        assert undefined_flags(text) == ["--max-iter", "--tol", "--sf-gamma"]

    def test_documented_constants_match_the_code(self):
        text = README.read_text()
        assert len(DOCUMENTED_CONSTANT.findall(text)) >= 4
        assert stale_constants(text) == []

    def test_stale_constants_are_found(self):
        stale = ["`google.DENSE_MAX_NODES` (160)", "`analysis.TIE_RTOL` =\n1e-9",
                 "`walk.NO_SUCH_NAME` = 160"]
        assert stale_constants(" and ".join(stale)) == stale
        assert stale_constants("`google.STRUCTURED_MAX_DENSITY` (1/64)") == []

    def test_paper_experiments_list_criterion_7(self):
        # the acceptance gate runs these lines, criterion 7's two and the ER
        # attack's two; the README must show the same ones
        block = README.read_text().split("## Paper experiments", 1)[1].split("```")[1]
        lines = [line.strip() for line in block.splitlines()]
        for argv in (STABILITY_QUANTUM_ARGV, STABILITY_CLASSICAL_ARGV, *ATTACK_ER_ARGVS):
            assert shlex.join(("qprank", *argv)) in lines

    def test_documented_invocations_parse(self):
        readme = README.read_text()
        blocks = re.findall(r"^ *```[^\n]*\n(.*?)^ *```", readme, flags=re.M | re.S)
        lines = [line.strip() for block in blocks for line in block.splitlines()
                 if line.strip().startswith("qprank ")]
        assert lines
        parser, _ = build_parser()
        for line in lines:
            # shell variables in the recipes stand for a seed or a node count
            argv = ["1000" if tok.startswith("$") else tok for tok in shlex.split(line)[1:]]
            try:
                parser.parse_args(argv)
            except ParameterError:
                pytest.fail(f"README invocation does not parse: {line}")


@pytest.mark.skipif(epa_path() is None, reason="EPA Pajek file not present")
class TestEpaCli:
    def test_rank_top_share_inequality(self, tmp_path):
        path = epa_path()
        assert run(["rank", "--input", path, "--T", 1000, "--out", tmp_path]) == 0
        summaries = list(tmp_path.glob("rank_*_summary.json"))
        summary = json.loads(summaries[0].read_text())
        assert summary["top_share_classical"] > summary["top_share_quantum"]

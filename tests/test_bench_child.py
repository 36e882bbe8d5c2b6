"""The names that bench/child.py patches exist, with the call shapes it assumes.

The benchmark times each layer by replacing module and class attributes by
name, so a function that is renamed, moved, or no longer looked up through
the patched binding would drop its span without an error. These tests run
the benchmark's child interpreter on tiny CLI invocations, read only the
spans and items it reports, and change nothing under bench/.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def patched_span_names() -> set[str]:
    """Every span name child.py gives a wrapper: the first field of each
    ``bindings`` entry and each literal name passed to ``wrap``."""
    names = set()
    for node in ast.walk(ast.parse(CHILD.read_text())):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "bindings" for t in node.targets
        ):
            names |= {entry.elts[0].value for entry in node.value.elts}
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
    return names


def run_child(out: Path, hook: str, argvs: list[list[str]]) -> tuple[dict, list[dict]]:
    """One traced child pass; its result line and its spans."""
    spans = out / f"{hook}_spans.jsonl"
    spec = {"argvs": [argv + ["--out", str(out)] for argv in argvs], "hook": hook,
            "trace": 1, "run_id": hook, "spans": str(spans)}
    proc = subprocess.run(
        [sys.executable, str(CHILD), json.dumps(spec)], capture_output=True, text=True,
        cwd=out, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [call["exit"] for call in result["calls"]] == [0] * len(argvs)
    return result, [json.loads(line) for line in spans.read_text().splitlines()]


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_child")
    ensemble = run_child(out, "ensemble_member", [
        ["attack", "--family", "sf", "--n", "8", "--removals", "2", "--ensemble", "2",
         "--seed", "3", "--T", "10"],
        ["rank", "--family", "sf", "--n", "16", "--T", "10"],
    ])
    damping = run_child(out, "damping_value", [
        ["stability", "--family", "sf", "--n", "8", "--grid", "coarse", "--points", "3",
         "--T", "10"],
    ])
    return ensemble, damping


def test_span_names_are_read_from_child():
    names = patched_span_names()
    assert {"walk.init", "walk.average", "cli.main", "google.google_from_graph",
            "analysis.ranking_order"} <= names


def test_every_patched_name_records_a_span(passes):
    (_, ensemble_spans), (_, damping_spans) = passes
    seen = {span["name"] for span in ensemble_spans + damping_spans}
    assert patched_span_names() - seen == set()


def test_span_attributes_have_their_shape(passes):
    (_, spans), _ = passes
    walks = [span["attrs"] for span in spans if span["name"] == "walk.average"]
    assert walks and all(attrs["T"] == 10 and attrs["n"] >= 2 for attrs in walks)
    runs = [span["attrs"] for span in spans if span["name"] == "analysis.ensemble_run"]
    assert runs == [{"attempted": 2, "failed": 0}]


def test_item_hooks_see_their_items(passes):
    (ensemble, _), (damping, _) = passes
    assert [key for key, _, _ in ensemble["items"]] == [3, 4]  # ensemble seeds
    assert [key for key, _, _ in damping["items"]] == pytest.approx([0.01, 0.495, 0.98])


@pytest.fixture(scope="module")
def structured_grid(tmp_path_factory):
    """A damping grid on a structured G with twin classes (sf n = 160)."""
    out = tmp_path_factory.mktemp("bench_child_structured")
    return run_child(out, "damping_value", [
        ["stability", "--family", "sf", "--n", "160", "--grid", "coarse", "--points", "3",
         "--T", "100"],
    ])


def test_structured_grid_times_one_item_and_one_walk_per_damping_value(structured_grid):
    result, spans = structured_grid
    assert [key for key, _, _ in result["items"]] == pytest.approx([0.01, 0.495, 0.98])
    assert sum(span["name"] == "walk.init" for span in spans) == 3
    assert sum(span["name"] == "analysis.pairwise_stability" for span in spans) == 1

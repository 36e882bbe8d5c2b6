"""The package's immutable value classes: the six analysis records, which are
NamedTuples, and the graphs.Frozen classes GeneratorSpec, RankOnePlusSparse
and GoogleMatrix. Each pickles, as process pools need, refuses assignment
and deletion, and checks its arguments when it is built."""

import functools
import pickle

import numpy as np
import pytest

from qprank import analysis
from qprank.errors import ParameterError
from qprank.google import GoogleMatrix, RankOnePlusSparse, build_structured_google, google_from_graph
from qprank.graphs import Frozen, GeneratorSpec, generate

SPEC = GeneratorSpec(family="sf", n=16, p=0.3, seed=5)
GRAPH = generate(SPEC)
VECTORS = [analysis.importance_vector(GRAPH, "classical", alpha=a) for a in (0.3, 0.6, 0.85)]
VALUES = {
    "GeneratorSpec": SPEC,
    "GoogleMatrix-dense": google_from_graph(GRAPH, 0.85),
    "GoogleMatrix-structured": build_structured_google(GRAPH, 0.85),
    "RankOnePlusSparse": build_structured_google(GRAPH, 0.85).entries,
    "IprSample": analysis.ipr(VECTORS[0]),
    "IprScaling": analysis.ipr_scaling([analysis.ipr(np.full(n, 1 / n)) for n in (4, 8)]),
    "StabilityGrid": analysis.pairwise_stability(VECTORS),
    "PowerLawFit": analysis.power_law_fit(np.sort(VECTORS[0])[::-1]),
    "AttackRun": analysis.attack_experiment(GRAPH, 2, mode="classical"),
    "EnsembleReport": analysis.ensemble_run(SPEC, 2, functools.partial(
        analysis.attack_metrics, removals=1, modes=("classical",))),
}


def fields(value) -> dict:
    return dict(vars(value)) if isinstance(value, Frozen) else value._asdict()


def assert_same(a, b):
    assert type(a) is type(b)
    fa, fb = fields(a), fields(b)
    assert list(fa) == list(fb)
    for name, x in fa.items():
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, fb[name])
            assert x.dtype == fb[name].dtype
        elif isinstance(x, Frozen):
            assert_same(x, fb[name])
        else:
            assert x == fb[name], name


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_pickle_round_trip(value):
    assert_same(pickle.loads(pickle.dumps(value)), value)


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_fields_cannot_be_set_or_deleted(value):
    for name in [*fields(value), "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert_same(pickle.loads(pickle.dumps(value)), value)  # nothing changed


@pytest.mark.parametrize("value", [v for v in VALUES.values() if isinstance(v, Frozen)],
                         ids=[k for k, v in VALUES.items() if isinstance(v, Frozen)])
def test_frozen_fields_are_the_declared_annotations(value):
    # the field-read check of test_dependencies.py finds fields by annotation
    assert list(vars(value)) == list(type(value).__annotations__)


def test_spec_equality_hash_and_repr():
    fresh = GeneratorSpec("sf", n=16, p=0.3, seed=5)
    assert fresh == SPEC and hash(fresh) == hash(SPEC)
    assert SPEC != SPEC.replace(seed=6) and SPEC != GRAPH
    assert repr(SPEC) == ("GeneratorSpec(family='sf', n=16, p=0.3, sf_alpha=0.41, sf_beta=0.54, "
                          "sf_delta_in=0.2, sf_delta_out=0.0, seed=5, allow_self_loops=False)")


def test_google_matrix_equality_is_identity():
    gm = VALUES["GoogleMatrix-dense"]
    assert gm == gm and gm != google_from_graph(GRAPH, 0.85)
    assert repr(gm).startswith("GoogleMatrix(n=16, alpha=0.85, entries=array(")


@pytest.mark.parametrize("changes, message", [
    (dict(seed=-1), "seed -1 must be >= 0"),
    (dict(n=2), "scale-free growth needs n >= 3"),
    (dict(family="hier3"), "hier3 graphs have n in"),
])
def test_a_bad_spec_raises_when_built_or_replaced(changes, message):
    with pytest.raises(ParameterError, match=message):
        GeneratorSpec(**{**fields(SPEC), **changes})
    with pytest.raises(ParameterError, match=message):
        SPEC.replace(**changes)


@pytest.mark.parametrize("form", ["dense", "structured"])
def test_google_matrix_with_a_column_off_by_1e_9_raises(form):
    gm = VALUES[f"GoogleMatrix-{form}"]
    if form == "dense":
        bad = gm.entries.copy()
        bad[3, 7] += 1e-9
    else:
        e = gm.entries
        vals = e.vals.copy()
        vals[0] += 1e-9  # column e.cols[0]
        bad = RankOnePlusSparse(e.u, e.v, e.rows, e.cols, vals)
    with pytest.raises(ParameterError, match="columns must sum to 1"):
        GoogleMatrix(16, 0.85, bad)


def test_ensemble_specs_equal_fresh_ones():
    items = []

    def recording_map(fn, batch):
        items.extend(batch)
        return map(fn, batch)

    analysis.ensemble_run(SPEC, 3, lambda g: {"n": g.n}, map_fn=recording_map)
    assert [spec for spec, _ in items] == [
        GeneratorSpec("sf", n=16, p=0.3, seed=seed) for seed in (5, 6, 7)]
    assert [spec.seed for spec, _ in items] == [5, 6, 7]

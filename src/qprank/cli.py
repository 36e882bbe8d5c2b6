"""Command line front end.

Subcommands cover graph generation, combined classical/quantum ranking, and
the experiment suite (ipr, stability, powerlaw, attack). Every run writes
each of its tables once, as CSV, and its summary as JSON into the output
directory, alongside an echo of the exact run configuration, so identical
invocations produce byte-identical outputs.

The parser is the one check of a flag value: a ``--config`` file's entries
are read as flags placed before the command line's, and every wrong type,
choice or range, from either source, is a parameter error naming the flag
before any graph is built.

Exit codes: 0 success, 2 parameter error, 3 input parse error, 4 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, graphs, walk
from .errors import ConvergenceError, ParameterError, ParseError
from .google import DEFAULT_ALPHA, classical_pagerank, google_from_graph

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_PARSE = 3
EXIT_CONVERGENCE = 4

OUT_ENV_VAR = "QPRANK_OUT"


def _make_parent(path: Path) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot use output directory {path.parent}: {exc}") from None


def _write_text(path: Path, text: str) -> None:
    _make_parent(path)
    path.write_text(text)


def format_values(m) -> list:
    """The entries of ``m`` as float64 text with 17 significant digits,
    ``format(float(x), ".17g")``, in nested lists of m's shape.

    Each distinct value (by bit pattern) is formatted once: a symmetric
    stability grid holds about half as many as it has entries.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    bits, index = np.unique(m.view(np.int64), return_inverse=True)
    text = np.array([format(v, ".17g") for v in bits.view(np.float64).tolist()], dtype=object)
    return text[index.reshape(m.shape)].tolist()


# The writer formats and writes a table this many rows at a time, so that the
# text of a long table is never held whole (rank's has n rows, --trajectory's t * n).
TABLE_BLOCK_ROWS = 1024


def _write_table(path: Path, header, columns) -> None:
    """Write the header, then one comma-separated line per row of
    ``columns``, the table's columns of equal length.

    A column of str is written as it is; every other column is numeric, and
    its cells are ``format(float(x), ".17g")`` (17 significant digits; an
    integer up to 2**53 exactly). Rows go out a block of TABLE_BLOCK_ROWS at
    a time, each distinct value among a block's numeric cells formatted once
    (``format_values``).
    """
    columns = [np.asarray(column) for column in columns]
    _make_parent(path)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), TABLE_BLOCK_ROWS):
            block = [column[start:start + TABLE_BLOCK_ROWS] for column in columns]
            numbers = iter(format_values([c for c in block if c.dtype.kind != "U"]))
            cells = [c.tolist() if c.dtype.kind == "U" else next(numbers) for c in block]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# The settings a BLAS build reads for its thread count. The closed-form walk's
# last bits can change with that count, and with numpy and BLAS, so every run
# records them beside its flags.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _numerical_environment() -> dict:
    """numpy's version, the BLAS it was built with (None where its build
    config does not say) and each of BLAS_THREAD_VARS as set, else None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # no dict form before numpy 1.26
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def parallel_map(fn, items, jobs: int) -> list:
    """Order-preserving map over a process pool of at most ``jobs`` workers,
    one per item and per usable CPU, or in this process when that is one.

    Results are assembled in input order, so outputs do not depend on jobs.
    """
    items = list(items)
    # macOS and Windows have no sched_getaffinity: all the machine's CPUs count there
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(items), cpus)
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # imported on use: it pulls in multiprocessing
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def importance_item(item) -> np.ndarray:
    """Top-level worker for process pools: one importance vector."""
    g, mode, alpha, horizon = item
    return analysis.importance_vector(g, mode, alpha=alpha, horizon=horizon)


# ---------------------------------------------------------------------------
# Graph sources
# ---------------------------------------------------------------------------


def _spec_from_args(args, n: int | None = None, seed: int | None = None) -> graphs.GeneratorSpec:
    if args.family is None:
        raise ParameterError("a graph source is required: --family, or --input where supported")
    return graphs.GeneratorSpec(
        family=args.family,
        n=args.n if n is None else n,
        p=args.p,
        sf_alpha=args.sf_alpha,
        sf_beta=args.sf_beta,
        sf_delta_in=args.sf_delta_in,
        sf_delta_out=args.sf_delta_out,
        seed=args.seed if seed is None else seed,
        allow_self_loops=args.self_loops,
    )


def _load_graph_file(path: str) -> graphs.DirectedGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if path.endswith(".net"):
        return graphs.load_pajek(text)
    return graphs.load_edge_list(text)


def _graph_from_args(args) -> tuple[graphs.DirectedGraph, str]:
    """Resolve the graph source to (graph, label-for-filenames)."""
    if args.input:
        return _load_graph_file(args.input), Path(args.input).stem
    g = graphs.generate(_spec_from_args(args))
    return g, args.family


# The generator flags each family reads besides --n, which a prefix names as
# the node count of the graph built.
FAMILY_FLAGS = {"sf": ("sf_alpha", "sf_beta", "sf_delta_in", "sf_delta_out", "self_loops"),
                "er": ("p",), "hier3": (), "hier2": ()}


def _part(key: str, val) -> str:
    if val is True:
        return key
    if isinstance(val, float):  # :g, unless it drops digits: then the shortest round trip
        return key + (f"{val:g}" if float(f"{val:g}") == val else repr(val))
    return f"{key}{val}".replace(",", "-")


def _prefix(args, label: str, *settings: str, **parts) -> str:
    """The file prefix of a run: the subcommand, the graph label, each of
    ``parts`` that is not None, the seed of a generated graph, then each
    data-changing flag of ``settings`` and of the family whose value, from a
    config file too, differs from the subcommand parser's built-in default.
    So runs with different data differ in name."""
    bits = [args.command, label, *(_part(k, v) for k, v in parts.items() if v is not None)]
    if not getattr(args, "input", None):
        bits.append(_part("seed", args.seed))
        settings += FAMILY_FLAGS[args.family]
    for dest in settings:
        val = getattr(args, dest)
        if val != args.parser.get_default(dest):
            bits.append(_part(dest.replace("_", "-"), val))
    return "_".join(bits)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> tuple[str, None]:
    spec = _spec_from_args(args)
    g = graphs.generate(spec)
    outdir = Path(args.out)
    label = _prefix(args, args.family, n=g.n)
    _write_text(outdir / f"{label}.edges", graphs.write_edge_list(g))
    _write_text(outdir / f"{label}.net", graphs.write_pajek(g))
    hists = graphs.degree_distribution(g)
    k = max(map(len, hists))
    _write_table(outdir / f"{label}_degrees.csv", ("degree", "in_count", "out_count"),
                 (np.arange(k), *(np.pad(h, (0, k - len(h))) for h in hists)))
    print(f"wrote {label}.edges / .net / _degrees.csv to {outdir} ({g.n} nodes, {g.num_edges} edges)")
    return label, None


def cmd_rank(args) -> tuple[str, dict]:
    g, label = _graph_from_args(args)
    gm = google_from_graph(g, args.alpha)
    classical = classical_pagerank(gm)
    qwalk = walk.SzegedyWalk(gm)
    quantum, delta = qwalk.average_with_convergence(args.T)
    cl_ranks = analysis.node_ranks(classical)
    q_ranks = analysis.node_ranks(quantum)

    outdir = Path(args.out)
    prefix = _prefix(args, label, n=g.n, a=args.alpha, T=args.T)
    _write_table(
        outdir / f"{prefix}.csv",
        ("node", "classical_importance", "quantum_importance", "classical_rank", "quantum_rank"),
        (np.arange(g.n), classical, quantum, cl_ranks, q_ranks),
    )
    summary = {
        "nodes": g.n,
        "edges": g.num_edges,
        "alpha": args.alpha,
        "horizon": args.T,
        "quantum_convergence_sup_gap": None if np.isnan(delta) else delta,  # NaN is not JSON
        "degeneracy_resolution_classical": analysis.degeneracy_resolution(classical),
        "degeneracy_resolution_quantum": analysis.degeneracy_resolution(quantum),
        "top_share_classical": float(classical.max()),
        "top_share_quantum": float(quantum.max()),
    }
    if args.trajectory:
        traj = qwalk.trajectory(args.trajectory)
        _write_table(
            outdir / f"{prefix}_trajectory{args.trajectory}.csv",
            ("t", "node", "instantaneous_qpr"),
            (*divmod(np.arange(traj.size), g.n), traj.ravel()),
        )
    print(f"wrote {prefix}.csv to {outdir}")
    return prefix, summary


def _modes(mode: str) -> tuple[str, ...]:
    return analysis.MODES if mode == "both" else (mode,)


def cmd_ipr(args) -> tuple[str, dict]:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        raise ParameterError(f"--sizes {args.sizes!r} is not a list of integers") from None
    if len(set(sizes)) < 2:
        raise ParameterError("--sizes needs at least two distinct sizes")
    if len(set(sizes)) < len(sizes):
        raise ParameterError(f"--sizes {args.sizes!r} repeats a size")
    specs = [_spec_from_args(args, n, args.seed + k) for k, n in enumerate(sizes)]
    graphs_by_size = [graphs.generate(spec) for spec in specs]
    outdir = Path(args.out)
    prefix = _prefix(args, args.family, "sizes", "mode", a=args.alpha, r=args.r, T=args.T)
    summary: dict = {"sizes": sizes, "alpha": args.alpha, "r": args.r}
    modes = _modes(args.mode)
    xis = []
    for mode in modes:
        items = [(g, mode, args.alpha, args.T) for g in graphs_by_size]
        samples = [analysis.ipr(p, args.r) for p in parallel_map(importance_item, items, args.jobs)]
        fit = analysis.ipr_scaling(samples)
        summary[mode] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "classification": fit.label,
        }
        xis.append([s.xi for s in samples])
        print(f"{mode}: slope {fit.slope:.4f} -> {fit.label}")
    _write_table(outdir / f"{prefix}.csv", ("n", *(f"xi_{m}" for m in modes)), (sizes, *xis))
    return prefix, summary


def cmd_stability(args) -> tuple[str, dict]:
    g, label = _graph_from_args(args)
    outdir = Path(args.out)
    alphas = analysis.coarse_alpha_grid(98 if args.grid == "fine" else args.points)
    sweep = args.grid == "sweep"
    if sweep:  # the reference --alpha is ranked first, as row 0 of the grid
        alphas = np.concatenate(([args.alpha], alphas))
    points = () if args.grid == "fine" else ("points",)
    prefix = _prefix(args, label, *points, n=g.n, a=args.alpha if sweep else None, T=args.T)
    prefix += f"_{args.grid}_{args.mode}"
    items = [(g, args.mode, float(a), args.T) for a in alphas]
    grid = analysis.pairwise_stability(parallel_map(importance_item, items, args.jobs))

    if sweep:
        _write_table(outdir / f"{prefix}.csv", ("alpha", "fidelity_vs_ref", "distance_vs_ref"),
                     (alphas[1:], grid.fidelity[0, 1:], grid.distance[0, 1:]))
        summary = {"alpha_ref": args.alpha, "n": g.n, "mode": args.mode}
    else:
        for name, table in (("fidelity", grid.fidelity), ("distance", grid.distance)):
            _write_table(outdir / f"{prefix}_{name}.csv", ("alpha", *format_values(alphas)),
                         (alphas, *table.T))
        summary = {
            "n": g.n,
            "mode": args.mode,
            "min_fidelity": float(grid.fidelity.min()),
            "max_distance": float(grid.distance.max()),
        }
        print(f"min fidelity {summary['min_fidelity']:.4f}  max distance {summary['max_distance']:.4f}")
    return prefix, summary


def _run_ensemble(args, experiment, *settings: str) -> tuple[analysis.EnsembleReport, str, dict]:
    """Run ``experiment`` over the seeded ensemble the flags describe; return
    the report, the file prefix, which names ``settings`` as ``_prefix`` does,
    and the run summary."""
    spec = _spec_from_args(args)
    report = analysis.ensemble_run(
        spec, args.ensemble, experiment, map_fn=functools.partial(parallel_map, jobs=args.jobs)
    )
    prefix = _prefix(args, args.family, *settings, n=spec.n, a=args.alpha, T=args.T)
    summary = {
        "ensemble": report.count,
        "failures": report.failures,
        "failure_messages": list(report.failure_messages),
        "means": report.means,
        "stddevs": report.stds,
    }
    return report, f"{prefix}_ens{args.ensemble}", summary


def cmd_powerlaw(args) -> tuple[str, dict]:
    outdir = Path(args.out)
    modes = _modes(args.mode)
    settings = ("mode", "i_max")
    if args.i_max is not None and not args.input:  # else every ranking would fail its fit
        n = _spec_from_args(args).n
        if args.i_max > n:
            raise ParameterError(f"--i-max {args.i_max} must not exceed the node count {n}")
    if args.input or args.ensemble == 1:
        g, label = _graph_from_args(args)
        prefix = _prefix(args, label, *settings, n=g.n, a=args.alpha, T=args.T)
        summary: dict = {"n": g.n, "alpha": args.alpha}
        for mode in modes:
            p = analysis.importance_vector(g, mode, alpha=args.alpha, horizon=args.T)
            ranked = p[analysis.ranking_order(p)]
            fit = analysis.power_law_fit(ranked, i_max=args.i_max)
            summary[mode] = {
                "beta": fit.beta,
                "c": fit.c,
                "i_min": 1,
                "i_max": fit.i_max,
                "rms_residual": fit.residual,
            }
            _write_table(
                outdir / f"{prefix}_{mode}.csv",
                ("log_rank_index", "log_importance"),
                (np.log(np.flatnonzero(ranked > 0) + 1), np.log(ranked[ranked > 0])),
            )
            print(f"{mode}: beta {fit.beta:.4f}  c {fit.c:.4g}  residual {fit.residual:.4f}")
        return prefix, summary

    experiment = functools.partial(analysis.powerlaw_metrics, modes=modes, alpha=args.alpha,
                                   horizon=args.T, i_max=args.i_max)
    report, prefix, summary = _run_ensemble(args, experiment, *settings)
    _write_table(
        outdir / f"{prefix}.csv",
        ("metric", "mean", "stddev"),
        (list(report.means), list(report.means.values()), list(report.stds.values())),
    )
    for mode in modes:
        print(f"{mode}: mean beta {report.means[f'beta_{mode}']:.4f} "
              f"(std {report.stds[f'beta_{mode}']:.4f})")
    return prefix, summary


def cmd_attack(args) -> tuple[str, dict]:
    n = _spec_from_args(args).n
    if args.removals >= n:  # else every ensemble member would fail on its own
        raise ParameterError(f"--removals {args.removals} must be below the node count {n}")
    modes = _modes(args.mode)
    experiment = functools.partial(analysis.attack_metrics, removals=args.removals, modes=modes,
                                   alpha=args.alpha, horizon=args.T)
    report, prefix, summary = _run_ensemble(args, experiment, "mode", "removals")
    outdir = Path(args.out)
    removals = range(1, args.removals + 1)
    _write_table(
        outdir / f"{prefix}.csv",
        ("removals", *(f"kendall_{mode}_{stat}" for mode in modes for stat in ("mean", "std"))),
        (removals, *([stats[f"kendall_{mode}_{r}"] for r in removals] for mode in modes
                     for stats in (report.means, report.stds))),
    )
    print(f"wrote {prefix}.csv to {outdir} ({report.failures} failed runs)")
    return prefix, summary


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises ParameterError where argparse would print its usage and exit,
    so every parse error, a config file's included, leaves ``main`` as one
    line and exit 2."""

    def error(self, message):
        raise ParameterError(message)


def _checked(convert, rule: str, holds):
    """An argparse ``type``: ``convert`` the text, then require ``holds``."""
    def check(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{text} must be {rule}")
        return value

    check.__name__ = convert.__name__  # argparse reports "invalid int value: ..."
    return check


_positive = _checked(int, ">= 1", lambda v: v >= 1)
_damping = _checked(float, "in (0, 1)", lambda v: 0.0 < v < 1.0)


def _add_common(sp: argparse.ArgumentParser, *, ranking: bool = True) -> None:
    sp.add_argument("--out", default=os.environ.get(OUT_ENV_VAR, "runs"),
                    help=f"output directory (env {OUT_ENV_VAR} overrides the default)")
    sp.add_argument("--seed", type=int, default=graphs.GeneratorSpec.seed, help="base RNG seed")
    sp.add_argument("--config", default=None, help="key=value file read as leading flags")
    if ranking:
        sp.add_argument("--jobs", type=_positive, default=1,
                        help="worker processes for independent runs (rank accepts it, for the "
                             "benchmark harness, and ignores it)")
        sp.add_argument("--alpha", type=_damping, default=DEFAULT_ALPHA,
                        help="damping parameter (stability --grid sweep: the reference)")
        sp.add_argument("--T", type=_positive, default=walk.DEFAULT_HORIZON,
                        help="quantum averaging horizon (double-steps)")


def _add_generator(sp: argparse.ArgumentParser, *sources: str) -> None:
    """The generator flags, after the graph sources ``sources`` names:
    "input", a graph file, and "n", the node count of a generated graph."""
    if "input" in sources:
        sp.add_argument("--input", default=None, help="graph file (.net Pajek, else edge list)")
    sp.add_argument("--family", choices=graphs.FAMILIES, default=None, help="generator family")
    if "n" in sources:
        sp.add_argument("--n", type=int, default=64,
                        help="node count, default 64 for sf, er and hier2 (hier3 runs must give "
                             "--n); hier3 and hier2 take one of "
                        + " and ".join(map(str, graphs.HIERARCHY_SIZES.values())))
    defaults = graphs.GeneratorSpec
    sp.add_argument("--p", type=float, default=defaults.p, help="er edge probability")
    sp.add_argument("--sf-alpha", type=float, default=defaults.sf_alpha,
                    help="sf: P(new node with edge to existing)")
    sp.add_argument("--sf-beta", type=float, default=defaults.sf_beta,
                    help="sf: P(edge between existing nodes); the rest adds existing to new")
    sp.add_argument("--sf-delta-in", type=float, default=defaults.sf_delta_in,
                    help="sf: in-degree offset")
    sp.add_argument("--sf-delta-out", type=float, default=defaults.sf_delta_out,
                    help="sf: out-degree offset")
    sp.add_argument("--self-loops", action="store_true", help="keep generated self-loops")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name. Each
    subcommand's namespace carries its ``func`` and its own ``parser``, whose
    defaults ``_prefix`` compares against."""
    parser = _Parser(
        prog="qprank",
        description="Quantum and classical PageRank on directed complex networks.",
    )
    parser.add_argument("--version", action="version", version=f"qprank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, func, help: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func, parser=sp)
        return sp

    sp = subcommand("generate", cmd_generate, "write a generated graph to disk")
    _add_generator(sp, "n")
    _add_common(sp, ranking=False)

    sp = subcommand("rank", cmd_rank, "classical and quantum ranking of one graph")
    _add_generator(sp, "input", "n")
    _add_common(sp)
    sp.add_argument("--trajectory", type=_checked(int, ">= 0", lambda v: v >= 0), default=0,
                    help="also dump instantaneous distributions for this many steps")

    sp = subcommand("ipr", cmd_ipr, "inverse participation ratio across graph sizes")
    _add_generator(sp)
    _add_common(sp)
    sp.add_argument("--sizes", default="32,64,128,256", help="comma-separated node counts")
    sp.add_argument("--mode", choices=("quantum", "classical", "both"), default="quantum")
    sp.add_argument("--r", type=_positive, default=1, help="participation-ratio order")

    sp = subcommand("stability", cmd_stability, "ranking stability across damping values")
    _add_generator(sp, "input", "n")
    _add_common(sp)
    sp.add_argument("--grid", choices=("coarse", "fine", "sweep"), default="coarse")
    sp.add_argument("--points", type=_positive, default=20, help="coarse grid and sweep size")
    sp.add_argument("--mode", choices=("quantum", "classical"), default="quantum")

    sp = subcommand("powerlaw", cmd_powerlaw, "power-law fit of the sorted ranking")
    _add_generator(sp, "input", "n")
    _add_common(sp)
    sp.add_argument("--mode", choices=("quantum", "classical", "both"), default="both")
    sp.add_argument("--ensemble", type=_positive, default=29, help="graphs in the ensemble (1 = single)")
    sp.add_argument("--i-max", type=_checked(int, ">= 2", lambda v: v >= 2), default=None,
                    help="last rank index (default: before the degenerate tail)")

    sp = subcommand("attack", cmd_attack, "iterated hub removal over a seeded ensemble")
    _add_generator(sp, "n")
    _add_common(sp)
    sp.add_argument("--mode", choices=("quantum", "classical", "both"), default="both")
    sp.add_argument("--removals", type=_positive, default=5, help="nodes to remove, one per round")
    sp.add_argument("--ensemble", type=_positive, default=100, help="graphs in the ensemble")

    return parser, sub.choices


BOOLEAN_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_flags(sp: argparse.ArgumentParser, path: str) -> list[str]:
    """The ``key=value`` lines of config file ``path`` as the flags they stand
    for: ``--key=value``, or for a boolean flag the flag or nothing, by its
    word of BOOLEAN_WORDS in any case. Keys the subcommand does not define
    are skipped, so one config file can serve several subcommands."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    actions = {action.dest: action for action in sp._actions}
    flags = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None or action.dest in ("help", "config"):
            continue
        if action.nargs != 0:
            flags.append(f"{action.option_strings[0]}={value}")
        elif value.lower() not in BOOLEAN_WORDS:
            raise ParameterError(f"config {key}={value!r} is not one of {', '.join(BOOLEAN_WORDS)}")
        elif BOOLEAN_WORDS[value.lower()]:
            flags.append(action.option_strings[0])
    return flags


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: parse the flags, a config file's placed right after
    the subcommand name, run it, then record the run as
    ``<prefix>_summary.json``, when it has a summary, and
    ``<prefix>_run_config.json``: the flags and the numerical environment."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, _ = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:at] + _config_flags(args.parser, args.config) + argv[at:])
        prefix, summary = args.func(args)
        outdir = Path(args.out)
        if summary is not None:
            _write_json(outdir / f"{prefix}_summary.json", summary)
        params = {k: v for k, v in vars(args).items() if k not in ("func", "parser", "config")}
        _write_json(outdir / f"{prefix}_run_config.json",
                    {"tool": "qprank", "version": __version__, "params": params,
                     "environment": _numerical_environment()})
        return EXIT_OK
    except ParseError as exc:
        print(f"error [stage=input]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"error [stage=iteration]: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ParameterError as exc:
        print(f"error [stage=parameters]: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except MemoryError as exc:  # e.g. a node count too large for the arrays
        print(f"error [stage=parameters]: out of memory: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

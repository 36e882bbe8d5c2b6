"""Quantum and classical PageRank on directed complex networks."""

from .analysis import (
    AttackRun,
    EnsembleReport,
    IprSample,
    IprScaling,
    PowerLawFit,
    StabilityGrid,
    attack_experiment,
    coarse_alpha_grid,
    degeneracy_resolution,
    ensemble_run,
    importance_vector,
    ipr,
    ipr_scaling,
    kendall_coefficient,
    power_law_fit,
    ranking_order,
)
from .errors import ConvergenceError, ParameterError, ParseError
from .google import (
    GoogleMatrix,
    classical_pagerank,
    google_from_graph,
)
from .graphs import (
    DirectedGraph,
    GeneratorSpec,
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
from .walk import SzegedyWalk

__version__ = "0.1.0"

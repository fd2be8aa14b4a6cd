"""Random faulty scaled sector graphs: simulation, focusing predictions,
and Poisson-approximation bounds on degree counts.

The top level re-exports the names that ``demos/`` and ``bench/`` import
from it; everything else is imported from its module, for example
``sectorgraphs.geometry.clipped_sector_areas``.
"""

from .bounds import empirical_tv, empirical_tv_bootstrap_se, tv_bound
from .degree_sets import DegreeSet
from .harness import TrialOptions, compare, run_trials, sweep
from .model import (
    ModelParams,
    degree_summary,
    sample_trial,
    write_edge_list,
    write_vertex_csv,
)
from .theory import (
    focusing_index,
    max_degree_law,
    predict,
    radius_for_mean_degree,
)

__all__ = [
    "DegreeSet",
    "ModelParams",
    "TrialOptions",
    "compare",
    "degree_summary",
    "empirical_tv",
    "empirical_tv_bootstrap_se",
    "focusing_index",
    "max_degree_law",
    "predict",
    "radius_for_mean_degree",
    "run_trials",
    "sample_trial",
    "sweep",
    "tv_bound",
    "write_edge_list",
    "write_vertex_csv",
]

__version__ = "0.1.0"

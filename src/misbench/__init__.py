"""Exact enumeration and bound verification for maximal independent sets.

The package counts maximal independent sets by size and maximal induced
bipartite subgraphs in small graphs, evaluates the closed-form count
bounds exactly, and runs the structural decomposition / transversal
analysis that certifies the counting argument on concrete instances.
"""

from .bounds import (
    ExactBound,
    eppstein,
    find_two_sum_witness,
    interpolated,
    moon_moser,
    nielsen,
    solve_eps_delta,
    two_sum_estimate,
)
from .graphio import FormatError, load_graphs, parse_edge_list, parse_graph6, to_edge_list, to_graph6
from .graphs import Graph, GuardError, disjoint_union, from_edges, induced_subgraph
from .mibs import MibsCounts, enumerate_mibs_bruteforce, mibs_counts
from .misenum import (
    MisFamily,
    SizeProfile,
    enumerate_mis,
    enumerate_mis_bruteforce,
    mis_of_size,
    mis_profile,
)
from .pipeline import (
    Cell,
    CellConflictError,
    Decomposition,
    DecompositionError,
    analyze_instance,
    decompose,
    label_cells,
    select,
    transversal_census,
    verify_is_capture,
    verify_product_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "CellConflictError",
    "Decomposition",
    "DecompositionError",
    "ExactBound",
    "FormatError",
    "Graph",
    "GuardError",
    "MibsCounts",
    "MisFamily",
    "SizeProfile",
    "analyze_instance",
    "decompose",
    "disjoint_union",
    "enumerate_mibs_bruteforce",
    "enumerate_mis",
    "enumerate_mis_bruteforce",
    "eppstein",
    "find_two_sum_witness",
    "from_edges",
    "induced_subgraph",
    "interpolated",
    "label_cells",
    "load_graphs",
    "mibs_counts",
    "mis_of_size",
    "mis_profile",
    "moon_moser",
    "nielsen",
    "parse_edge_list",
    "parse_graph6",
    "select",
    "solve_eps_delta",
    "to_edge_list",
    "to_graph6",
    "transversal_census",
    "two_sum_estimate",
    "verify_is_capture",
    "verify_product_bound",
]

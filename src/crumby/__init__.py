"""Crumby colorability: solvers, gadget builders, and certificate checking.

A crumby coloring splits the vertices into Red and Blue so that Blue induces
maximum degree at most 1 while Red induces minimum degree at least 1 with no
path on four vertices.  This package decides the property for arbitrary
graphs with three independent complete methods, builds the two bundled
subcubic K4-minor-free counterexample graphs (18 and 40 vertices), and
re-verifies all of their supporting structure mechanically.
"""

from .coloring import (
    BLUE,
    RED,
    CnfFormula,
    Color,
    Coloring,
    SolveResult,
    Status,
    Violation,
    ViolationKind,
    backtracking_solve,
    count_crumby,
    dpll_solve,
    emit_dimacs,
    emit_solve_certificate,
    encode_cnf,
    exhaustive_solve,
    verify_crumby,
    verify_crumby_by_components,
)
from .errors import (
    BoundarySpecError,
    BudgetExhausted,
    CapExceeded,
    CertificateError,
    CrossCheckError,
    ExpansionError,
    Graph6Error,
    GraphError,
)
from .gadgets import (
    GADGETS,
    LabeledGraph,
    SpExpr,
    build_F,
    build_G18,
    build_G40,
    build_G40_sp,
    build_R,
    expand,
    parallel,
    rev,
    series,
)
from .graphs import (
    EarDecomposition,
    Graph,
    bitmask_of_graph,
    blocks,
    complete_bipartite,
    complete_graph,
    connected_components,
    cut_vertices,
    edge_bit_index,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    enumerate_p4,
    graph_from_bitmask,
    graph_from_edge_list,
    induced_subgraph,
    is_biconnected,
    is_bipartite,
    is_connected,
    parse_edge_list,
    parse_graph6,
    relabel,
    verify_ear_decomposition,
)
from .lemmas import (
    BoundarySpec,
    FeasibleSet,
    LemmaReport,
    enumerate_feasible,
    relaxed_feasible,
    verify_lemma1_i,
    verify_lemma1_ii,
    verify_lemma2,
    verify_theorem1_composition,
)
from .minorfree import (
    EliminationOrder,
    MinorWitness,
    ReductionStep,
    elimination_steps,
    elimination_width,
    find_elimination_order,
    has_minor,
    recognize_tw2,
    replay_reduction_trace,
    verify_minor_witness,
)
from .survey import SurveyFilters, SurveyReport, generate_small, survey_stream

__version__ = "0.1.0"

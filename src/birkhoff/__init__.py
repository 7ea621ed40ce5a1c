"""Exact decorated-tree engine for Birkhoff normal forms of truncated
cubic NLS, verified against a brute-force iteration oracle."""

from .trees import (
    Decoration,
    ParseError,
    Tree,
    TreeError,
    parse,
    render,
    symmetry_factor,
    validate_tree,
)
from .enumeration import (
    ClassKind,
    EnumerationCapError,
    TreeClassQuery,
    circ_exact,
    circ_range,
    enumerate_valid,
    graft_comb,
    n_exact,
    res_below,
    tree_class,
)
from .hamiltonian import (
    GENERATOR_SCALE,
    H0_FILTER_FACTOR,
    Kernel,
    ModeLattice,
    Monomial,
    ResonanceConfig,
    apply_phase_filter,
    h0,
    h1,
    poisson_bracket,
    split_resonant,
)
from .evaluator import (
    CLASS_INDEX_OFFSET,
    EvalConfig,
    ExpansionLedger,
    LedgerEntry,
    cancellation_check,
    f_transform,
    normal_form,
    pi,
)
from .oracle import (
    BirkhoffResult,
    DiffReport,
    SequenceInfo,
    birkhoff_iterate,
    compare,
    generators_from_recursion,
    sequences,
    taylor_compose,
    truncation_term,
)

__version__ = "0.1.0"

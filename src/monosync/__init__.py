"""Monotone realizations of stochastically monotone measure systems on
finite posets, synchronizing cell permutations, and a perfect sampler."""

from .cftp import (
    GrandCoupling,
    Kernel,
    build_grand_coupling,
    cftp_sample,
    check_grand_coupling,
    chi_square_fit,
    is_ergodic,
    kernel,
    sample_many,
    stationary_exact,
)
from .coupling import (
    Coupling,
    InfeasibilityCertificate,
    MeasureSystem,
    Verdict,
    check_coupling,
    dominance_violation,
    integer_transport,
    is_stoch_monotone,
    measure_system,
    monotone_tuples,
    pair_system,
    realize,
    stochastically_leq,
    strassen_coupling,
    verify_certificate,
)
from .errors import MonosyncError
from .measure import RationalMeasure, rational_measure
from .poset import (
    CoverGraph,
    LinearExtension,
    Poset,
    PosetClass,
    RootedTree,
    antichain,
    branching_elements,
    chain,
    classify,
    cover_graph,
    covers,
    default_root,
    root_tree,
    up_sets,
    validate_poset,
)
from .synchronize import (
    CellPermutation,
    InterlacingGraph,
    SpanningTreeWitness,
    Violation,
    cell_states,
    check_cell_tables,
    common_grid,
    composed_tables,
    glued_tables,
    identity_synchronization,
    interlacing_graphs,
    is_synchronizable,
    locally_connected_spanning_tree,
    synchronization_violations,
    synchronize_from_coupling,
    verify_synchronized,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

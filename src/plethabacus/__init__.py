"""Exact Schur expansions of s_nu * (p_r o h_m) via bead moves on an abacus.

The package has two independent halves that check each other: the
combinatorial side (partitions, abacus, strips, symfunc) computes signed
expansions through border-strip removals, while oracle recomputes the
same expansions with one bialternant determinant per Schur function.
Every public function and class of those five modules is exported here,
and nothing else of theirs: helpers that only the tests use live in the
tests. Neither half imports numpy. The one module that does is the
dense polynomial ring, `ring`, whose names (schur_decompose, poly_schur,
...) are read from it and not from here. The command line lives in
`cli`. Importing the package loads neither `ring` nor `cli`.
"""

from .abacus import (
    Abacus,
    BadRunner,
    BeadCountTooSmall,
    BeadMove,
    IllegalMove,
    IncompatibleAbaci,
    InvalidAbacus,
    abacus_of,
    final_positions,
    inversion_sign,
    partition_of,
    runner_beads,
    single_step_moves,
)
from .oracle import oracle_plethystic_mn
from .partitions import (
    Box,
    InvalidPartition,
    NotContained,
    Partition,
    SchurExpansion,
    SkewPartition,
    make_partition,
    make_skew,
    partitions_of_size,
    partitions_of_size_containing,
    partitions_up_to,
)
from .strips import (
    BorderStrip,
    Decomposition,
    EmptySkew,
    NotDivisible,
    NotTypeIICase,
    PairingWitness,
    RecursionSummand,
    RunnerType,
    SignRecursionReport,
    border_strips,
    classify_runner,
    final_border_strip,
    order_independent_sign,
    pairing_witness,
    r_decompose,
    runner_profile,
    runner_types,
    sgn_r,
    sign_recursion_check,
)
from .symfunc import (
    mn_multiply,
    plethystic_mn,
    plethystic_mn_multi,
    power_product_pleth,
)

__version__ = "0.1.0"

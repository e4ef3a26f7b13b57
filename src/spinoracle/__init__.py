"""Coherent spin-state squeezing and codeword oracle-decision simulation."""

from .classical_baseline import (
    BitOracle,
    IdentifyResult,
    classical_identify,
    min_decision_tree_depth,
)
from .codewords import (
    GroupLawReport,
    InstanceBlock,
    designated_index,
    enumerate_blocks,
    fourier_codeword,
    group_properties_check,
    hadamard_codeword,
    instance_from_parts,
    restricted_set_size,
    sample_blocks,
    sample_instance,
)
from .errors import (
    ConfigError,
    DegenerateInstanceError,
    InvariantError,
    NumericsError,
    ResourceLimitError,
    SpinOracleError,
)
from .oracle_circuit import (
    Decisions,
    decide_blocks,
    decide_fourier,
    decide_restricted,
    decide_unrestricted,
    fourier_probability_table,
    measure_designated,
    merge_two_to_one,
    run_pipeline,
    worst_case_error_mask,
)
from .qfunction import SphericalGrid, q_function, q_values_at
from .spin_core import (
    SpinOperators,
    SpinSystem,
    StateVector,
    coherent_state,
    expi_hermitian,
    make_spin_system,
    spin_operators,
)
from .squeezing import (
    BoundingDistribution,
    SqueezeResult,
    bounding_epsilon,
    central_probability,
    distribution_variance,
    ideal_overlap,
    optimize_mu,
    reduced_variance,
    sweep_row,
)

__version__ = "0.1.0"

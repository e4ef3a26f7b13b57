"""Coherent spin-state squeezing and codeword oracle-decision simulation."""

from .classical_baseline import (
    BitOracle,
    IdentifyResult,
    NoisyDecision,
    classical_decide_noisy,
    classical_identify,
    min_decision_tree_depth,
)
from .codewords import (
    Codeword,
    ErrorSyndrome,
    FractionalWord,
    GroupLawReport,
    ProblemInstance,
    apply_mask,
    designated_index,
    enumerate_instances,
    fourier_codeword,
    group_properties_check,
    hadamard_bits,
    hadamard_codeword,
    instance_from_parts,
    restricted_set_size,
    sample_instance,
    sample_syndrome,
    syndrome_count,
    syndromes,
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
    DecisionReport,
    PhaseOracle,
    decide_fourier,
    decide_restricted,
    decide_unrestricted,
    dft,
    fourier_probability_table,
    input_state,
    measure_designated,
    merge_two_to_one,
    run_pipeline,
    walsh_hadamard,
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
    sweep_point,
)

__version__ = "0.1.0"

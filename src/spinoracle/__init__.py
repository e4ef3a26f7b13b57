"""Coherent spin-state squeezing and codeword oracle-decision simulation."""

from .classical_baseline import (
    classical_identify,
    codeword_oracle,
    min_decision_tree_depth,
)
from .codewords import (
    InstanceBlock,
    designated_index,
    enumerate_blocks,
    fourier_codeword,
    hadamard_codeword,
    instance_from_parts,
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
from .qfunction import SphericalGrid, q_function
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
    SqueezeResult,
    central_probability,
    ideal_overlap,
    optimize_mu,
    reduced_variance,
    sweep_row,
    tail_template,
)

__version__ = "0.1.0"

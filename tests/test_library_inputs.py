"""Library entry points given a float, or another non-integer, where an
integer belongs, a non-real where a real number belongs, a codeword length
past N = 16384, a spin system whose exponent is no integer in [2, 14] or
whose dimension is not 2^n, an error weight beside the fixed mask that sets
it, amplitudes that are not a 1-D numeric array, or another type where a
SpinSystem, a StateVector or a SqueezeResult belongs (the dense references'
and a SqueezeResult's own arguments included), a list where a state or its
spectrum belongs, a string, a 2-D array, complex values or nothing where a
distribution belongs, strings, complex values or an empty grid where a
Q-function grid's arrays belong, a float or a string as a template's length,
a state of odd length as the two-component target's or a merge's, a bool
tolerance, a float or bool outcome index, a list or strings as vote draws, a 2-D, complex or string
spectrum, a list where a block belongs, nothing where an oracle belongs, or
a seed, a string, a RandomState or a Generator that cannot spawn where a spawning
Generator belongs, vote draws in a block that are not a 2-D float array with one
non-empty row per instance, an integer where a block or its Decisions belong,
or a bool as a codeword index, an error weight or a trial or repetition
count: each call raises ConfigError (a SpinOracleError), never
a raw TypeError, ValueError or AttributeError, never a float index, never a
2^15-entry table, and never ignores the weight."""

import math

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

import spinoracle as so
from spinoracle import ConfigError
from spinoracle.oracle_circuit import report_columns
from spinoracle.squeezing import twist_generator

SYSTEM = so.make_spin_system(3)
STATE = so.coherent_state(SYSTEM, math.pi / 2, 0.0)
SPECTRUM = np.full(4, 0.25)
PART = so.instance_from_parts("unrestricted", 64, 5, so.worst_case_error_mask(64, 2))


def voted(draws):
    """Decide PART's one row by a majority vote over the given draws."""
    return so.decide_unrestricted(so.InstanceBlock(PART.variant, 64, PART.js, PART.masks, draws))


def rng():
    return np.random.default_rng(3)


NOT_GENERATORS = {"3": 3, "'seed'": "seed", "RandomState": np.random.RandomState(3)}


class _FixedSeed(ISeedSequence):
    """A seed sequence that gives a fixed state and cannot spawn children."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.arange(1, n_words + 1, dtype=dtype)


CALLS = {
    "enumerate_blocks N=8.0": lambda: list(so.enumerate_blocks("restricted", 8.0, None)),
    "sample_blocks N=8.0": lambda: list(so.sample_blocks("restricted", 8.0, None, 2, rng())),
    "InstanceBlock dim=8.0": lambda: so.InstanceBlock("fourier", 8.0, np.array([1])),
    "InstanceBlock dim=[8]": lambda: so.InstanceBlock("fourier", [8], np.array([1])),
    "InstanceBlock variant=[restricted]": lambda: so.InstanceBlock(
        ["restricted"], 8, np.array([1]), np.zeros((1, 8), dtype=np.uint8)),
    "enumerate_blocks variant=[restricted]": lambda: list(
        so.enumerate_blocks(["restricted"], 8, None)),
    "sample_blocks variant=[restricted]": lambda: list(
        so.sample_blocks(["restricted"], 8, None, 2, rng())),
    "fourier_probability_table N=8.0": lambda: so.fourier_probability_table(8.0),
    "designated_index N=8.0": lambda: so.designated_index(8.0),
    "sample_instance d=1.0": lambda: so.sample_instance("restricted", 16, 1.0, rng()),
    "sample_instance d=[1.0]": lambda: so.sample_instance("restricted", 16, [1.0], rng()),
    "sample_instance d=array(1)": lambda: so.sample_instance("restricted", 16, np.array(1), rng()),
    "sample_instance fourier d=array([1, 2])": lambda: so.sample_instance(
        "fourier", 16, np.array([1, 2]), rng()),
    "min_decision_tree_depth N=4.0": lambda: so.min_decision_tree_depth(4.0),
    "worst_case_error_mask N=8.0": lambda: so.worst_case_error_mask(8.0, 1),
    "worst_case_error_mask weight=1.0": lambda: so.worst_case_error_mask(8, 1.0),
    "q_function theta_steps=8.0": lambda: so.q_function(STATE, SYSTEM, 8.0, 8),
    "q_function phi_steps=8.0": lambda: so.q_function(STATE, SYSTEM, 8, 8.0),
    "optimize_mu tol='x'": lambda: so.optimize_mu(SYSTEM, "x"),
    "coherent_state theta=None": lambda: so.coherent_state(SYSTEM, None, 0.0),
    "coherent_state phi='a'": lambda: so.coherent_state(SYSTEM, 0.1, "a"),
    "hadamard_codeword N=2**15": lambda: so.hadamard_codeword(2**15, 0),
    "codeword_oracle N=2**15": lambda: so.codeword_oracle(2**15, np.array([0])),
    "sample_blocks N=2**15": lambda: list(so.sample_blocks("restricted", 2**15, 1, 1, rng())),
    "SpinSystem n=15": lambda: so.SpinSystem(15, 32768),
    "SpinSystem n=1": lambda: so.SpinSystem(1, 2),
    "SpinSystem n=2.0": lambda: so.SpinSystem(2.0, 4.0),
    "SpinSystem n=float64(2)": lambda: so.SpinSystem(np.float64(2), 4),
    "SpinSystem n='a'": lambda: so.SpinSystem("a", 4),
    "SpinSystem dim=4.0": lambda: so.SpinSystem(2, 4.0),
    "SpinSystem dim=8 for n=2": lambda: so.SpinSystem(2, 8),
    "StateVector 2-D amps": lambda: so.StateVector(np.eye(4) / 2),
    "StateVector amps='ab'": lambda: so.StateVector("ab"),
    "StateVector ragged amps": lambda: so.StateVector([[1.0], [0.0, 0.0]]),
    "q_function state=amps": lambda: so.q_function(STATE.amps, SYSTEM, 8, 8),
    "q_function sys=3": lambda: so.q_function(STATE, 3, 8, 8),
    "coherent_state sys=3": lambda: so.coherent_state(3, 1.0, 0.0),
    "optimize_mu sys=3": lambda: so.optimize_mu(3),
    "reduced_variance state=amps": lambda: so.reduced_variance(STATE.amps),
    "ideal_overlap state=amps": lambda: so.ideal_overlap(STATE.amps),
    "merge_two_to_one state=amps": lambda: so.merge_two_to_one(STATE.amps),
    "merge_two_to_one odd length": lambda: so.merge_two_to_one(so.StateVector([1.0, 0.0, 0.0])),
    "sweep_row res=state": lambda: so.sweep_row(STATE),
    "SqueezeResult state='x'": lambda: so.SqueezeResult(0.1, "x", 0.3),
    "SqueezeResult state=amps": lambda: so.SqueezeResult(0.1, STATE.amps, 0.3),
    "spin_operators sys=3": lambda: so.spin_operators(3),
    "spin_operators sys=[1]": lambda: so.spin_operators([1]),
    "twist_generator sys=3": lambda: twist_generator(3),
    "SphericalGrid str arrays": lambda: so.SphericalGrid("a", "b", "c"),
    "SphericalGrid empty": lambda: so.SphericalGrid([], [], np.zeros((0, 0))),
    "SphericalGrid complex values": lambda: so.SphericalGrid([0.0], [0.0], np.array([[1 + 1j]])),
    "measure_designated state=list": lambda: so.measure_designated([0.5, 0.5], 0),
    "measure_designated draws=list": lambda: so.measure_designated(SPECTRUM, 1, [0.1, 0.2]),
    "measure_designated index=1.0": lambda: so.measure_designated(SPECTRUM, 1.0),
    "measure_designated 2-D spectrum": lambda: so.measure_designated(np.ones((2, 4)) / 8, 1),
    "measure_designated index=True": lambda: so.measure_designated(SPECTRUM, True),
    "measure_designated str draws": lambda: so.measure_designated(SPECTRUM, 1, np.array(["a"])),
    "measure_designated complex spectrum": lambda: so.measure_designated(SPECTRUM + 0j, 1),
    "measure_designated str spectrum": lambda: so.measure_designated(np.array(["a", "b"]), 0),
    "decide_restricted block=list": lambda: so.decide_restricted([1]),
    "decide_blocks block=1": lambda: next(so.decide_blocks([1])),
    "report_columns block=1": lambda: report_columns(1, 2),
    "report_columns decided=2": lambda: report_columns(PART, 2),
    "InstanceBlock 1-D draws": lambda: voted(np.full(1, 0.3)),
    "InstanceBlock str draws": lambda: voted(np.array([["a", "b"]])),
    "InstanceBlock no draw columns": lambda: voted(np.zeros((1, 0))),
    "InstanceBlock 3-D draws": lambda: voted(np.zeros((1, 3, 1))),
    "InstanceBlock int draws": lambda: voted(np.zeros((1, 3), dtype=np.int64)),
    "hadamard_codeword j=True": lambda: so.hadamard_codeword(8, True),
    "fourier_codeword j=True": lambda: so.fourier_codeword(8, True),
    "worst_case_error_mask weight=True": lambda: so.worst_case_error_mask(64, True),
    "sample_blocks trials=True": lambda: list(so.sample_blocks("restricted", 16, None, True, rng())),
    "sample_blocks repetitions=True": lambda: list(
        so.sample_blocks("unrestricted", 64, 2, 2, rng(), True)),
    "enumerate_blocks d=True": lambda: list(so.enumerate_blocks("restricted", 16, True)),
    "enumerate_blocks d=[True]": lambda: list(so.enumerate_blocks("restricted", 16, [True])),
    "classical_identify oracle=None": lambda: so.classical_identify(None, 8),
    "central_probability dist='ab'": lambda: so.central_probability("ab"),
    "central_probability 2-D dist": lambda: so.central_probability(np.eye(2) / 2),
    "central_probability complex array": lambda: so.central_probability(np.array([0.5 + 1j, 0.5])),
    "central_probability dist=[]": lambda: so.central_probability([]),
    "template dim=8.0": lambda: so.tail_template(8.0),
    "template dim='8'": lambda: so.tail_template("8"),
    "ideal_overlap one entry": lambda: so.ideal_overlap(so.StateVector([1.0])),
    "ideal_overlap odd length": lambda: so.ideal_overlap(so.StateVector([1.0, 0.0, 0.0])),
    "optimize_mu tol=True": lambda: so.optimize_mu(SYSTEM, True),
    **{f"sample_blocks mask d={d!r}": (lambda d=d: list(so.sample_blocks(
        "unrestricted", 64, d, 2, rng(), mask=so.worst_case_error_mask(64, 3))))
       for d in (2, 0, 99, [1, 2], "x")},
    **{f"sample_blocks rng={name}": (lambda bad=bad: list(so.sample_blocks(
        "unrestricted", 64, 2, 2, bad, 3)))
       for name, bad in NOT_GENERATORS.items()},
    **{f"sample_instance rng={name}": (lambda bad=bad: so.sample_instance("restricted", 16, None, bad))
       for name, bad in NOT_GENERATORS.items()},
    "sample_instance unspawnable rng": lambda: so.sample_instance(
        "restricted", 16, None, np.random.Generator(np.random.PCG64(_FixedSeed()))),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_a_non_integer_size_raises_config_error(call):
    with pytest.raises(ConfigError):
        call()

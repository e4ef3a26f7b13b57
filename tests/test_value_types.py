"""Value semantics of every public value type: immutable fields, equality,
hashing and repr over the fields, identity for the block types, and arrays
that stay read-only through pickle and copy."""

import copy
import math
import pickle

import numpy as np
import pytest

from spinoracle import (
    BitOracle,
    SpinSystem,
    bounding_epsilon,
    classical_identify,
    coherent_state,
    fourier_codeword,
    group_properties_check,
    hadamard_codeword,
    make_spin_system,
    optimize_mu,
    q_function,
    sample_instance,
    spin_operators,
    worst_case_error_mask,
)
from spinoracle.cli import RunConfig, load_config
from spinoracle.codewords import InstanceBlock
from spinoracle.errors import Frozen
from spinoracle.oracle_circuit import Decisions, decide_blocks
from spinoracle.squeezing import _propagator


def decided_block():
    return next(decide_blocks([sample_instance("restricted", 8, rng=np.random.default_rng(3))]))


def value_types():
    """One value of each public value type, built by the library."""
    sys = make_spin_system(2)
    state = coherent_state(sys, math.pi / 2, 0.0)
    block, decided = decided_block()
    word = hadamard_codeword(8, 3)
    return [
        sys,
        state,
        spin_operators(sys),
        q_function(state, sys, 8, 8),
        optimize_mu(sys),
        bounding_epsilon(),
        word,
        fourier_codeword(8, 3),
        worst_case_error_mask(8, 1),
        group_properties_check(4),
        block,
        decided,
        classical_identify(BitOracle(word.bits), 8),
        load_config(["qfunc"]),
    ]


VALUES = value_types()


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_set_or_deleted(value):
    assert not hasattr(value, "__dict__")
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_values_survive_pickle_and_copy(value):
    for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(restored) is type(value) and repr(restored) == repr(value)
        with pytest.raises(AttributeError):
            restored.extra = 1


def test_every_value_type_is_covered():
    assert len({type(v) for v in VALUES}) == len(VALUES) == 14


def test_equal_spin_systems_hash_alike_and_share_one_propagator():
    a, b = SpinSystem(2, 4), make_spin_system(2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != SpinSystem(3, 8)
    assert _propagator(a) is _propagator(b)
    assert spin_operators(a) is spin_operators(b)


def test_run_configs_differing_in_one_field_compare_unequal():
    base = load_config(["solve"])
    fields = {name: getattr(base, name) for name in RunConfig.__slots__}
    same = RunConfig(**fields)
    assert same == base and hash(same) == hash(base)
    for name in RunConfig.__slots__:
        changed = RunConfig(**{**fields, name: "changed"})
        assert changed != base, name


def test_blocks_and_decisions_compare_by_identity():
    block, decided = decided_block()
    twin = InstanceBlock(block.variant, block.dim, block.js, block.masks, block.weights,
                         block.draws)
    assert block == block and twin != block
    assert hash(block) == object.__hash__(block)
    fields = [getattr(decided, name) for name in Decisions.__slots__]
    assert decided == decided and Decisions(*fields) != decided
    assert hash(decided) == object.__hash__(decided)


@pytest.mark.parametrize("name", ["raw", "probs", "pr_top", "is_a"])
def test_decision_arrays_are_read_only(name):
    _, decided = decided_block()
    arr = getattr(decided, name)
    with pytest.raises(ValueError):
        arr[...] = arr.copy()


def test_optional_fields_default_to_none_and_repr_lists_fields():
    block = InstanceBlock("fourier", 8, np.array([1, 2]))
    assert (block.masks, block.weights, block.draws) == (None, None, None)
    assert repr(SpinSystem(n=2, dim=4)) == "SpinSystem(n=2, dim=4)"


def array_fields(value):
    """Every ndarray a value holds, through nested value types such as SqueezeResult.state."""
    for name in type(value).__slots__:
        field = getattr(value, name)
        if isinstance(field, np.ndarray):
            yield f"{type(value).__name__}.{name}", field
        elif isinstance(field, Frozen):
            yield from array_fields(field)


@pytest.mark.parametrize("value", [v for v in VALUES if any(array_fields(v))],
                         ids=lambda v: type(v).__name__)
def test_arrays_stay_read_only_through_pickle_and_copy(value):
    fields = dict(array_fields(value))
    assert fields and not any(arr.flags.writeable for arr in fields.values())
    for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        restored_fields = dict(array_fields(restored))
        assert restored_fields.keys() == fields.keys()
        for name, arr in restored_fields.items():
            assert not arr.flags.writeable, name
            assert np.array_equal(arr, fields[name]), name

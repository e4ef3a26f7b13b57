"""Value semantics of every public value type: immutable fields, equality,
hashing and repr over the fields, identity for the types that hold arrays,
and arrays that stay read-only through pickle and copy."""

import copy
import math
import pickle

import numpy as np
import pytest

from spinoracle import (
    SpinSystem,
    coherent_state,
    make_spin_system,
    optimize_mu,
    q_function,
    sample_instance,
    spin_operators,
)
from spinoracle.cli import _OPTIONS, RunConfig, load_config
from spinoracle.codewords import InstanceBlock
from spinoracle.errors import Frozen
from spinoracle.oracle_circuit import Decisions, decide_blocks
from spinoracle.squeezing import SqueezeResult, _propagator


def decided_block():
    return next(decide_blocks([sample_instance("restricted", 8, rng=np.random.default_rng(3))]))


def value_types():
    """One value of each public value type, built by the library."""
    sys = make_spin_system(2)
    state = coherent_state(sys, math.pi / 2, 0.0)
    block, decided = decided_block()
    return [
        sys,
        state,
        spin_operators(sys),
        q_function(state, sys, 8, 8),
        optimize_mu(sys),
        block,
        decided,
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


def frozen_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from frozen_subclasses(sub)


def test_every_value_type_is_covered():
    defined = {cls for cls in frozen_subclasses(Frozen) if cls.__module__.startswith("spinoracle.")}
    assert len({type(v) for v in VALUES}) == len(VALUES)
    assert {type(v) for v in VALUES} == defined


def test_run_config_has_one_field_per_option():
    assert RunConfig.__slots__ == ("command", *_OPTIONS)


@pytest.mark.parametrize("cls, args, named, reason", [
    (SpinSystem, (2,), {}, "missing field 'dim'"),
    (InstanceBlock, ("fourier", 8), {}, "missing field 'js'"),  # js is not optional
    (SpinSystem, (2, 4, 8), {}, "takes 2 fields, got 3"),
    (SpinSystem, (2, 4), {"s": 1.5}, "no field 's'"),
    (SpinSystem, (2,), {"n": 2, "dim": 4}, "field 'n' twice"),
])
def test_the_constructor_takes_each_field_once(cls, args, named, reason):
    with pytest.raises(TypeError, match=reason):
        cls(*args, **named)


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
    twin = InstanceBlock(block.variant, block.dim, block.js, block.masks, block.draws)
    assert block == block and twin != block
    assert hash(block) == object.__hash__(block)
    fields = [getattr(decided, name) for name in Decisions.__slots__]
    assert decided == decided and Decisions(*fields) != decided
    assert hash(decided) == object.__hash__(decided)
    # so does every other type that holds arrays: compared by fields, equal
    # arrays would ask numpy for an array's truth, and an array has no hash
    kinds = ("StateVector", "SpinOperators", "SphericalGrid", "SqueezeResult")
    for value in ARRAY_VALUES:
        if type(value).__name__ in kinds:
            twin = rebuilt_from_writable_arrays(value)
            assert value == value and twin != value, type(value).__name__
            assert hash(value) == object.__hash__(value)
    assert {type(v).__name__ for v in ARRAY_VALUES} == {*kinds, "InstanceBlock", "Decisions"}


@pytest.mark.parametrize("name", ["raw", "probs", "pr_top", "is_a"])
def test_decision_arrays_are_read_only(name):
    _, decided = decided_block()
    arr = getattr(decided, name)
    with pytest.raises(ValueError):
        arr[...] = arr.copy()


def test_optional_fields_default_to_none_and_repr_lists_fields():
    for block in (InstanceBlock("fourier", 8, np.array([1, 2])),
                  InstanceBlock(variant="fourier", dim=8, js=np.array([1]))):
        assert (block.masks, block.draws) == (None, None)
    assert repr(SpinSystem(n=2, dim=4)) == "SpinSystem(n=2, dim=4)"


def array_fields(value):
    """Every ndarray a value holds, through nested value types such as SqueezeResult.state."""
    for name in type(value).__slots__:
        field = getattr(value, name)
        if isinstance(field, np.ndarray):
            yield f"{type(value).__name__}.{name}", field
        elif isinstance(field, Frozen):
            yield from array_fields(field)


ARRAY_VALUES = [v for v in VALUES if any(array_fields(v))]


def rebuilt_from_writable_arrays(value):
    """value built again by its constructor, from writable copies of its arrays."""
    if isinstance(value, SqueezeResult):  # distribution is derived from the state
        return SqueezeResult(value.mu, rebuilt_from_writable_arrays(value.state), value.v_minus)
    fields = [getattr(value, name) for name in type(value).__slots__]
    return type(value)(*[np.array(f) if isinstance(f, np.ndarray) else f for f in fields])


@pytest.mark.parametrize("value", ARRAY_VALUES, ids=lambda v: type(v).__name__)
def test_a_value_built_from_writable_arrays_holds_only_read_only_arrays(value):
    fields = dict(array_fields(rebuilt_from_writable_arrays(value)))
    assert fields.keys() == dict(array_fields(value)).keys()
    assert not [name for name, arr in fields.items() if arr.flags.writeable]


@pytest.mark.parametrize("value", ARRAY_VALUES, ids=lambda v: type(v).__name__)
def test_arrays_stay_read_only_through_pickle_and_copy(value):
    fields = dict(array_fields(value))
    assert fields and not any(arr.flags.writeable for arr in fields.values())
    for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        restored_fields = dict(array_fields(restored))
        assert restored_fields.keys() == fields.keys()
        for name, arr in restored_fields.items():
            assert not arr.flags.writeable, name
            assert np.array_equal(arr, fields[name]), name

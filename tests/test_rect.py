"""geometry.Rect is a slotted frozen dataclass built by its own __init__.
It must behave as the plain frozen dataclass it replaced (oracles.Rect) in
equality, hashing, repr, its errors, keyword construction,
dataclasses.replace, pickle and copy; it refuses assignment and carries no
__dict__."""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bknet.geometry import Rect

coords = st.one_of(
    st.floats(),    # NaN and the infinities included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, 1e308, -1e308, math.inf, -math.inf,
                     math.nan]),
    st.integers(-3, 3),
)
corners = st.tuples(coords, coords, coords, coords)
FIELDS = ("x0", "y0", "x1", "y1")


def build(cls, *args, **kwargs):
    """(instance, None), or (None, the ValueError's message)."""
    try:
        return cls(*args, **kwargs), None
    except ValueError as e:
        return None, str(e)


def state(r):
    """Each field with its type, so 0 and 0.0, and 0.0 and -0.0, differ."""
    return [(type(v), repr(v)) for v in (getattr(r, f) for f in FIELDS)]


def assert_twins(new, old):
    assert type(new) is Rect and type(old) is oracles.Rect
    assert repr(new) == repr(old)
    assert state(new) == state(old)
    assert hash(new) == hash(old)


class TestConstruction:
    @given(corners)
    @settings(max_examples=500, deadline=None)
    def test_positional_matches_twin(self, args):
        new, err = build(Rect, *args)
        old, old_err = build(oracles.Rect, *args)
        assert err == old_err
        if new is not None:
            assert_twins(new, old)

    @given(corners, st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_keywords_match_twin(self, args, n_positional):
        kwargs = dict(zip(FIELDS[n_positional:], args[n_positional:]))
        new, err = build(Rect, *args[:n_positional], **kwargs)
        old, old_err = build(oracles.Rect, *args[:n_positional], **kwargs)
        assert err == old_err
        if new is not None:
            assert_twins(new, old)
            assert new == Rect(*args)

    @pytest.mark.parametrize("args,kwargs", [
        ((1, 2, 3), {}),
        ((1, 2, 3, 4, 5), {}),
        ((1, 2, 3, 4), {"x0": 1}),
        ((), {"x0": 0, "y0": 0, "x1": 1, "y1": 1, "z": 1}),
    ])
    def test_bad_arguments_match_twin(self, args, kwargs):
        with pytest.raises(TypeError) as new:
            Rect(*args, **kwargs)
        with pytest.raises(TypeError) as old:
            oracles.Rect(*args, **kwargs)
        assert str(new.value) == str(old.value)

    def test_degenerate_and_nan_messages(self):
        for args in [(1.0, 0.0, 1.0, 1.0), (0.0, 1.0, 1.0, 0.5), (math.nan, 0.0, 1.0, 1.0),
                     (0.0, 0.0, 1.0, math.nan)]:
            with pytest.raises(ValueError, match="degenerate rectangle: Rect"):
                Rect(*args)
            assert build(Rect, *args)[1] == build(oracles.Rect, *args)[1]


class TestDataclassBehaviour:
    @given(corners, corners, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_eq_and_hash_match_twin(self, a, b, same):
        b = a if same else b
        new_a, new_b = build(Rect, *a)[0], build(Rect, *b)[0]
        old_a, old_b = build(oracles.Rect, *a)[0], build(oracles.Rect, *b)[0]
        if new_a is None or new_b is None:
            return
        assert (new_a == new_b) == (old_a == old_b)
        assert (new_a != new_b) == (old_a != old_b)
        assert (hash(new_a) == hash(new_b)) == (hash(old_a) == hash(old_b))
        assert new_a != old_a      # a dataclass equals only its own class

    @given(corners, st.sampled_from(FIELDS), coords)
    @settings(max_examples=300, deadline=None)
    def test_replace_matches_twin(self, args, name, value):
        new, old = build(Rect, *args)[0], build(oracles.Rect, *args)[0]
        if new is None:
            return
        got, err = build(dataclasses.replace, new, **{name: value})
        want, want_err = build(dataclasses.replace, old, **{name: value})
        assert err == want_err
        if got is not None:
            assert_twins(got, want)

    @given(corners)
    @settings(max_examples=100, deadline=None)
    def test_pickle_and_copy_match_twin(self, args):
        new, old = build(Rect, *args)[0], build(oracles.Rect, *args)[0]
        if new is None:
            return
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert_twins(pickle.loads(pickle.dumps(new, protocol)),
                         pickle.loads(pickle.dumps(old, protocol)))
        for how in (copy.copy, copy.deepcopy):
            got = how(new)
            assert_twins(got, how(old))
            assert got == new

    def test_assignment_is_refused(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        for name in FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, 2.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(r, name)
        # a name that is no field is refused too, but on Python 3.10 and 3.11
        # with a TypeError: the __setattr__ that dataclass(slots=True)
        # generates calls super() with the class it had before the slots
        for how in (lambda: setattr(r, "z", 2.0), lambda: delattr(r, "z")):
            with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
                how()
        assert r == Rect(0.0, 0.0, 1.0, 1.0) and not hasattr(r, "z")

    def test_no_instance_dict(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        assert not hasattr(r, "__dict__")
        assert Rect.__slots__ == FIELDS
        assert [f.name for f in dataclasses.fields(Rect)] == list(FIELDS)
        assert dataclasses.astuple(r) == (0.0, 0.0, 1.0, 1.0)

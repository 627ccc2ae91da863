"""Regression tests for strict-JSON serialization.

The spot planner's Monte Carlo percentiles are ``inf`` on degenerate
inputs and its probabilities can be NaN upstream of sanitization;
``json.dumps`` would happily emit bare ``NaN``/``Infinity`` tokens that
strict parsers reject. Every ``--json`` CLI funnels through
:func:`repro.serialization.dumps`, which these tests pin down.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.serialization import dumps, json_value, jsonify


class FakeNumpyScalar:
    """Anything exposing ``.item()`` (numpy scalars) unwraps."""

    def __init__(self, value):
        self._value = value

    def item(self):
        return self._value


class TestJsonValue:
    def test_finite_scalars_pass_through(self):
        for value in (None, True, 0, 1.5, "x"):
            assert json_value(value) == value

    def test_nonfinite_floats_become_none(self):
        assert json_value(float("nan")) is None
        assert json_value(float("inf")) is None
        assert json_value(float("-inf")) is None

    def test_numpy_like_scalars_unwrap_and_sanitize(self):
        assert json_value(FakeNumpyScalar(3.5)) == 3.5
        assert json_value(FakeNumpyScalar(float("nan"))) is None

    def test_unconvertible_objects_stringify(self):
        assert json_value(object()).startswith("<object")


class TestJsonify:
    def test_nested_nonfinite_floats_sanitized(self):
        payload = {
            "percentiles": {"p50": float("nan"), "p95": float("inf")},
            "rows": [1.0, float("-inf"), (2.0, float("nan"))],
        }
        clean = jsonify(payload)
        assert clean == {
            "percentiles": {"p50": None, "p95": None},
            "rows": [1.0, None, [2.0, None]],
        }

    def test_nonstring_keys_become_strings(self):
        clean = jsonify({1: "a", 2.5: "b", float("nan"): "c", (1, 2): "d"})
        assert clean == {"1": "a", "2.5": "b", "null": "c", "(1, 2)": "d"}

    def test_bool_keys_take_json_spellings(self):
        # Matches what json.dumps would emit for key-position bools.
        assert jsonify({True: 1, False: 2}) == {"true": 1, "false": 2}

    def test_colliding_keys_raise_instead_of_overwriting(self):
        with pytest.raises(ValueError):
            jsonify({1: "a", "1": "b"})
        with pytest.raises(ValueError):
            jsonify({float("nan"): "a", "null": "b"})

    def test_sets_serialize_deterministically(self):
        assert jsonify({3, 1, 2}) == [1, 2, 3]
        assert jsonify(frozenset({"b", "a"})) == ["a", "b"]


class TestDumps:
    def test_output_is_strict_json(self):
        """Regression: a Monte-Carlo-shaped payload with inf percentiles
        must parse under a strict reader (bare Infinity would not)."""
        payload = {"p50_hours": float("inf"), "completion": float("nan"), "ok": 1.0}
        text = dumps(payload)
        strict = json.loads(
            text, parse_constant=lambda tok: pytest.fail(f"bare token {tok!r}")
        )
        assert strict == {"p50_hours": None, "completion": None, "ok": 1.0}

    def test_round_trip_preserves_finite_structure(self):
        payload = {"a": [1, 2.5, "x"], "b": {"c": None, "d": True}}
        assert json.loads(dumps(payload)) == payload

    def test_allow_nan_is_off_by_default(self):
        # If a non-finite float ever slips past sanitization, dumps must
        # fail loudly rather than emit a bare token. Simulate the slip by
        # checking the flag's effect directly.
        with pytest.raises(ValueError):
            json.dumps(float("nan"), allow_nan=False)
        # dumps sanitizes first, so the same input succeeds as null.
        assert dumps(float("nan")) == "null"

    def test_kwargs_forwarded(self):
        assert dumps({"a": 1}, indent=2).startswith("{\n")


# ---------------------------------------------------------------------------
# The one-pass writer against its reference
# ---------------------------------------------------------------------------

EDGE_FLOATS = st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan"), 1e300, -1e-300])
FLOATS = st.floats() | EDGE_FLOATS
HASHABLE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    FLOATS,
    st.text(),  # non-ASCII and control characters included
)
NUMPY_SCALARS = st.one_of(
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    FLOATS.map(np.array),  # 0-d
    arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3),
           elements=FLOATS),
    arrays(np.int32, array_shapes(min_dims=1, max_dims=2, max_side=3)),
)
KEYS = st.one_of(
    st.text(max_size=4),
    st.integers(min_value=-3, max_value=3),
    st.just(float("nan")),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(min_value=0, max_value=2), st.text(max_size=2)),
)
VALUES = st.recursive(
    HASHABLE | NUMPY_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        st.sets(HASHABLE, max_size=4),
        st.frozensets(st.text(max_size=3), max_size=3),
    ),
    max_leaves=20,
)


class TestOnePassWriter:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(VALUES)
    def test_indented_dumps_is_the_reference_byte_for_byte(self, value):
        """``dumps(..., indent=2)`` walks the value once; it must equal
        the sanitize-then-encode reference, errors included."""
        try:
            expected = json.dumps(jsonify(value), indent=2, allow_nan=False)
        except ValueError as exc:  # colliding keys
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                dumps(value, indent=2)
            return
        assert dumps(value, indent=2) == expected
        assert dumps(value) == json.dumps(jsonify(value), allow_nan=False)

    def test_colliding_keys_raise_in_one_pass_too(self):
        with pytest.raises(ValueError, match="collide"):
            dumps({"a": [{1: "x", "1": "y"}]}, indent=2)

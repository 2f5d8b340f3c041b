"""Round trips and schema validation for the JSON documents, and the renderer."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headorder.amalgam import GluingConstraint, validate_amalgam
from headorder.brauer import PlanarBrauerTree, validate_tree
from headorder.circulant import CirculantState
from headorder.errors import SchemaError
from headorder.exponent import scaled_hereditary, standard_hereditary
from headorder.serialize import dumps, from_document, loads, render, to_document


def sample_tree():
    return validate_tree(
        PlanarBrauerTree(
            exceptional=0,
            edges=((0, 1), (0, 2)),
            dims=(1, 2),
            rotations=((0, 1), (0,), (1,)),
            p=3,
            a=2,
        )
    )


def sample_amalgam():
    comp = scaled_hereditary((1, 1), 2)
    return validate_amalgam(
        (comp, comp),
        (GluingConstraint((0, 0), (1, 0), 2),),
        params=(3, 1, 2),
    )


@pytest.mark.parametrize(
    "value",
    [
        standard_hereditary((1, 2, 1)),
        CirculantState((1, 1, 1), (0, 2, 2), f=2),
        sample_amalgam(),
        sample_tree(),
    ],
)
def test_round_trip(value):
    assert loads(dumps(value)) == value


def test_dumps_deterministic():
    a = dumps(sample_tree())
    b = dumps(sample_tree())
    assert a == b
    assert '"schema_version": 1' in a


def test_missing_field_path():
    with pytest.raises(SchemaError) as e:
        from_document({"schema_version": 1, "type": "exponent", "dims": [1]})
    assert "matrix" in str(e.value)


def test_unknown_type():
    with pytest.raises(SchemaError):
        from_document({"schema_version": 1, "type": "nope"})


def test_wrong_schema_version():
    with pytest.raises(SchemaError):
        from_document({"schema_version": 2, "type": "exponent"})


def test_invalid_matrix_reported_with_path():
    doc = {
        "schema_version": 1,
        "type": "exponent",
        "dims": [1, 1],
        "matrix": [[0, "x"], [0, 0]],
    }
    with pytest.raises(SchemaError) as e:
        from_document(doc)
    assert "matrix" in str(e.value)


def test_order_invariant_failure_becomes_schema_error():
    doc = {
        "schema_version": 1,
        "type": "exponent",
        "dims": [1, 1],
        "matrix": [[1, 0], [0, 0]],
    }
    with pytest.raises(SchemaError):
        from_document(doc)


def test_circulant_n_mismatch():
    doc = {
        "schema_version": 1,
        "type": "circulant",
        "n": 4,
        "dims": [1, 1, 1],
        "v": [0, 1, 1],
    }
    with pytest.raises(SchemaError):
        from_document(doc)


def test_tree_e_mismatch():
    doc = to_document(sample_tree())
    doc["e"] = 5
    with pytest.raises(SchemaError):
        from_document(doc)


def test_amalgam_kinds_default():
    doc = to_document(sample_amalgam())
    for g in doc["gluings"]:
        del g["kinds"]
    assert from_document(doc) == sample_amalgam()


def test_invalid_json_text():
    with pytest.raises(SchemaError):
        loads("{not json")


# the value shapes that reports and documents hold: str-keyed dicts, lists and
# tuples (empty ones too), ints of any size and sign, bools among ints, None,
# and strings with non-ASCII, control and quote characters
STRINGS = st.text() | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f a\u00e9\u2603\U0001d11e')
INTS = st.integers() | st.integers(min_value=-(10**60), max_value=10**60)
INT_LISTS = st.lists(INTS) | st.lists(INTS | st.booleans())
LEAVES = st.none() | st.booleans() | INTS | STRINGS | INT_LISTS
VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(STRINGS, children),
    max_leaves=40,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(VALUES)
def test_render_is_json_dumps(value):
    assert render(value) == json.dumps(value, sort_keys=True, indent=1)


@pytest.mark.parametrize("value", [1.5, {1, 2}, {1: 2}, {"a": [1, 2.0]}, [{"b": {None: 1}}]])
def test_render_rejects_other_types(value):
    with pytest.raises(TypeError):
        render(value)

"""repro.utils.jsonout writes exactly the bytes of ``json.dumps(indent=)``."""

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import jsonout

INDENTS = (1, 2, 4)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Color(str, enum.Enum):
    RED = "red"
    PERCENT = "50%"


def encodings(obj, indent, sort_keys):
    """What ``dumps`` and the joined ``iterencode`` chunks produce."""
    return (jsonout.dumps(obj, indent=indent, sort_keys=sort_keys),
            "".join(jsonout.iterencode(obj, indent=indent,
                                       sort_keys=sort_keys)))


def assert_parity(obj, indent, sort_keys):
    expected = json.dumps(obj, indent=indent, sort_keys=sort_keys)
    assert encodings(obj, indent, sort_keys) == (expected, expected)


# Strings with what the encoder must escape or pass through: quotes,
# backslashes, control characters, non-ASCII (BMP and astral), and
# ``%``, which a ``%``-template must not read as a conversion.
tricky_text = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='%sd"\\\x00\x1f\n\té☃\U0001f600', max_size=6),
)
floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, tricky_text,
    st.sampled_from(Level), st.sampled_from(Color),
)
# Key families that sort among themselves (json sorts the original keys).
str_keys = st.one_of(tricky_text, st.sampled_from(Color))
number_keys = st.one_of(st.integers(), floats, st.booleans(),
                        st.sampled_from(Level))
any_keys = st.one_of(str_keys, number_keys, st.none())


def documents(keys):
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(keys, children, max_size=4),
        ),
        max_leaves=20,
    )


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(documents(str_keys), documents(number_keys)),
       indent=st.sampled_from(INDENTS), sort_keys=st.booleans())
def test_sortable_documents_match_json(doc, indent, sort_keys):
    assert_parity(doc, indent, sort_keys)


@settings(max_examples=200, deadline=None)
@given(doc=documents(any_keys), indent=st.sampled_from(INDENTS))
def test_mixed_key_documents_match_json(doc, indent):
    assert_parity(doc, indent, False)


@settings(max_examples=100, deadline=None)
@given(events=st.lists(
    st.fixed_dictionaries({"name": tricky_text, "ts": floats,
                           "args": st.dictionaries(str_keys, scalars)}),
    max_size=6), indent=st.sampled_from(INDENTS), sort_keys=st.booleans())
def test_repeated_key_tuples_reuse_templates_exactly(events, indent,
                                                     sort_keys):
    """The Chrome-trace shape: many dicts with one key tuple."""
    assert_parity({"displayTimeUnit": "ms", "traceEvents": events},
                  indent, sort_keys)


@pytest.mark.parametrize("indent", INDENTS)
@pytest.mark.parametrize("sort_keys", [False, True])
def test_equal_non_str_key_tuples_keep_their_own_spelling(indent, sort_keys):
    # (1,), (True,) and (1.0,) are equal tuples; a template cached for
    # one of them would print "1" for all three.
    doc = [{1: "a"}, {True: "a"}, {1.0: "a"}, {None: "a"}]
    assert_parity(doc, indent, sort_keys)
    assert '"true": "a"' in jsonout.dumps(doc, indent=indent,
                                          sort_keys=sort_keys)


@pytest.mark.parametrize("indent", INDENTS)
@pytest.mark.parametrize("sort_keys", [False, True])
def test_str_enum_keys_and_values_encode_as_their_value(indent, sort_keys):
    # Color.RED == "red", so the second dict reuses the first's template.
    doc = [{"red": 7}, {Color.RED: Level.HIGH}, {Level.LOW: Color.PERCENT}]
    assert_parity(doc, indent, sort_keys)


@pytest.mark.parametrize("bad", [{1, 2}, b"bytes", object()],
                         ids=["set", "bytes", "object"])
@pytest.mark.parametrize("wrap", [
    lambda v: v, lambda v: [1, v], lambda v: {"k": v},
    lambda v: {"k": [{"j": v}]},
], ids=["top", "list", "dict", "nested"])
def test_unsupported_types_raise_type_error(bad, wrap):
    doc = wrap(bad)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        jsonout.dumps(doc, indent=2)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        "".join(jsonout.iterencode(doc, indent=2))


def test_unsupported_key_types_raise_type_error():
    with pytest.raises(TypeError, match="keys must be str"):
        jsonout.dumps({(1, 2): "a"}, indent=2)


def test_iterencode_streams_one_string_per_child_element():
    events = [{"ph": "X", "ts": float(i), "args": {"n": i}}
              for i in range(5)]
    doc = {"displayTimeUnit": "ms", "traceEvents": events}
    chunks = list(jsonout.iterencode(doc, indent=1))
    # The first key, one chunk per event (the first carrying the list's
    # key), then the list's and the document's closing lines.
    assert len(chunks) == len(events) + 3
    assert "".join(chunks) == json.dumps(doc, indent=1)

"""The canonical JSON writer against its oracle, `json.dumps` with indent=2
and ensure_ascii=False plus a newline."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glueforge.cli import _any_int_digits
from glueforge.hypgraph import GraphBackend, cycle_graph
from glueforge.ioutil import canonical_dumps


def oracle(obj: object) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


LONE_SURROGATES = st.integers(0xD800, 0xDFFF).map(chr)
TEXTS = st.one_of(
    st.text(),
    st.text(st.characters(min_codepoint=0x80)),
    st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029\ufeff')),
    st.text(st.one_of(LONE_SURROGATES, st.characters())),
)
# past 4,300 digits, CPython's default int/str limit
HUGE_INTS = st.builds(
    lambda digits, offset, sign: sign * (10**digits + offset),
    st.integers(4_301, 5_000),
    st.integers(),
    st.sampled_from([1, -1]),
)
INTS = st.one_of(st.integers(), HUGE_INTS)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, -2.5e-308]),
)
SCALARS = st.one_of(TEXTS, INTS, FLOATS, st.booleans(), st.none())
KEYS = st.one_of(TEXTS, INTS, FLOATS, st.booleans(), st.none())
# what the writer joins in one expression: flat int lists and lists of int
# sequences, with empty rows and bools that must leave that path
INT_ROWS = st.one_of(
    st.lists(INTS),
    st.lists(st.tuples(st.integers(), st.integers())),
    st.lists(st.lists(st.integers(), max_size=2)),
    st.lists(st.lists(st.one_of(st.integers(), st.booleans()), max_size=3)),
)
TREES = st.recursive(
    st.one_of(SCALARS, INT_ROWS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def shared_rows(draw):
    """One edge tuple placed under several keys, at equal and at other
    depths, as the boundaries of one graph hand out its edges."""
    rows = tuple(draw(st.lists(st.tuples(st.integers(), st.integers()), min_size=1, max_size=6)))
    tree = {}
    for key in draw(st.lists(st.text(max_size=3), min_size=2, max_size=5)):
        value = rows
        for _ in range(draw(st.integers(0, 2))):
            value = [value] if draw(st.booleans()) else {key: value}
        tree[key] = value
    return tree


@settings(max_examples=300, deadline=None)
@given(st.one_of(TREES, shared_rows()))
def test_the_writer_prints_what_json_prints(obj):
    with _any_int_digits():
        assert canonical_dumps(obj) == oracle(obj)


def test_every_backend_on_a_graph_hands_out_its_one_edge_tuple():
    graph = cycle_graph(5)
    a, b = GraphBackend(graph), GraphBackend(graph)
    assert a.to_json()["edges"] is b.to_json()["edges"] is graph.sorted_edges
    obj = {"boundaries": [{"backend": a.to_json()}, {"backend": b.to_json()}], "b": b.to_json()}
    assert canonical_dumps(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"a": object()},
        [1, {2, 3}],
        {"rows": [(1, 2), (3, b"4")]},
        {(1, 2): 0},
        {"a": {frozenset(): 1}},
    ],
)
def test_unsupported_values_and_keys_raise_as_json_does(obj):
    with pytest.raises(TypeError) as expected:
        oracle(obj)
    with pytest.raises(TypeError) as raised:
        canonical_dumps(obj)
    assert str(raised.value) == str(expected.value)

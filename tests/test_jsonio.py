"""The artifact writer against the standard library's indented encoder,
which it replaces and which stays here as the reference."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from multicat import dsl, jsonio
from multicat.cli import main
from multicat.core import TableMulticategory


def reference(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


TRICKY = ['"', "\\", "\n", "},\n    {", "],\n      [", "é", "日本", "\x00",
          " ", "a\": [", ""]
strings = st.one_of(st.sampled_from(TRICKY), st.text(max_size=8))
scalars = st.one_of(
    strings, st.booleans(), st.none(),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True))
flat_rows = st.one_of(
    st.lists(st.dictionaries(strings, scalars, min_size=1, max_size=4),
             max_size=5),
    st.lists(st.lists(scalars, min_size=1, max_size=4), max_size=5),
    st.lists(st.tuples(scalars, scalars), max_size=5))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=4),
        st.dictionaries(st.floats(allow_nan=False), children, max_size=3))


documents = st.recursive(st.one_of(scalars, flat_rows), containers,
                         max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_writer_matches_indented_json_dumps(doc):
    assert jsonio.encode(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), [[]], [{}], [{}, {"a": 1}], [{"a": 1}, {}], [[], [1]],
    {"a": [{"b": 1}, {"c": "},\n      {"}]},
    [{"a": 1}, [1], {"b": 2}], [{"a": [1]}, {"b": 2}], [[{"a": 1}]],
    {True: 1, False: [2]}, {None: [1]}, {None: 1},
    {1.5: 3, float("nan"): [4], 7: {"x": [5]}},
    [float("inf"), -float("inf"), float("nan"), -0.0, 10 ** 30],
    {"rows": [{"z": i, "a": str(i)} for i in range(50)]},
])
def test_writer_edge_cases(doc):
    assert jsonio.encode(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {1, 2}, {"a": {1, 2}}, [1, object()], [{"a": 1}, {"b": {1}}],
    {"a": [1, {"b": b"x"}]}, {(1, 2): 3}, {"a": {(1, 2): [1]}},
    [{(1, 2): 1}, {"b": 2}], {"a": {"b": 1}, 2: [1]},
])
def test_unencodable_raises_as_json_dumps(doc):
    with pytest.raises(TypeError) as want:
        reference(doc)
    with pytest.raises(TypeError) as got:
        jsonio.encode(doc)
    assert str(got.value) == str(want.value)


def test_fixture_exports_match_indented_json_dumps(docs_dir, capsys):
    exported = 0
    for path in sorted(docs_dir.glob("*.mcat")):
        objects, _ = dsl.elaborate(dsl.parse(path.read_text())[0])
        for name, obj in sorted(objects.items()):
            if not isinstance(obj, TableMulticategory):
                continue
            assert main(["export", str(path), "--name", name]) == 0
            got = capsys.readouterr()
            assert got.err == ""
            assert got.out == reference(jsonio.multicategory_json(obj))
            exported += 1
    assert exported >= 12

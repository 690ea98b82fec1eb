"""``deep_size_bytes`` against the frozen ``isinstance``-chain walk.

The walk dispatches on the exact type of the common shapes (dict, list,
tuple, str, int, float) and sizes ASCII text by ``len``; every other type
takes the old chain.  Sizes, cycle detection and the errors raised must
match the frozen walk on any plain-data value, including subclasses,
non-ASCII text, bools, virtual payloads, declared sizes and values the
walk must reject.
"""

import pytest
from hypothesis import given, strategies as st

from repro.agents.serialization import SerializationError, deep_size_bytes

from tests import frozen_hotpath as frozen


class Text(str):
    pass


class Table(dict):
    pass


class Items(list):
    pass


class Sized:
    def __init__(self, size_bytes):
        self.size_bytes = size_bytes


class Opaque:
    pass


def outcome(fn, value):
    try:
        return fn(value)
    except SerializationError as exc:
        return ("error", str(exc))


def assert_same(value):
    assert outcome(deep_size_bytes, value) == outcome(frozen.deep_size_bytes,
                                                      value)


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(), st.text().map(Text), st.binary(), st.binary().map(bytearray),
    st.integers(min_value=0, max_value=10**6).map(Sized),
    st.sampled_from([Sized(True), Sized(2.5), Opaque()]),
)
keys = st.one_of(st.text(max_size=8), st.integers(), st.booleans(),
                 st.just("__virtual_bytes__"))
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(Items),
        st.frozensets(st.integers(), max_size=4),
        st.sets(st.text(max_size=4), max_size=4),
        st.dictionaries(keys, children, max_size=5),
        st.dictionaries(keys, children, max_size=5).map(Table),
        st.fixed_dictionaries({"__virtual_bytes__": st.integers(
            min_value=-5, max_value=10**7)}, optional={"x": children}),
    ),
    max_leaves=30,
)


@given(values)
def test_matches_frozen_walk(value):
    assert_same(value)


@given(st.text())
def test_text_is_sized_as_utf8(text):
    assert deep_size_bytes(text) == 16 + len(text.encode("utf-8"))
    assert_same([text, Text(text), {text: text}])


def cycles():
    """A cycle through each container kind (and through subclasses)."""
    out = []
    a = []
    a.append(a)
    out.append(a)
    d = {}
    d["self"] = d
    out.append(d)
    inner = []
    t = (1, inner)
    inner.append(t)
    out.append(t)
    items = Items()
    items.append([items])
    out.append(items)
    table = Table()
    table["k"] = {"deeper": [table]}
    out.append(table)
    loop_back = {"a": [1, 2]}
    loop_back["a"].append({"b": (loop_back,)})
    out.append({"outer": loop_back})
    return out


@pytest.mark.parametrize("value", cycles())
def test_cycles_rejected_alike(value):
    result = outcome(deep_size_bytes, value)
    assert result[0] == "error" and "cyclic" in result[1]
    assert_same(value)


def test_shared_references_are_not_cycles():
    shared = {"payload": "x" * 10}
    value = [shared, shared, (shared, [shared])]
    assert deep_size_bytes(value) == frozen.deep_size_bytes(value)


def test_bool_declared_size_is_rejected():
    for value in (Sized(True), [Sized(False)], {"c": Sized(True)}):
        with pytest.raises(SerializationError):
            deep_size_bytes(value)
        assert_same(value)


def test_first_error_is_the_one_the_frozen_walk_raises():
    value = {"a": Opaque(), "b": [Sized(1.5)], "c": [[]]}
    value["c"][0].append(value["c"])
    assert_same(value)
    assert_same([Opaque(), Sized(True), "ok"])


def test_deep_nesting_needs_no_recursion():
    value = []
    for _ in range(50_000):
        value = [value]
    assert deep_size_bytes(value) == 16 * 50_001

import collections
import enum
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsr.errors import MalformedTable
from mvsr.jsonio import (canonical_dumps, load_algebra, matrix_from_dict,
                         matrix_to_dict, mv_from_dict, mv_to_dict,
                         semimodule_from_dict, semimodule_to_dict,
                         semiring_from_dict, semiring_to_dict)
from mvsr.matrix import SemiringMatrix
from mvsr.mv import lukasiewicz_chain
from mvsr.semimodule import free_semimodule
from mvsr.semiring import boolean_semiring


def test_semiring_round_trip():
    s = boolean_semiring()
    back = semiring_from_dict(semiring_to_dict(s))
    assert back.add == s.add and back.mul == s.mul
    assert back.zero == s.zero and back.one == s.one
    assert back.label(1) == s.label(1)


def test_mv_round_trip():
    a = lukasiewicz_chain(4)
    d = mv_to_dict(a)
    assert d["kind"] == "mv"
    back = mv_from_dict(d)
    assert back.oplus == a.oplus and back.star == a.star
    assert back.label(1) == "1/3"


def test_semimodule_round_trip():
    m = free_semimodule(boolean_semiring(), ["x", "y"])
    d = semimodule_to_dict(m)
    assert d["kind"] == "semimodule"
    assert d["scalars"]["kind"] == "semiring"
    assert "labels" not in d
    back = semimodule_from_dict(d)
    assert back.add == m.add and back.action == m.action
    assert back.scalars.size == 2


def test_matrix_round_trip():
    s = boolean_semiring()
    u = SemiringMatrix(s, 2, 3, ((0, 1, 0), (1, 1, 0)))
    back = matrix_from_dict(matrix_to_dict(u))
    assert back.rows == 2 and back.cols == 3
    assert back.entries == u.entries


def test_load_dispatches_on_kind():
    s = boolean_semiring()
    a = lukasiewicz_chain(2)
    assert load_algebra(semiring_to_dict(s)).mul == s.mul
    assert load_algebra(mv_to_dict(a)).star == a.star


def test_load_rejects_bad_kind():
    with pytest.raises(MalformedTable):
        load_algebra({"kind": "group"})
    with pytest.raises(MalformedTable):
        load_algebra(["not", "an", "object"])
    with pytest.raises(MalformedTable):
        load_algebra({"size": 2})


def test_decoders_reject_wrong_shapes():
    good = semiring_to_dict(boolean_semiring())
    bad = dict(good, add="oops")
    with pytest.raises(MalformedTable):
        semiring_from_dict(bad)
    bad = dict(good, zero=True)
    with pytest.raises(MalformedTable):
        semiring_from_dict(bad)
    mv_bad = dict(mv_to_dict(lukasiewicz_chain(2)), star=3)
    with pytest.raises(MalformedTable):
        mv_from_dict(mv_bad)


def test_canonical_dumps_is_stable():
    text = canonical_dumps({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert text.endswith("\n")
    scrambled = json.loads('{"a": [2, 3], "b": 1}')
    assert canonical_dumps(scrambled) == text


def _oracle(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# Text with non-ASCII characters and lone surrogates, which the escape
# writes as \u sequences.
_TEXT = st.one_of(st.text(max_size=6),
                  st.text(st.characters(min_codepoint=0x80), max_size=4),
                  st.text(st.characters(categories=["Cs"]), max_size=3))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2 ** 200), 2 ** 200),
    st.floats(), st.sampled_from([float("nan"), float("inf"),
                                  float("-inf"), -0.0]),
    _TEXT)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(value=_VALUES)
def test_canonical_dumps_writes_the_bytes_of_json_dumps(value):
    assert canonical_dumps(value) == _oracle(value)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"a": {}}, {"b": [{}, []], "a": ()}, "\u00bd",
    "\ud800", 2 ** 200, -0.0, float("nan"), [float("-inf"), True, None]])
def test_canonical_dumps_on_empty_nested_and_escaped_values(value):
    assert canonical_dumps(value) == _oracle(value)


class _Level(enum.IntEnum):
    HIGH = 3


class _Name(str):
    pass


@pytest.mark.parametrize("value", [
    _Level.HIGH, _Name("x"), collections.OrderedDict(b=[_Level.HIGH], a=1),
    {_Name("k"): (1.5, _Name("\u00e9"))}])
def test_canonical_dumps_writes_subclasses_as_their_base(value):
    assert canonical_dumps(value) == _oracle(value)


@pytest.mark.parametrize("value", [
    {1, 2}, Fraction(1, 2), np.int64(3), [1, {2}], {"a": [Fraction(1)]}])
def test_canonical_dumps_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        _oracle(value)
    with pytest.raises(TypeError):
        canonical_dumps(value)


@pytest.mark.parametrize("value", [
    {1: "a"}, {None: 0}, {"a": {2.5: 1}}, {True: [1]}, {"a": 1, 2: 3}])
def test_canonical_dumps_refuses_a_key_that_is_not_a_str(value):
    with pytest.raises(TypeError):
        canonical_dumps(value)


@pytest.mark.parametrize("labels", [[None, {"a": [1]}], [True, 1.5],
                                    ["0", 1], "01"])
def test_labels_must_be_strings(labels):
    desc = dict(mv_to_dict(lukasiewicz_chain(2)), labels=labels)
    with pytest.raises(MalformedTable,
                       match="'labels' must be a list of strings"):
        mv_from_dict(desc)
    scalars = dict(semiring_to_dict(boolean_semiring()), labels=labels)
    with pytest.raises(MalformedTable,
                       match="'labels' must be a list of strings"):
        semiring_from_dict(scalars)

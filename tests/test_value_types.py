"""The value types' contract: construction, repr, equality, hashing and
immutability, as a frozen dataclass has them, and the one dataclass the
package still declares."""

import dataclasses
import inspect
from fractions import Fraction

import pytest

import outersplit
from outersplit import (
    BoundReport,
    CfcInstance,
    DualGraph,
    Face,
    FaceCover,
    FamilySpec,
    FvsSolution,
    OsnResult,
    PlaneGraph,
    SplitOp,
    SplitSequence,
    build_cfc_instance,
    k4,
)
from outersplit.errors import OuterFaceUnset

_G = k4()
_CFC = build_cfc_instance(k4())


def _fields(cls):
    return tuple(inspect.signature(cls).parameters)


# Each type with the values of its fields, in order, and a second set
# that differs from the first in its last field.
SAMPLES = {
    BoundReport: ((4, 3, Fraction(1, 2), None, Fraction(1, 2), 1),
                  (4, 3, Fraction(1, 2), None, Fraction(1, 2), 2)),
    FvsSolution: ((frozenset({0}), DualGraph((1,), ())),
                  (frozenset({0}), DualGraph((2,), ()))),
    FamilySpec: (("random_biconnected", None, 8, 11, 1),
                 ("random_biconnected", None, 8, 11, 2)),
    Face: ((0, (("a", "b"), ("b", "a")), frozenset("ab")),
           (0, (("a", "b"), ("b", "a")), frozenset("a"))),
    PlaneGraph: ((_G.rotation, _G.walks, _G.slot_face, 0),
                 (_G.rotation, _G.walks, _G.slot_face, 1)),
    DualGraph: (((0, 1), ((0, 1), (0, 1))), ((0, 1), ((0, 1),))),
    CfcInstance: ((_CFC.primal, _CFC.dstar, _CFC.vertex_of_face,
                   _CFC.face_of_vertex),
                  (_CFC.primal, _CFC.dstar, _CFC.vertex_of_face, {})),
    SplitOp: (("a", 0, 1, "a.1", "a.2"), ("a", 0, 1, "a.1", "a.3")),
    SplitSequence: (((SplitOp("a", 0, 1, "a.1", "a.2"),),), ((),)),
    FaceCover: ((frozenset({0, 1}), (("a", 0), ("a", 1))),
                (frozenset({0, 1}), (("a", 0), ("b", 1)))),
}
TYPES = list(SAMPLES)
HASHABLE = [cls for cls in TYPES if cls not in (PlaneGraph, CfcInstance)]
DEFAULTS = {
    FamilySpec: {"d": None, "n": None, "m": None, "seed": 0},
    PlaneGraph: {"outer_face": None},
}


def _make(cls, which=0):
    return cls(*SAMPLES[cls][which])


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_construction_by_position_and_keyword(cls):
    values = SAMPLES[cls][0]
    names = _fields(cls)
    assert len(names) == len(values)
    for x in (cls(*values), cls(**dict(zip(names, values)))):
        for name, value in zip(names, values):
            assert getattr(x, name) is value


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_defaults(cls):
    names = _fields(cls)
    defaults = {name: p.default
                for name, p in inspect.signature(cls).parameters.items()
                if p.default is not inspect.Parameter.empty}
    assert defaults == DEFAULTS.get(cls, {})
    required = SAMPLES[cls][0][:len(names) - len(defaults)]
    x = cls(*required)
    for name, value in defaults.items():
        assert getattr(x, name) == value


def test_family_spec_defaults_by_keyword():
    assert FamilySpec(family="k4") == FamilySpec("k4", None, None, None, 0)
    assert FamilySpec("fan", n=5).n == 5


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_missing_or_unknown_arguments_raise_type_error(cls):
    values = SAMPLES[cls][0]
    required = len(values) - len(DEFAULTS.get(cls, {}))
    with pytest.raises(TypeError):
        cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values[:required], bogus=1)
    with pytest.raises(TypeError):
        cls(*values, **{_fields(cls)[0]: values[0]})


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_format(cls):
    x = _make(cls)
    body = ", ".join(f"{name}={value!r}"
                     for name, value in zip(_fields(cls), SAMPLES[cls][0]))
    assert repr(x) == f"{cls.__name__}({body})"


def test_repr_literals():
    assert repr(SplitOp("a", 0, 1, "a.1", "a.2")) == (
        "SplitOp(vertex='a', face_a=0, face_b=1, copy_1='a.1', "
        "copy_2='a.2')")
    assert repr(FamilySpec("k4")) == (
        "FamilySpec(family='k4', d=None, n=None, m=None, seed=0)")
    assert repr(FaceCover(frozenset({0}), (("a", 0),))) == (
        "FaceCover(faces=frozenset({0}), tree=(('a', 0),))")


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda c: c.__name__)
def test_equal_values_compare_and_hash_equal(cls):
    x, y = _make(cls), _make(cls)
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(SAMPLES[cls][0])
    other = _make(cls, 1)
    assert x != other and not x == other
    # another type with the same values is never equal
    assert x != SAMPLES[cls][0]
    assert x.__eq__(SAMPLES[cls][0]) is NotImplemented
    assert len({x, y, other}) == 2


def test_plane_graph_compares_by_identity():
    g, h = _make(PlaneGraph), _make(PlaneGraph)
    assert g == g and g != h
    assert hash(g) == object.__hash__(g)
    assert len({g, h, g}) == 2


def test_cfc_instance_compares_by_value_and_is_unhashable():
    x, y = _make(CfcInstance), _make(CfcInstance)
    assert x == y and x != _make(CfcInstance, 1)
    with pytest.raises(TypeError):
        hash(x)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    x = _make(cls)
    for name, value in zip(_fields(cls), SAMPLES[cls][1]):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert tuple(getattr(x, name) for name in _fields(cls)) == (
        SAMPLES[cls][0])


@pytest.mark.parametrize("outer", [4, -1, True, "0", 0.0])
def test_plane_graph_checks_outer_face_when_made(outer):
    with pytest.raises(OuterFaceUnset):
        PlaneGraph(_G.rotation, _G.walks, _G.slot_face, outer)


def test_plane_graph_faces_are_cached():
    g = _make(PlaneGraph)
    assert g.faces is g.faces
    assert [f.id for f in g.faces] == [0, 1, 2, 3]


def test_osn_result_is_the_only_dataclass():
    found = sorted(name for name, obj in vars(outersplit).items()
                   if isinstance(obj, type) and dataclasses.is_dataclass(obj))
    assert found == ["OsnResult"]
    assert [f.name for f in dataclasses.fields(OsnResult)] == [
        "osn", "cover", "splits"]

"""The value classes ContinuedFraction, Funnel, ExtendedLine and LineFamily
compare, hash and print by their fields, as the frozen dataclasses they
replaced did, refuse every write, and survive copy and pickle."""

import copy
import pickle
from types import MappingProxyType

import pytest

from sternbrocot import (
    INFINITE_POINT,
    INFINITY,
    ContinuedFraction,
    ExtendedLine,
    ExtendedRational,
    Funnel,
    LineFamily,
    PlanePoint,
    build_diagram,
    funnel,
    line_family,
)

R = ExtendedRational
CF = ContinuedFraction


def half_funnel():
    return funnel(R(1, 2))


def family():
    return line_family(CF((0, 3, 2)), 1)


def line():
    return family().line_pair()[0]


FIELDS = {
    CF: ("terms",),
    Funnel: ("alpha", "expansion", "triangles", "left_edge", "right_edge", "indices"),
    ExtendedLine: ("anchor", "through"),
    LineFamily: ("base", "slot", "num_coeffs", "den_coeffs", "anchor_x"),
}


def fields(x):
    return {name: getattr(x, name) for name in FIELDS[type(x)]}


# Each value with its compared fields and its exact repr.
PINNED = [
    pytest.param(lambda: CF([0, 3, 2]), lambda: ((0, 3, 2),),
                 "ContinuedFraction(terms=(0, 3, 2))", id="ContinuedFraction"),
    pytest.param(half_funnel, lambda: (R(1, 2), CF((0, 2)), ((R(0), R(1, 2), R(1)),), (R(0),), (R(1),)),
                 "Funnel(alpha=ExtendedRational(1, 2), expansion=ContinuedFraction(terms=(0, 2)), "
                 "triangles=((ExtendedRational(0, 1), ExtendedRational(1, 2), ExtendedRational(1, 1)),), "
                 "left_edge=(ExtendedRational(0, 1),), right_edge=(ExtendedRational(1, 1),), "
                 "indices=mappingproxy({ExtendedRational(0, 1): 2, ExtendedRational(1, 1): 1}))",
                 id="Funnel"),
    pytest.param(line, lambda: (PlanePoint(R(0), R(0)), PlanePoint(R(2, 3), R(1, 3))),
                 "ExtendedLine(anchor=PlanePoint(x=ExtendedRational(0, 1), y=ExtendedRational(0, 1)), "
                 "through=PlanePoint(x=ExtendedRational(2, 3), y=ExtendedRational(1, 3)))",
                 id="ExtendedLine"),
    pytest.param(family, lambda: tuple(fields(family()).values()),
                 "LineFamily(base=ContinuedFraction(terms=(0, 3, 2)), slot=1, "
                 "num_coeffs=(0, 2), den_coeffs=(2, 1), anchor_x=ExtendedRational(0, 1))",
                 id="LineFamily"),
]


class TestFormerDataclassBehaviour:
    @pytest.mark.parametrize("make, compared, text", PINNED)
    def test_equality_hash_and_repr(self, make, compared, text):
        x = make()
        assert x == make() and not x != make()
        assert x != compared() and x != list(compared())
        assert x != PlanePoint(R(1), R(1)) and x != CF((7,))
        assert hash(x) == hash(compared()) == hash(make())
        assert repr(x) == text

    @pytest.mark.parametrize("make, compared, text", PINNED)
    def test_assignment_and_deletion_raise_and_keep_the_hash(self, make, compared, text):
        x = make()
        h = hash(x)
        for name, before in fields(x).items():
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert getattr(x, name) is before
        with pytest.raises(AttributeError):
            x.other = 1
        assert hash(x) == h and x == make()

    def test_funnels_that_differ_only_in_indices_are_equal(self):
        f = half_funnel()
        other = Funnel(f.alpha, f.expansion, f.triangles, f.left_edge, f.right_edge,
                       MappingProxyType({R(0): 9}))
        assert other == f and hash(other) == hash(f)
        moved = Funnel(f.alpha, f.expansion, f.triangles, f.right_edge, f.left_edge, f.indices)
        assert moved != f

    def test_keyword_construction(self):
        assert CF(terms=[1, 2]) == CF((1, 2))
        for x in (half_funnel(), line()):
            assert type(x)(**fields(x)) == x
        # A family is built from its base and slot alone; the forms and the
        # anchor are derived, so the constructor takes no other field.
        fam = family()
        assert LineFamily(base=fam.base, slot=fam.slot) == fam
        with pytest.raises(TypeError):
            LineFamily(**fields(fam))


COPIED = [
    pytest.param(lambda: R(1, 2), id="ExtendedRational"),
    pytest.param(lambda: INFINITY, id="INFINITY"),
    pytest.param(lambda: PlanePoint(R(-2, 3), R(1, 3)), id="PlanePoint"),
    pytest.param(lambda: INFINITE_POINT, id="INFINITE_POINT"),
    pytest.param(lambda: CF((0, 3, 2)), id="ContinuedFraction"),
    pytest.param(line, id="ExtendedLine"),
    pytest.param(family, id="LineFamily"),
    pytest.param(lambda: line_family(CF((-2, 1, 4, 3)), 3), id="LineFamily-last-slot"),
    pytest.param(lambda: build_diagram(R(0), R(1), 5), id="Diagram"),
]


class TestCopyAndPickle:
    @pytest.mark.parametrize("make", COPIED)
    @pytest.mark.parametrize("trip", [copy.copy, copy.deepcopy,
                                      lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_round_trip_gives_an_equal_value(self, make, trip):
        x = make()
        y = trip(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == repr(x)

    def test_a_family_reduces_to_its_base_and_slot(self):
        fam = line_family(CF((-2, 1, 4, 3)), 2)
        assert fam.__reduce__() == (LineFamily, (fam.base, fam.slot))

    def test_a_funnel_copies(self):
        # Its MappingProxyType indices can be copied but not pickled.
        f = funnel(R(13, 30))
        g = copy.copy(f)
        assert g == f and g.indices == f.indices

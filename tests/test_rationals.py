import math
import operator

import pytest
from hypothesis import given, strategies as st

from sternbrocot import (
    DomainError,
    ExtendedRational,
    INFINITE_POINT,
    INFINITY,
    ParseError,
    PlanePoint,
    is_farey_pair,
    mediant,
    vertex_point,
)

R = ExtendedRational


class TestMakeRational:
    """Making a value from an integer pair: the constructor normalizes it."""

    def test_caption_value(self):
        x = R(-4, 7)
        assert (x.num, x.den) == (-4, 7)
        assert str(x) == "-4/7"

    def test_sign_and_gcd_normalization(self):
        x = R(2, -4)
        assert (x.num, x.den) == (-1, 2)

    def test_any_nonzero_over_zero_is_the_infinite_value(self):
        assert R(-3, 0) == INFINITY
        assert R(7, 0) == INFINITY

    def test_rejects_zero_over_zero(self):
        with pytest.raises(DomainError):
            R(0, 0)

    def test_zero_normalizes_to_0_over_1(self):
        assert (R(0, -5).num, R(0, -5).den) == (0, 1)

    @pytest.mark.parametrize("num, den, text", [
        (True, 1, "1"), (True, 2, "1/2"), (2, True, "2"), (False, 3, "0"), (True, 0, "1/0"),
    ])
    def test_bools_are_stored_as_plain_ints(self, num, den, text):
        x = R(num, den)
        assert type(x.num) is int and type(x.den) is int
        assert str(x) == text and repr(x) == f"ExtendedRational({x.num}, {x.den})"
        assert "True" not in repr(x) and "False" not in repr(x)

    @pytest.mark.parametrize("args", [(1.5,), (1, "2"), (2.5, 0), (1, 2.0)])
    def test_non_integers_are_a_domain_error(self, args):
        with pytest.raises(DomainError, match="numerator and denominator must be integers"):
            R(*args)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4), st.integers(-50, 50))
    def test_normalization_idempotent_under_scaling(self, p, q, k):
        if k == 0:
            k = 1
        assert R(p * k, q * k) == R(p, q)


class TestFareyPairs:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (R(0, 1), R(1, 1), True),
            (R(2, 7), R(1, 3), True),
            (R(1, 3), R(2, 3), False),
            (R(1, 0), R(0, 1), True),
            (R(1, 0), R(5, 1), True),
            (R(1, 0), R(1, 2), False),
        ],
    )
    def test_examples(self, a, b, expected):
        assert is_farey_pair(a, b) is expected

    @given(st.integers(-99, 99), st.integers(0, 40), st.integers(-99, 99), st.integers(0, 40))
    def test_symmetric(self, p, q, r, s):
        if (p, q) == (0, 0) or (r, s) == (0, 0):
            return
        a, b = R(p, q), R(r, s)
        assert is_farey_pair(a, b) == is_farey_pair(b, a)


def _walk_to_farey_pair(moves):
    """Descend the Stern-Brocot tree from (0/1, 1/0); every node is a Farey pair."""
    a, b = R(0, 1), R(1, 0)
    for left in moves:
        m = mediant(a, b)
        if left:
            b = m
        else:
            a = m
    return a, b


class TestMediant:
    def test_examples(self):
        assert mediant(R(0, 1), R(1, 1)) == R(1, 2)
        assert mediant(R(1, 4), R(1, 3)) == R(2, 7)
        assert mediant(R(1, 0), R(0, 1)) == R(1, 1)

    def test_mediant_example_forms_triple(self):
        a, b, m = R(1, 4), R(1, 3), mediant(R(1, 4), R(1, 3))
        assert is_farey_pair(a, m) and is_farey_pair(m, b) and is_farey_pair(a, b)

    def test_rejects_non_farey_input(self):
        with pytest.raises(DomainError):
            mediant(R(1, 3), R(2, 3))

    @given(st.lists(st.booleans(), max_size=14))
    def test_mediant_completes_every_pair_to_a_triple(self, moves):
        a, b = _walk_to_farey_pair(moves)
        m = mediant(a, b)
        assert is_farey_pair(a, m) and is_farey_pair(m, b)


class TestVertexPoint:
    def test_examples(self):
        p = vertex_point(R(2, 7))
        assert (p.x, p.y) == (R(2, 7), R(1, 7))
        p5 = vertex_point(R(5))
        assert (p5.x, p5.y) == (R(5), R(1))
        assert vertex_point(INFINITY) is INFINITE_POINT

    @given(st.integers(-200, 200), st.integers(1, 200))
    def test_y_is_exactly_one_over_den(self, p, q):
        v = R(p, q)
        pt = vertex_point(v)
        assert pt.y == R(1, v.den)

    def test_injective_on_distinct_values(self):
        seen = {}
        for p in range(-12, 13):
            for q in range(1, 13):
                v = R(p, q)
                pt = vertex_point(v)
                key = (pt.x.num, pt.x.den, pt.y.num, pt.y.den)
                assert seen.setdefault(key, v) == v


class TestPlanePoint:
    @pytest.mark.parametrize("x, y", [
        (R(1), None),                # a point with one coordinate
        (None, R(1)),
        (R(1), INFINITY),            # a finite point at 1/0
    ])
    def test_inconsistent_points_are_refused(self, x, y):
        with pytest.raises(DomainError):
            PlanePoint(x, y)
        no_coordinates = PlanePoint(None, None)
        assert no_coordinates == INFINITE_POINT and no_coordinates.at_infinity

    def test_infinite_point_is_fixed_by_reflection(self):
        assert INFINITE_POINT.reflected() is INFINITE_POINT
        assert str(INFINITE_POINT) == "oo"

    def test_equality_hash_and_repr_are_the_former_dataclass_ones(self):
        pt = PlanePoint(R(-2, 3), R(1, 3))
        assert pt == PlanePoint(R(-4, 6), R(1, 3)) == vertex_point(R(-2, 3))
        assert pt != PlanePoint(R(-2, 3), R(-1, 3)) and pt != INFINITE_POINT
        assert pt != (R(-2, 3), R(1, 3))
        assert hash(pt) == hash((R(-2, 3), R(1, 3)))
        assert hash(INFINITE_POINT) == hash((None, None))
        assert len({pt, vertex_point(R(-2, 3)), INFINITE_POINT}) == 2
        assert repr(pt) == "PlanePoint(x=ExtendedRational(-2, 3), y=ExtendedRational(1, 3))"
        assert repr(INFINITE_POINT) == "PlanePoint(x=None, y=None)"

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_assignment_and_deletion_raise_and_keep_the_hash(self, name):
        pt = PlanePoint(R(5, 3), R(1, 3))
        h = hash(pt)
        with pytest.raises(AttributeError):
            setattr(pt, name, R(1))
        with pytest.raises(AttributeError):
            delattr(pt, name)
        with pytest.raises(AttributeError):
            pt.other = 1
        assert (pt.x, pt.y) == (R(5, 3), R(1, 3)) and hash(pt) == h


class TestArithmeticAndOrder:
    def test_parse_roundtrip(self):
        for text in ["-4/7", "1/0", "5", "0", "22/7"]:
            assert str(R.parse(text)) == text

    def test_parse_rejects_garbage(self):
        for bad in ["", "x", "1/2/3", "1.5", "/3"]:
            with pytest.raises(ParseError):
                R.parse(bad)

    def test_order_rejects_infinity(self):
        with pytest.raises(DomainError):
            INFINITY < R(1)

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_every_order_rejects_infinity_and_floats(self, op):
        with pytest.raises(DomainError):
            op(INFINITY, R(1))
        with pytest.raises(DomainError):
            op(2, INFINITY)
        with pytest.raises(TypeError):
            op(R(1, 2), 0.5)

    @given(
        st.fractions(min_value=-100, max_value=100),
        st.fractions(min_value=-100, max_value=100),
    )
    def test_equality_and_order_match_stdlib_fractions(self, x, y):
        a = R(x.numerator, x.denominator)
        b = R(y.numerator, y.denominator)
        assert (a == b) == (x == y)
        assert (a < b) == (x < y)
        assert (a <= b, a > b, a >= b) == (x <= y, x > y, x >= y)
        k = math.floor(y)
        assert (a < k, a <= k, a > k, a >= k) == (x < k, x <= k, x > k, x >= k)
        assert (k < a, k <= a, k > a, k >= a) == (k < x, k <= x, k > x, k >= x)

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**6))
    def test_values_equal_to_an_int_hash_like_it(self, p, q):
        x = R(p, q)
        if x.is_integer:
            assert x == x.num and hash(x) == hash(x.num)
            assert len({x, x.num}) == 1
            assert {x.num: "int"}[x] == "int"
        assert hash(x) == hash(R(p * 3, q * 3))

    # Cases the Hypothesis test above does not draw: bools, floats, 1/0 and
    # an unreduced integer against an int.
    @pytest.mark.parametrize("compare, expected", [
        (lambda: R(1) == True, True),  # noqa: E712
        (lambda: R(1, 2) == 0.5, False),
        (lambda: INFINITY == 1, False),
        (lambda: INFINITY == INFINITY, True),
        (lambda: R(4, 2) != 2, False),
        (lambda: True < R(3, 2), True),
    ], ids=["value-eq-bool", "value-eq-float", "infinity-eq-int", "infinity-eq-infinity",
            "unreduced-ne-int", "bool-lt-value"])
    def test_comparisons_against_other_types(self, compare, expected):
        assert compare() is expected

    def test_integer_and_int_share_set_and_dict_slots(self):
        assert {R(2), 2} == {2}
        assert R(-1) in {-1} and R(0) in {0}
        assert {R(4, 2): 1}[2] == 1


class TestImmutable:
    @pytest.mark.parametrize("name", ["num", "den"])
    def test_assignment_and_deletion_raise_and_keep_the_hash(self, name):
        values = [R(5, 3), R(7), INFINITY]
        hashes = [hash(v) for v in values]
        members = set(values)
        for v in values:
            with pytest.raises(AttributeError):
                setattr(v, name, 11)
            with pytest.raises(AttributeError):
                delattr(v, name)
            with pytest.raises(AttributeError):
                v.other = 1
        assert [(v.num, v.den) for v in values] == [(5, 3), (7, 1), (1, 0)]
        assert [hash(v) for v in values] == hashes
        assert all(v in members for v in values) and R(10, 6) in members

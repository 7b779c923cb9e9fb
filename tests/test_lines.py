import random
from fractions import Fraction

import pytest

from sternbrocot import (
    ContinuedFraction,
    DomainError,
    ExtendedRational,
    INFINITY,
    IntMat2,
    InvariantViolation,
    PlanePoint,
    Side,
    continuant_product,
    evaluate,
    is_farey_pair,
    line_family,
    link_family,
    vertex_point,
)
from oracles import frac_of, matrix_eval_pair, nu_frac

R = ExtendedRational
CF = ContinuedFraction


def fam_0_3_m_4():
    return line_family(CF((0, 3, 1, 4)), 2)


def random_standard_family(rng, max_n=6, max_term=9, a0_span=9):
    n = rng.randint(1, max_n)
    terms = [rng.randint(-a0_span, a0_span)]
    terms += [rng.randint(1, max_term) for _ in range(n - 1)]
    terms.append(rng.randint(2, max_term))
    slot = rng.randint(1, n)
    return line_family(CF(tuple(terms)), slot)


class TestFamilyConstruction:
    def test_0_3_slot_4_pieces(self):
        fam = fam_0_3_m_4()
        terms, i = fam.base.terms, fam.slot
        assert continuant_product(terms[1:i]) == IntMat2(0, 1, 1, 3)  # (r t; s u)
        assert continuant_product(terms[i + 1:]).column(1) == (1, 4)  # (v, w)
        # The family reads u and w back from what it stores.
        assert fam.anchor_x.den == 3 and fam.den_coeffs[0] // 3 == 4
        assert fam.num_coeffs == (4, 1)    # P(m) = 4m + 1
        assert fam.den_coeffs == (12, 7)   # Q(m) = 12m + 7
        assert fam.value(1) == R(5, 19)
        assert fam.value(1) == evaluate(CF((0, 3, 1, 4)))

    def test_two_term_family_is_a0_plus_1_over_m(self):
        fam = line_family(CF((4, 5)), 1)
        assert fam.num_coeffs == (0, 1)
        assert fam.den_coeffs == (1, 0)
        for m in range(-6, 7):
            if m == 0:
                assert fam.value(0) == INFINITY
            else:
                assert fam.value(m) == R(4 * m + 1, m)

    def test_three_term_family_with_unit_second_term(self):
        # [a0;1,m] = a0 + m/(m+1); infinite exactly at m = -1
        fam = line_family(CF((2, 1, 3)), 2)
        assert fam.anchor_x == R(3)
        for m in range(-5, 6):
            if m == -1:
                assert fam.value(m) == INFINITY
            else:
                assert frac_of(fam.value(m)) == 2 + Fraction(m, m + 1)

    def test_0_2_1_m_2_family(self):
        fam = line_family(CF((0, 2, 1, 1, 2)), 3)
        assert fam.num_coeffs == (2, 3)   # P(m) = 2m + 3
        assert fam.den_coeffs == (6, 7)   # Q(m) = 6m + 7
        assert fam.value(-1) == R(1, 1)
        assert fam.side(-1) is Side.PLUS

    def test_0_2_m_2_hits_infinity_at_minus_one(self):
        fam = line_family(CF((0, 2, 1, 2)), 2)
        assert fam.value(-1) == INFINITY
        assert fam.side(-1) is Side.INFINITE

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            line_family(CF((0, 3, 1)), 1)   # not standard
        with pytest.raises(DomainError):
            line_family(CF((5,)), 1)        # no slot
        with pytest.raises(DomainError):
            line_family(CF((0, 3, 2)), 3)   # slot out of range

    def test_anchor_is_the_prefix_value(self):
        rng = random.Random(43)
        for _ in range(80):
            fam = random_standard_family(rng)
            assert fam.anchor_x == evaluate(fam.base.terms[:fam.slot])

    def test_sequence_for_evaluates_to_the_value(self):
        rng = random.Random(44)
        for _ in range(40):
            fam = random_standard_family(rng)
            for m in range(-5, 6):
                seq = fam.sequence_for(m)
                assert seq.terms[fam.slot] == m
                assert evaluate(seq) == fam.value(m), (fam.base, fam.slot, m)


class TestLinePair:
    def test_slopes_and_anchor_for_0_3_m_4(self):
        fam = fam_0_3_m_4()
        plus, minus = fam.line_pair()
        assert fam.anchor_x == R(1, 3)
        assert plus.anchor == PlanePoint(R(1, 3), R(0))
        assert plus.slope == R(-3, 4)
        assert minus.slope == R(3, 4)
        assert minus.anchor == plus.anchor

    def test_two_term_family_has_unit_slope_through_lattice_point(self):
        fam = line_family(CF((4, 3)), 1)
        plus, _ = fam.line_pair()
        assert fam.anchor_x == R(4)
        assert plus.slope == R(1)
        assert plus.contains(PlanePoint(R(5), R(1)))

    def test_reflection_negates_slope_only(self):
        rng = random.Random(7)
        for _ in range(50):
            fam = random_standard_family(rng)
            plus, minus = fam.line_pair()
            assert (minus.slope.num, minus.slope.den) == (-plus.slope.num, plus.slope.den)
            assert minus.anchor == plus.anchor


class TestExtendedLineValidation:
    def test_rejects_horizontal_and_off_axis_anchors(self):
        from sternbrocot import ExtendedLine

        with pytest.raises(DomainError):
            ExtendedLine(PlanePoint(R(0), R(0)), PlanePoint(R(1), R(0)))
        with pytest.raises(DomainError):
            ExtendedLine(PlanePoint(R(0), R(1)), PlanePoint(R(1), R(2)))
        with pytest.raises(DomainError):
            ExtendedLine(PlanePoint(R(0), R(0)), vertex_point(INFINITY))


class TestMembership:
    def test_defining_point(self):
        fam = fam_0_3_m_4()
        plus, _ = fam.line_pair()
        assert plus.contains(vertex_point(R(5, 19)))

    def test_first_eleven_members_on_plus(self):
        fam = fam_0_3_m_4()
        plus, _ = fam.line_pair()
        for m in range(0, 11):
            assert plus.contains(fam.vertex(m))

    def test_off_line_point_rejected(self):
        fam = fam_0_3_m_4()
        plus, _ = fam.line_pair()
        assert not plus.contains(vertex_point(R(1, 2)))

    def test_infinite_point_on_every_line(self):
        fam = fam_0_3_m_4()
        plus, minus = fam.line_pair()
        assert plus.contains(vertex_point(INFINITY))
        assert minus.contains(vertex_point(INFINITY))


class TestClassify:
    def test_m_equals_one_is_always_plus(self):
        rng = random.Random(11)
        for _ in range(60):
            fam = random_standard_family(rng)
            assert fam.side(1) is Side.PLUS

    def test_remark_families_at_minus_one(self):
        assert line_family(CF((0, 2, 1, 1, 2)), 3).side(-1) is Side.PLUS
        assert line_family(CF((0, 2, 1, 2)), 2).side(-1) is Side.INFINITE
        # the usual outcome is MINUS
        assert line_family(CF((0, 3, 1, 4)), 2).side(-1) is Side.MINUS


class TestDenominatorRoot:
    def test_examples(self):
        assert fam_0_3_m_4().denominator_root() == R(-7, 12)
        assert line_family(CF((0, 2, 1, 1, 2)), 3).denominator_root() == R(-7, 6)
        assert line_family(CF((7, 4)), 1).denominator_root() == R(0)

    def test_bounds_over_random_families(self):
        rng = random.Random(13)
        minus_two, minus_one, zero = R(-2), R(-1), R(0)
        for _ in range(200):
            fam = random_standard_family(rng)
            root = fam.denominator_root()
            if fam.degree == 1:
                assert root == zero
            else:
                assert minus_two < root < zero
                if fam.slot == 1:
                    assert minus_one < root


class TestDistanceProfile:
    def test_strictly_decreasing_for_0_3_m_4(self):
        fam = fam_0_3_m_4()
        pos, neg = fam.squared_distance_profile(8)
        assert all(d is not None for d in pos)
        for a, b in zip(pos, pos[1:]):
            assert b < a
        # negative side decreases from m = -2 downward
        tail = neg[1:]
        for a, b in zip(tail, tail[1:]):
            assert b < a

    def test_infinite_entries_marked(self):
        fam = line_family(CF((0, 2, 1, 2)), 2)  # infinite at m = -1
        _, neg = fam.squared_distance_profile(4)
        assert neg[0] is None and all(d is not None for d in neg[1:])
        fam2 = line_family(CF((3, 5)), 1)       # infinite at m = 0
        pos, _ = fam2.squared_distance_profile(4)
        assert pos[0] is None and all(d is not None for d in pos[1:])

    def test_squared_distance_is_constant_over_q_squared(self):
        rng = random.Random(17)
        for _ in range(100):
            fam = random_standard_family(rng)
            products = set()
            for m in range(-6, 7):
                val = fam.value(m)
                if val.is_infinite:
                    continue
                dx = frac_of(val) - frac_of(fam.anchor_x)
                d2 = dx * dx + Fraction(1, val.den) ** 2
                q = fam.denominator_at(m)
                products.add(d2 * q * q)
            assert len(products) == 1

    def test_rejects_short_profiles(self):
        with pytest.raises(DomainError):
            fam_0_3_m_4().squared_distance_profile(1)

    def test_entries_match_the_oracle_distance(self):
        # Each entry is (x - gamma)^2 + y^2 for the vertex (x, y) of the
        # substituted sequence, computed in Fraction; None exactly at 1/0.
        rng = random.Random(41)
        seen_negative_a0 = seen_slot_one = False
        for _ in range(200):
            fam = random_standard_family(rng)
            seen_negative_a0 |= fam.base.terms[0] < 0
            seen_slot_one |= fam.slot == 1
            gamma = Fraction(*matrix_eval_pair(fam.base.terms[:fam.slot]))
            pos, neg = fam.squared_distance_profile(12)
            for ms, entries in ((range(0, 13), pos), (range(-1, -13, -1), neg)):
                assert len(entries) == len(ms)
                for m, entry in zip(ms, entries):
                    terms = list(fam.base.terms)
                    terms[fam.slot] = m
                    p, q = matrix_eval_pair(terms)
                    if q == 0:
                        assert entry is None
                        continue
                    x, y = nu_frac(Fraction(p, q))
                    assert entry is not None and entry.den > 0
                    assert Fraction(entry.num, entry.den) == (x - gamma) ** 2 + y ** 2
        assert seen_negative_a0 and seen_slot_one


class TestRunTimeGuards:
    """Each InvariantViolation in lines.py fires when its integers are wrong.

    The prefix and suffix products are both replaced by one fixed matrix
    (r t; s u), whose second column is (v, w) = (t, u); correct products
    never trip these guards."""

    @pytest.fixture
    def products(self, monkeypatch):
        import sternbrocot.lines

        def plant(matrix):
            monkeypatch.setattr(sternbrocot.lines, "continuant_product", lambda terms: matrix)
        return plant

    @pytest.mark.parametrize("matrix, message", [
        (IntMat2(1, 0, -1, 1), "negative entry"),
        (IntMat2(1, 0, 0, 0), "strictly increasing"),   # D(m) = 0
    ])
    def test_the_constructor_refuses_bad_products(self, products, matrix, message):
        products(matrix)
        with pytest.raises(InvariantViolation, match=message):
            line_family(CF((0, 3, 1, 4)), 2)

    @pytest.mark.parametrize("matrix, seq, slot, message", [
        # D(m) = m + 2, m and m + 5: roots -2, 0 and -5 on degree 2.
        (IntMat2(1, 0, 2, 1), (0, 3, 4), 2, r"root -2 of D outside \(-2, 0\)"),
        (IntMat2(1, 0, 0, 1), (0, 3, 4), 2, r"root 0 of D outside \(-2, 0\)"),
        (IntMat2(1, 0, 5, 1), (0, 3, 4), 2, r"root -5 of D outside \(-2, 0\)"),
        # D(m) = m + 1: root -1 is allowed for slot 2 but not for slot 1.
        (IntMat2(1, 0, 1, 1), (0, 3, 4), 1, r"root -1 outside \(-1, 0\) with slot 1"),
        # D(m) = m + 3 on n = 1: a root below -2 breaks the decrease on m <= -2.
        (IntMat2(1, 0, 3, 1), (0, 3), 1, r"root -3 of D outside \[-2, 0\]"),
    ])
    def test_a_root_outside_its_interval_is_refused(self, products, matrix, seq, slot, message):
        products(matrix)
        with pytest.raises(InvariantViolation, match=message):
            line_family(CF(seq), slot)

    def test_a_link_family_checks_its_line_family(self, products):
        # link_family never asks for the root; the family's constructor
        # checks it all the same.
        products(IntMat2(1, 0, 2, 1))
        with pytest.raises(InvariantViolation, match=r"root -2 of D outside \(-2, 0\)"):
            link_family(CF((0, 3, 4)), 2, range(-2, 3))

    @pytest.mark.parametrize("matrix, seq, slot, root", [
        (IntMat2(1, 0, 1, 1), (0, 3, 4), 2, R(-1)),
        (IntMat2(1, 0, 2, 1), (0, 3), 1, R(-2)),   # n = 1 has no interval
    ])
    def test_the_root_checks_apply_only_where_claimed(self, products, matrix, seq, slot, root):
        products(matrix)
        assert line_family(CF(seq), slot).denominator_root() == root


class TestSharedPartner:
    def test_fig5_pairing(self):
        fam = fam_0_3_m_4()
        partner = fam.shared_line_partner()
        assert partner is not None
        assert partner.base.terms == (0, 2, 1, 1, 4)
        assert partner.slot == 3
        p_plus, p_minus = fam.line_pair()
        q_plus, q_minus = partner.line_pair()
        assert p_plus.coincides(q_minus) and p_minus.coincides(q_plus)

    def test_tail_slot_pairing(self):
        fam = line_family(CF((0, 3, 2)), 2)       # [0;3,_]
        partner = fam.shared_line_partner()
        assert partner.base.terms == (0, 2, 1, 2)  # [0;2,1,_]
        pair = fam.line_pair()
        qair = partner.line_pair()
        assert {pair[0].slope, pair[1].slope} == {qair[0].slope, qair[1].slope} == {R(3), R(-3)}
        assert pair[0].anchor == qair[0].anchor

    def test_shift_carries_over(self):
        fam = line_family(CF((5, 3, 1, 4)), 2)
        partner = fam.shared_line_partner()
        assert partner.base.terms == (5, 2, 1, 1, 4)
        assert partner.anchor_x == fam.anchor_x == R(16, 3)

    def test_partner_of_partner_returns_home(self):
        fam = fam_0_3_m_4()
        back = fam.shared_line_partner().shared_line_partner()
        assert back.base == fam.base and back.slot == fam.slot

    def test_no_partner_for_first_slot_or_unit_prefix(self):
        assert line_family(CF((0, 3, 2)), 1).shared_line_partner() is None
        assert line_family(CF((0, 1, 2)), 2).shared_line_partner() is None

    def test_prefix_ending_in_one_rewrites_up(self):
        fam = line_family(CF((0, 1, 3, 1, 4)), 3)  # prefix (1, 3)
        partner = fam.shared_line_partner()
        assert partner.base.terms == (0, 1, 2, 1, 1, 4)
        p = fam.line_pair()
        q = partner.line_pair()
        assert p[0].coincides(q[1]) and p[1].coincides(q[0])

    def test_partner_shares_lines_over_random_families(self):
        rng = random.Random(19)
        found = 0
        while found < 60:
            fam = random_standard_family(rng)
            partner = fam.shared_line_partner()
            if partner is None:
                continue
            found += 1
            p_plus, p_minus = fam.line_pair()
            q_plus, q_minus = partner.line_pair()
            assert p_plus.coincides(q_minus) and p_minus.coincides(q_plus)


class TestAgainstDirectSubstitution:
    def test_value_matches_full_matrix_product(self):
        rng = random.Random(23)
        for _ in range(120):
            fam = random_standard_family(rng)
            for m in range(-20, 21):
                terms = list(fam.base.terms)
                terms[fam.slot] = m
                assert (fam.value(m).num, fam.value(m).den) == matrix_eval_pair(terms)

    def test_claim_one_determinant_constant_in_m(self):
        rng = random.Random(29)
        for _ in range(100):
            fam = random_standard_family(rng)
            terms, i = fam.base.terms, fam.slot
            # (t, u) and (v, w): the second columns of the a0-free prefix
            # and suffix products.
            t, u = matrix_eval_pair((0, *terms[1:i]))
            w = matrix_eval_pair((0, *terms[i + 1:]))[1]
            assert fam.anchor_x.den == u and fam.den_coeffs[0] == u * w
            dets = {
                fam.numerator_at(m) * u - t * fam.denominator_at(m)
                for m in range(-20, 21)
            }
            assert len(dets) == 1
            assert dets.pop() == (-1) ** (fam.slot + 1) * w

    def test_numerator_denominator_coprime_or_degenerate(self):
        import math

        rng = random.Random(31)
        for _ in range(100):
            fam = random_standard_family(rng)
            for m in range(-12, 13):
                p, q = fam.numerator_at(m), fam.denominator_at(m)
                val = fam.value(m)
                if val == R(0) or val.is_infinite:
                    continue
                assert math.gcd(abs(p), abs(q)) == 1

    def test_last_slot_members_make_farey_pairs_with_the_anchor(self):
        rng = random.Random(37)
        for _ in range(80):
            fam = random_standard_family(rng)
            if fam.slot != fam.degree:
                continue
            for m in range(1, 10):
                assert is_farey_pair(fam.anchor_x, fam.value(m))

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sternbrocot import (
    ContinuedFraction,
    DomainError,
    ExtendedRational,
    INFINITY,
    IntMat2,
    RangeBracket,
    classify_range,
    continuant_product,
    convergents,
    evaluate,
    line_family,
    mobius_apply,
    standard_expansion,
)
from oracles import recursive_pair

R = ExtendedRational
CF = ContinuedFraction

nonzero_terms = st.lists(
    st.integers(-9, 9).filter(lambda t: t != 0), min_size=1, max_size=8
)
int_terms = st.lists(st.integers(-9, 9), min_size=0, max_size=8)
positive_terms = st.lists(st.integers(1, 9), min_size=1, max_size=8)


class TestEvaluate:
    def test_fig2_captions(self):
        assert evaluate(CF((-1, 2, 3))) == R(-4, 7)
        assert evaluate(CF((0, 3, 2))) == R(2, 7)

    def test_tail_formula_instance(self):
        # [0;3,m] = m/(1+3m) at m = 2
        assert evaluate(CF((0, 3, 2))) == R(2, 7)
        assert evaluate(CF((0, 3, 5))) == R(5, 16)

    def test_intermediate_infinity_is_a_value(self):
        assert evaluate(CF((0, 2, -1, 2))) == INFINITY

    def test_single_term(self):
        assert evaluate(CF((5,))) == R(5)

    @settings(max_examples=300, deadline=None)
    @given(nonzero_terms)
    def test_matches_recursive_oracle(self, body):
        terms = tuple(body)
        got = evaluate(terms)
        assert (got.num, got.den) == recursive_pair(terms)

    def test_exhaustive_small_sequences_match_recursive_oracle(self):
        # all sequences of length <= 6 with terms in [-3, 3] \ {0}
        alphabet = [-3, -2, -1, 1, 2, 3]
        for n in range(1, 7):
            for terms in itertools.product(alphabet, repeat=n):
                got = evaluate(terms)
                assert (got.num, got.den) == recursive_pair(terms), terms


class TestInputChecks:
    def test_empty_and_non_integer_terms_are_refused(self):
        with pytest.raises(DomainError):
            CF(())
        with pytest.raises(DomainError):
            CF((1, 2.5))
        with pytest.raises(DomainError):
            evaluate(())

    @pytest.mark.parametrize("terms", [(), (1, 2.5), (1.0,), (0, 3, "2"), (0, None)])
    def test_bare_term_lists_get_the_same_checks(self, terms):
        # evaluate and convergents build their values without a gcd, so a
        # bare list is checked like ContinuedFraction's terms.
        with pytest.raises(DomainError):
            CF(terms)
        with pytest.raises(DomainError):
            evaluate(terms)
        with pytest.raises(DomainError):
            convergents(terms)

    def test_a_term_list_is_copied_to_a_tuple(self):
        body = [0, 3, 2]
        c = CF(body)
        assert c.terms == (0, 3, 2) and type(c.terms) is tuple
        assert c == CF((0, 3, 2)) and hash(c) == hash(CF((0, 3, 2)))
        assert hash(line_family(c, 1)) == hash(line_family(CF((0, 3, 2)), 1))
        body.append(5)
        assert evaluate(c) == R(2, 7)
        with pytest.raises(AttributeError):
            c.terms.append(5)

    def test_bool_terms_are_stored_as_plain_ints(self):
        c = CF((True, 2))
        assert str(c) == "[1;2]" and all(type(t) is int for t in c.terms)
        assert c == CF((1, 2))


class TestStandardExpansion:
    def test_fig2_captions(self):
        assert standard_expansion(R(2, 7)) == CF((0, 3, 2))
        assert standard_expansion(R(-4, 7)) == CF((-1, 2, 3))

    def test_last_term_at_least_two(self):
        assert standard_expansion(R(1, 2)) == CF((0, 2))

    def test_integers_expand_to_single_term(self):
        assert standard_expansion(R(5)) == CF((5,))
        assert standard_expansion(R(0)) == CF((0,))
        assert CF((5,)).is_standard

    def test_rejects_infinity(self):
        with pytest.raises(DomainError):
            standard_expansion(INFINITY)

    @given(st.fractions(min_value=-500, max_value=500))
    def test_roundtrip_value(self, x):
        v = R(x.numerator, x.denominator)
        seq = standard_expansion(v)
        assert seq.is_standard
        assert evaluate(seq) == v

    @given(st.integers(-9, 9), st.lists(st.integers(1, 9), max_size=5), st.integers(2, 9))
    def test_roundtrip_sequence(self, a0, body, last):
        seq = CF((a0, *body, last))
        assert seq.is_standard
        assert standard_expansion(evaluate(seq)) == seq


class TestConvergents:
    def test_examples(self):
        assert convergents(CF((-1, 2, 3))) == (R(-1), R(-1, 2), R(-4, 7))
        assert convergents(CF((0, 3, 2))) == (R(0), R(1, 3), R(2, 7))
        assert convergents(CF((7,))) == (R(7),)

    @settings(max_examples=200, deadline=None)
    @given(nonzero_terms)
    def test_each_entry_is_a_prefix_evaluation(self, terms):
        cs = convergents(terms)
        for j, c in enumerate(cs):
            assert (c.num, c.den) == recursive_pair(terms[: j + 1])


class TestContinuantProducts:
    def test_empty_product_is_identity(self):
        assert continuant_product(()) == IntMat2.identity()

    def test_hand_multiplied_example(self):
        m = continuant_product((2, 1))
        assert (m.a, m.b, m.c, m.d) == (1, 1, 2, 3)

    def test_single_step(self):
        m = continuant_product((3,))
        assert (m.a, m.b, m.c, m.d) == (0, 1, 1, 3)

    @given(int_terms)
    def test_determinant_alternates(self, terms):
        assert continuant_product(terms).det() == (-1) ** len(terms)

    @given(int_terms)
    def test_column_transfer(self, terms):
        prev = IntMat2.identity()
        for t in terms:
            cur = prev @ IntMat2.continuant(t)
            assert cur.column(0) == prev.column(1)
            prev = cur

    def test_rows_and_columns_read_the_entries_in_place(self):
        m = IntMat2(1, 2, 3, 4)
        assert (m.row(0), m.row(1)) == ((1, 2), (3, 4))
        assert (m.column(0), m.column(1)) == ((1, 3), (2, 4))

    @given(int_terms)
    def test_rows_and_columns_coprime_or_zero_with_unit(self, terms):
        import math

        m = continuant_product(terms)
        for pair in (m.row(0), m.row(1), m.column(0), m.column(1)):
            if 0 in pair:
                other = pair[0] or pair[1]
                assert abs(other) == 1
            else:
                assert math.gcd(abs(pair[0]), abs(pair[1])) == 1

    @given(positive_terms)
    def test_positive_terms_second_column_dominates_previous_row_sums(self, terms):
        prev = IntMat2.identity()
        for t in terms:
            cur = prev @ IntMat2.continuant(t)
            assert cur.b >= prev.a + prev.b
            assert cur.d >= prev.c + prev.d
            prev = cur

    @given(st.lists(st.integers(1, 9), min_size=2, max_size=8))
    def test_positive_terms_entries_positive_from_length_two(self, terms):
        m = continuant_product(terms)
        assert min(m.a, m.b, m.c, m.d) >= 1


class TestIntMat2IsAValue:
    """A matrix cannot change after construction, so a set holding it keeps
    its hash; nor can the values a LineFamily derives from such products."""

    @pytest.mark.parametrize("name", ["a", "b", "c", "d"])
    def test_assignment_raises_and_set_membership_survives(self, name):
        m = IntMat2(1, 0, 0, 1)
        members = {m}
        with pytest.raises(AttributeError):
            setattr(m, name, 5)
        assert m == IntMat2.identity() and m in members

    def test_line_family_hash_is_stable(self):
        fam = line_family(CF((0, 3, 1, 4)), 2)
        h, profile = hash(fam), fam.squared_distance_profile(3)
        # The profile reads u from anchor_x.den and w from den_coeffs: both
        # exist, and both refuse the write.
        assert fam.anchor_x.den == 3 and fam.den_coeffs == (12, 7)
        with pytest.raises(AttributeError, match="immutable"):
            fam.anchor_x.den = 99
        with pytest.raises(AttributeError, match="immutable"):
            fam.den_coeffs = (99, 7)
        assert fam.anchor_x.den == 3 and fam.den_coeffs == (12, 7)
        assert hash(fam) == h and fam == line_family(CF((0, 3, 1, 4)), 2)
        assert fam.squared_distance_profile(3) == profile


class TestMobius:
    def test_step_matrix_prepends_a_term(self):
        # theta(X_3 (1, 2)^T) = [0; 3, 1/2] = 2/7
        assert mobius_apply(IntMat2.continuant(3), R(1, 2)) == R(2, 7)

    def test_identity_fixes_everything(self):
        for x in (R(0), R(-4, 7), INFINITY):
            assert mobius_apply(IntMat2.identity(), x) == x

    def test_unit_shear_reflection(self):
        # (-1 1; 0 1) carries [0;1,1,4] = 5/9 to [0;2,4] = 4/9
        m = IntMat2(-1, 1, 0, 1)
        assert mobius_apply(m, R(5, 9)) == R(4, 9)

    def test_action_at_zero_and_infinity(self):
        m = IntMat2(2, 3, 5, 7)
        assert mobius_apply(m, INFINITY) == R(2, 5)
        assert mobius_apply(m, R(0)) == R(3, 7)

    def test_rejects_singular(self):
        with pytest.raises(DomainError):
            mobius_apply(IntMat2(1, 2, 2, 4), R(1))

    def test_intertwines_with_integer_columns(self):
        rng = random.Random(1105)
        for _ in range(1000):
            m = continuant_product([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
            p, q = rng.randint(-40, 40), rng.randint(-40, 40)
            if (p, q) == (0, 0):
                p = 1
            left = mobius_apply(m, R(p, q))
            right = R(*m.apply(p, q))
            assert left == right


class TestUnitShearReduction:
    def test_matrix_identity(self):
        shear = IntMat2(-1, 1, 0, 1)
        for a in range(-9, 10):
            assert shear @ IntMat2.continuant(a) == (
                IntMat2.continuant(1) @ IntMat2.continuant(a - 1)
            )

    def test_shear_folds_leading_one_into_the_next_term(self):
        # x -> 1 - x carries [0;1,b,rest] to [0;1+b,rest]
        shear = IntMat2(-1, 1, 0, 1)
        rng = random.Random(53)
        for _ in range(100):
            rest = [rng.randint(1, 9) for _ in range(rng.randint(0, 4))] + [rng.randint(2, 9)]
            b = rng.randint(1, 9)
            folded = evaluate((0, 1 + b, *rest))
            assert mobius_apply(shear, evaluate((0, 1, b, *rest))) == folded


class TestClassifyRange:
    def test_examples(self):
        low = classify_range((3, 2))
        assert low.bracket is RangeBracket.LOW and low.value == R(2, 7)
        one = classify_range((1,))
        assert one.bracket is RangeBracket.HIGH and one.attains_one and one.value == R(1)
        high = classify_range((1, 5))
        assert high.bracket is RangeBracket.HIGH and high.value == R(5, 6)

    def test_rejects_nonpositive_terms(self):
        with pytest.raises(DomainError):
            classify_range((2, 0, 1))
        with pytest.raises(DomainError):
            classify_range(())

    def test_exhaustive_bounds_against_direct_evaluation(self):
        half = R(1, 2)
        one = R(1)
        for n in range(1, 6):
            for terms in itertools.product(range(1, 7), repeat=n):
                rep = classify_range(terms)
                value = rep.value
                assert (rep.bracket is RangeBracket.LOW) == (terms[0] >= 2)
                if rep.bracket is RangeBracket.LOW:
                    assert R(0) < value <= half
                else:
                    assert half <= value <= one
                assert rep.attains_one == (value == one) == (terms == (1,))

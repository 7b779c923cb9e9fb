import random
from fractions import Fraction
from math import gcd

import pytest

from sternbrocot import (
    CanonicalForm,
    ContinuedFraction,
    DomainError,
    ExtendedRational,
    canonical_fraction,
    link_family,
    plat_diagram,
    plat_fraction,
    schubert_equivalent,
)
from sternbrocot.links import Hand, Row
from oracles import (canonical_by_euclid, frac_of, matrix_eval_pair, recursive_pair,
                     schubert_class)

R = ExtendedRational
CF = ContinuedFraction


class TestPlatDiagram:
    def test_4323_is_standard_with_alternating_rows(self):
        plat = plat_diagram((4, 3, 2, 3))
        assert plat.is_standard
        assert [r.row for r in plat.regions] == [Row.TOP, Row.BOTTOM, Row.TOP, Row.BOTTOM]
        assert [r.count for r in plat.regions] == [4, 3, 2, 3]
        assert [r.hand for r in plat.regions] == [Hand.RIGHT, Hand.LEFT, Hand.RIGHT, Hand.LEFT]

    def test_negated_terms_mirror_handedness(self):
        plat = plat_diagram((-4, -3, -2, -3))
        assert not plat.is_standard
        assert [r.hand for r in plat.regions] == [Hand.LEFT, Hand.RIGHT, Hand.LEFT, Hand.RIGHT]
        assert [r.count for r in plat.regions] == [4, 3, 2, 3]

    def test_single_crossing(self):
        plat = plat_diagram((1,))
        assert not plat.is_standard
        assert plat.regions[0].row is Row.TOP
        assert plat.regions[0].hand is Hand.RIGHT
        assert plat.regions[0].count == 1

    def test_empty_region_has_no_handedness(self):
        plat = plat_diagram((2, 0, 3))
        assert plat.regions[1].count == 0 and plat.regions[1].hand is None
        # A zero term is not positive, so the diagram is not standard.
        assert not plat.is_standard and not plat_diagram((2, 0, 2)).is_standard

    def test_terms_are_checked_as_integers(self):
        # As plat_fraction and classify_range do.
        with pytest.raises(DomainError, match="terms must be integers"):
            plat_diagram((2, 1.5))
        plat = plat_diagram((True, 2))
        assert all(type(t) is int for t in plat.terms) and plat == plat_diagram((1, 2))

    def test_text_art_is_two_rows(self):
        art = plat_diagram((4, 3, 2, 3)).text_art()
        assert art.splitlines()[0].startswith("top")
        assert "4R" in art and "3L" in art


class TestPlatFraction:
    def test_4323(self):
        assert plat_fraction((4, 3, 2, 3)) == R(24, 103)
        assert (24, 103) == recursive_pair((0, 4, 3, 2, 3))

    def test_small_examples(self):
        assert plat_fraction((3, 2)) == R(2, 7)
        assert plat_fraction((2,)) == R(1, 2)

    def test_empty_terms_are_refused(self):
        with pytest.raises(DomainError):
            plat_fraction(())
        with pytest.raises(DomainError):
            plat_diagram(())
        with pytest.raises(DomainError):
            plat_diagram(iter([]))

    def test_mirror_negates_the_fraction(self):
        rng = random.Random(41)
        for _ in range(200):
            terms = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
            a = plat_fraction(terms)
            b = plat_fraction([-t for t in terms])
            if a.is_infinite:
                assert b.is_infinite
            else:
                assert frac_of(b) == -frac_of(a)


class TestSchubertEquivalence:
    def test_inverse_pair(self):
        assert schubert_equivalent(R(3, 7), R(5, 7))  # 3*5 = 15 = 1 mod 7

    def test_negated_inverse_pair(self):
        assert schubert_equivalent(R(2, 7), R(3, 7))  # 3 = -(2^{-1}) mod 7

    def test_distinct_denominators_never_equivalent(self):
        assert not schubert_equivalent(R(1, 3), R(1, 5))

    def test_integer_fractions_are_the_trivial_class(self):
        assert schubert_equivalent(R(0), R(3))
        assert not schubert_equivalent(R(0), R(1, 2))

    def test_rejects_infinity(self):
        with pytest.raises(DomainError):
            schubert_equivalent(R(1, 0), R(1, 2))

    def test_is_an_equivalence_relation_up_to_q_50(self):
        # schubert_equivalent(a, b) must coincide with "same 4-element class",
        # which is reflexive/symmetric/transitive by construction.
        for q in range(2, 51):
            ps = [p for p in range(1, q) if gcd(p, q) == 1]
            classes = {p: schubert_class(p, q) for p in ps}
            for p1 in ps:
                for p2 in ps:
                    assert schubert_equivalent(R(p1, q), R(p2, q)) == (
                        classes[p1] == classes[p2]
                    )


class TestCanonicalFraction:
    def test_5_7_collapses_to_2_7(self):
        canon = canonical_fraction(R(5, 7))
        assert canon.fraction == R(2, 7)
        assert canon.sequence == CF((0, 3, 2))

    def test_24_103_is_already_minimal(self):
        canon = canonical_fraction(R(24, 103))
        assert canon.fraction == R(24, 103)
        assert canon.sequence == CF((0, 4, 3, 2, 3))

    def test_one_half(self):
        canon = canonical_fraction(R(1, 2))
        assert canon.fraction == R(1, 2) and canon.sequence == CF((0, 2))

    def test_trivial_fraction(self):
        canon = canonical_fraction(R(0))
        assert canon.fraction == R(0) and canon.sequence == CF((0,))

    def test_rejects_infinity_and_nonzero_integers(self):
        with pytest.raises(DomainError):
            canonical_fraction(R(1, 0))
        with pytest.raises(DomainError):
            canonical_fraction(R(3))

    def test_mirror_input_collapses_to_the_same_class(self):
        assert canonical_fraction(R(-24, 103)).fraction == R(24, 103)

    def test_canonical_form_is_a_named_pair(self):
        form = CanonicalForm(R(2, 7), CF((0, 3, 2)))
        assert (form.fraction, form.sequence) == (R(2, 7), CF((0, 3, 2)))
        assert form == canonical_fraction(R(5, 7)) == (R(2, 7), CF((0, 3, 2)))
        fraction, sequence = canonical_fraction(R(5, 7))
        assert fraction == R(2, 7) and sequence == CF((0, 3, 2))

    def test_idempotent_invariant_and_low_first_term_up_to_q_50(self):
        half = Fraction(1, 2)
        for q in range(2, 51):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                canon = canonical_fraction(R(p, q))
                # canonical is equivalent to the input and a fixed point
                assert schubert_equivalent(R(p, q), canon.fraction)
                again = canonical_fraction(canon.fraction)
                assert again.fraction == canon.fraction
                # all class members give the identical representative
                for p2 in schubert_class(p, q):
                    assert canonical_fraction(R(p2, q)).fraction == canon.fraction
                assert Fraction(canon.fraction.num, canon.fraction.den) <= half
                assert canon.sequence.terms[1] >= 2


def assert_canonical_matches_oracle(p, q):
    """canonical_fraction(p/q) is the class minimum over q, and its sequence
    is a standard plat expansion (a1 >= 2) that evaluates to it."""
    canon = canonical_fraction(R(p, q))
    c = min(schubert_class(p, q))
    assert (canon.fraction.num, canon.fraction.den) == (c, q)
    terms = canon.sequence.terms
    assert terms[0] == 0 and terms[1] >= 2
    assert matrix_eval_pair(terms) == (c, q)


class TestCanonicalFractionOracle:
    def test_random_fractions_up_to_2_200(self):
        rng = random.Random(8)
        for _ in range(400):
            q = rng.randint(2, 2 ** rng.randint(2, 200))
            p = rng.randint(-3 * q, 3 * q)
            while gcd(p, q) != 1:
                p += 1
            assert_canonical_matches_oracle(p, q)

    def test_q_2_and_plus_minus_one(self):
        assert_canonical_matches_oracle(1, 2)
        assert_canonical_matches_oracle(-1, 2)
        rng = random.Random(9)
        for q in [3, 4, 5, 97] + [rng.randint(3, 2 ** 200) for _ in range(20)]:
            for p in (1, -1, q - 1, q + 1, 1 - q, 5 * q + 1, -5 * q - 1):
                assert_canonical_matches_oracle(p, q)

    def test_palindromic_expansions_tie(self):
        # [0; b1..bk] with a palindromic body has p^2 = +-1 (mod q): the
        # class member p^{-1} coincides with +-p, so the class has two
        # members in (0, 1/2] at most one of which can be smaller.
        rng = random.Random(10)
        for _ in range(200):
            half = [rng.randint(2, 40)] + [rng.randint(1, 40) for _ in range(rng.randint(0, 30))]
            body = half + half[::-1] if rng.random() < 0.5 else half + half[-2::-1]
            p, q = matrix_eval_pair((0, *body))
            assert (p * p) % q in (1, q - 1)
            assert canonical_fraction(R(p, q)).sequence.terms == (0, *body)
            for sign in (1, -1):
                assert_canonical_matches_oracle(sign * p, q)
                assert_canonical_matches_oracle(sign * (q - p), q)


class TestCanonicalFractionFromExpansion:
    def test_matches_one_euclidean_pass_up_to_q_10_to_the_30(self):
        # K is read off the standard expansion; one Euclidean pass that
        # keeps the convergent denominators gives the same form.
        rng = random.Random(34)
        for _ in range(100_000):
            q = rng.randint(2, 10 ** rng.randint(1, 30))
            p = rng.randint(-3 * q, 3 * q)
            while gcd(p, q) != 1:
                p += 1
            canon = canonical_fraction(R(p, q))
            low, terms = canonical_by_euclid(p, q)
            assert (canon.fraction.num, canon.fraction.den, canon.sequence.terms) == (
                low, q, terms), (p, q)


class TestLinkFamily:
    def test_0_3_m_4_at_one(self):
        entries = link_family(CF((0, 3, 1, 4)), 2, [1])
        (entry,) = entries
        assert entry.value == R(5, 19)
        assert entry.canonical.fraction == R(4, 19)  # 5^{-1} = 4 mod 19
        assert not entry.degenerate

    def test_degenerate_members_flagged(self):
        entries = link_family(CF((0, 2, 1, 2)), 2, [-1, 0, 1])
        by_m = {e.m: e for e in entries}
        assert by_m[-1].degenerate and by_m[-1].value == R(1, 0)
        assert not by_m[0].degenerate and by_m[0].value == R(1, 4)
        assert not by_m[1].degenerate

    def test_integer_members_flagged(self):
        entries = link_family(CF((0, 2, 1, 1, 2)), 3, [-1])
        assert entries[0].degenerate and entries[0].value == R(1)

    def test_tail_family_reaches_fig4_values(self):
        entries = link_family(CF((0, 3, 2)), 2, [2])
        assert entries[0].value == R(2, 7)
        assert entries[0].canonical.fraction == R(2, 7)

    def test_values_match_plat_fractions(self):
        entries = link_family(CF((0, 4, 3, 2, 3)), 3, range(1, 6))
        for e in entries:
            assert e.value == plat_fraction((4, 3, e.m, 3))

    def test_requires_leading_zero(self):
        with pytest.raises(DomainError):
            link_family(CF((1, 3, 2)), 2, [1])


def tail_value(terms, h):
    """[c_h; c_{h+1}, ..., c_n] of the body terms (c_1, ..., c_n) as a Fraction,
    None for 1/0."""
    num, den = 1, 0
    for c in reversed(terms[h - 1:]):
        num, den = c * num + den, num
    return None if den == 0 else Fraction(num, den)


def frac_value(terms):
    """ExtendedRational of [0; *terms] by the independent recursion."""
    return R(*recursive_pair((0, *terms)))


def assert_family_classified(body, slot, ms):
    """Each link_family entry is canonical_fraction of its value, and its
    fraction is the Schubert class minimum."""
    entries = link_family(CF((0, *body)), slot, ms)
    assert [e.m for e in entries] == list(ms)
    for e in entries:
        q = e.value.den
        assert e.degenerate == (q <= 1)
        if q > 1:
            assert e.canonical == canonical_fraction(e.value), (body, slot, e.m)
            assert e.canonical.fraction == R(min(schubert_class(e.value.num, q)), q)
    return entries


class TestLinkFamilyFromTerms:
    """link_family classifies members from the family's continuants; it must
    agree with canonical_fraction member by member."""

    MS = range(-80, 81)  # straddles D's root, in (-2, 0)

    @pytest.mark.parametrize("kind", ["ones", "ones_and_twos", "large"])
    def test_seeded_families_every_slot(self, kind):
        rng = random.Random(f"link-family-{kind}")
        for n in range(1, 46):
            if kind == "ones":
                body = [1] * n
            elif kind == "ones_and_twos":
                body = [rng.randint(1, 2) for _ in range(n)]
            else:
                body = [rng.choice((1, 2, rng.randint(1, 10 ** 6))) for _ in range(n)]
            body[-1] = max(body[-1], 2)
            ms = self.MS if n % 5 == 0 else range(-20, 21)  # the wide range on every fifth n
            for slot in range(1, n + 1):
                assert_family_classified(body, slot, ms)

    def test_own_terms_are_the_expansion(self):
        # m >= 2, or m = 1 short of the last slot: the member's terms are
        # standard, so they or their reversal name the class minimum.
        body = (3, 1, 4, 1, 5)
        for slot in range(1, 6):
            for m in (1, 2, 7) if slot < 5 else (2, 7):
                (e,) = assert_family_classified(body, slot, [m])
                terms = (*body[:slot - 1], m, *body[slot:])
                got = e.canonical.sequence.terms[1:]
                if terms[0] == 1:  # q - p = [0; b2 + 1, b3, ...]
                    terms = (terms[1] + 1, *terms[2:])
                assert got in (terms, terms[::-1])

    def test_splice_backs_up_over_two_head_terms(self):
        body, slot, m = (3, 1, 1, 2, 2), 3, -1
        terms = (*body[:slot - 1], m, *body[slot:])
        assert tail_value(terms, 3) <= 1 and tail_value(terms, 2) <= 1
        assert tail_value(terms, 1) > 1
        (e,) = assert_family_classified(body, slot, [m])
        assert e.value == frac_value(terms)

    def test_splice_reaches_a_suffix_past_the_slot(self):
        # m = 0 merges its neighbours: [.., a, 0, b, ..] = [.., a + b, ..].
        body = (2, 5, 3, 4, 6, 2)
        (e,) = assert_family_classified(body, 3, [0])
        assert e.value == frac_value((2, 5 + 4, 6, 2))

    @pytest.mark.parametrize("body", [(2,), (1, 2), (4, 1, 3), (1, 1, 1, 2), (10 ** 6, 7, 2)])
    def test_head_runs_out_at_slot_1(self, body):
        # No tail exceeds 1, so Euclid starts from p mod q over q.
        for e in assert_family_classified(body, 1, range(-12, 1)):
            x = tail_value((e.m, *body[1:]), 1)
            assert x is None or x <= 1

    @pytest.mark.parametrize("body", [(2,), (3,), (1, 2), (5, 3), (2, 1, 1, 2), (1, 1, 1, 1, 2)])
    def test_last_slot_at_one(self, body):
        n = len(body)
        (e,) = assert_family_classified(body, n, [1])
        if n == 1:
            assert e.degenerate and e.value == R(1)
        else:
            assert e.value == frac_value((*body[:-2], body[-2] + 1))

    def test_a_member_costs_a_few_euclid_steps(self, monkeypatch):
        # Euclid stops at the first suffix state, so each member of a long
        # family costs a few divmods; a full pass would cost about n each.
        import sternbrocot.links as links_module

        steps = []

        def counting_divmod(a, b):
            steps.append(None)
            return divmod(a, b)

        monkeypatch.setattr(links_module, "divmod", counting_divmod, raising=False)
        rng = random.Random(11)
        body = [rng.randint(1, 50) for _ in range(40)] + [2]
        ms = range(-20, 21)
        for slot in (1, 2, 20, 41):
            steps.clear()
            link_family(CF((0, *body)), slot, ms)
            assert len(steps) < 4 * len(ms), slot
        monkeypatch.undo()
        for slot in (1, 2, 20, 41):
            assert_family_classified(body, slot, ms)

    def test_infinite_and_integer_members_are_degenerate(self):
        # [0; 2, m, 2] is 1/0 at m = -1; [0; 2, 1, m, 2] is 1 at m = -1;
        # [0; m] is 1/0 at m = 0 and an integer at m = +-1.
        for body, slot, m, value in [((2, 1, 2), 2, -1, R(1, 0)),
                                     ((2, 1, 1, 2), 3, -1, R(1)),
                                     ((2,), 1, 0, R(1, 0)),
                                     ((2,), 1, 1, R(1)),
                                     ((2,), 1, -1, R(-1))]:
            (e,) = assert_family_classified(body, slot, [m])
            assert e.degenerate and e.value == value


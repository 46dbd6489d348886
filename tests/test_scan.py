"""Slots, order valuations against a brute-force oracle, scan reports, certificates."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import isqrt, prod
from operator import indexOf

import pytest
from conftest import FIELDS
from hypothesis import given, settings
from hypothesis import strategies as st

from ordens import (
    QQ,
    DomainError,
    Element,
    FieldSpec,
    KummerQuery,
    analyze,
    density,
    empirical_density,
    enumerate_slots,
    lth_roots,
    split_fraction,
    total_degree,
)
from ordens import scan
from ordens.field import valuation
from ordens.scan import (
    MAX_BOUND,
    PrimeSlot,
    _bad_modulus,
    _field_slots,
    _scan_vk,
    _split_groups,
    _sqrt_mod,
    _v_groups,
    _vk_counts,
    sieve_primes,
)

GAUSS = FieldSpec(-1)
RT3 = FieldSpec(3)


def elem(field, x, y=0):
    return Element(field, Fraction(x), Fraction(y))


def vk_counts(a, ell, slots):
    """The kernel's (v, k) counts over a slot list, grouped as _scan_vk groups them."""
    split = [s for s in slots if s.kind == "split"]
    ss = None if a.field.is_rational else [s.sqrt_d for s in split]
    groups = _v_groups([s.p for s in split], ss, ell)
    return _vk_counts(a, ell, groups, [s.p for s in slots if s.kind == "inert"])


def slot_vk(a, slot, ell):
    (vk,) = vk_counts(a, ell, [slot])
    return vk


def order_valuation(a, slot, ell):
    return slot_vk(a, slot, ell)[1]


def nonpower_certificate(c, ell, bound=10 ** 4):
    """The first split slot with q = 1 mod l where c is not an l-th power, else None.

    F_q^x is cyclic, so the reduction is an l-th power iff k < v.
    """
    bad = _bad_modulus(c, ell)
    for slot in enumerate_slots(c.field, bound):
        if slot.kind == "split" and bad % slot.p and (slot.p - 1) % ell == 0:
            v, k = slot_vk(c, slot, ell)
            if k == v:
                return slot
    return None


def brute_vk(a, slot, ell):
    """(v, k) of a at slot by multiplying its reduction until it reaches 1."""
    p, d = slot.p, a.field.d or 0
    x = a.x.numerator * pow(a.x.denominator, -1, p) % p
    y = a.y.numerator * pow(a.y.denominator, -1, p) % p
    if slot.kind == "split":
        one, c = 1, (x + y * (slot.sqrt_d or 0)) % p

        def mul(s, t):
            return s * t % p
    elif p == 2:
        # F_4 = F_2[w]/(w**2 + w + 1), w = (1 + sqrt d)/2, so sqrt(d) = 2w - 1
        one, c = (1, 0), ((x - y) % 2, 0)

        def mul(s, t):
            return ((s[0] * t[0] + s[1] * t[1]) % 2,
                    (s[0] * t[1] + s[1] * t[0] + s[1] * t[1]) % 2)
    else:
        one, c = (1, 0), (x, y)

        def mul(s, t):
            return ((s[0] * t[0] + d * s[1] * t[1]) % p, (s[0] * t[1] + s[1] * t[0]) % p)
    assert c not in (0, (0, 0)), "an excluded prime reached the oracle"
    order, w = 1, c
    while w != one:
        w = mul(w, c)
        order += 1
    return valuation(slot.norm - 1, ell), valuation(order, ell)


def assert_scan_matches_oracle(a, ell, bound):
    counts, counted, excluded = _scan_vk(a, ell, bound)
    slots = [s for s in enumerate_slots(a.field, bound) if s.p not in excluded]
    assert counts == Counter(brute_vk(a, s, ell) for s in slots)
    assert counted == len(slots) == sum(counts.values())
    return excluded


@st.composite
def scan_inputs(draw):
    field = draw(st.sampled_from(FIELDS))

    def coordinate():
        return Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))

    a = Element(field, coordinate(), Fraction(0) if field.is_rational else coordinate())
    if a.is_zero:
        a = Element(field, Fraction(2, 3))
    return a, draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([30, 300, 1000, 2000]))


class TestOracle:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(scan_inputs())
    def test_counts_match_brute_force_orders(self, inputs):
        try:
            assert_scan_matches_oracle(*inputs)
        except DomainError as exc:
            assert str(exc).startswith("no prime of norm")

    @pytest.mark.parametrize("x", [2, Fraction(-7, 10), Fraction(5, 3), 12])
    def test_no_power_cell_over_q_for_three(self, x):
        a = elem(QQ, x)
        counts, _, excluded = _scan_vk(a, 3, 2000)
        p_two_mod_three = [p for p in sieve_primes(2000) if p not in excluded and p % 3 == 2]
        assert counts[0, 0] == len(p_two_mod_three)
        assert counts == Counter(brute_vk(a, s, 3) for s in enumerate_slots(QQ, 2000)
                                 if s.p not in excluded)


@st.composite
def identity_inputs(draw):
    a, ell, bound = draw(scan_inputs())
    return a, ell, bound, draw(st.sampled_from([m for m in range(2, 8) if m % ell]))


def v_group_position(field, bound, ell, p):
    """Where p sits in its v-group of the scan's split columns."""
    split = [s for s in enumerate_slots(field, bound) if s.kind == "split"]
    ss = None if field.is_rational else [s.sqrt_d for s in split]
    ps = _v_groups([s.p for s in split], ss, ell)[valuation(p - 1, ell)][0]
    return "first" if ps[0] == p else "last" if ps[-1] == p else "inside"


class TestExcludedCut:
    """The bisect cut of excluded primes out of each v-group, against the oracle.

    Where p * p > bound, p is found as the cofactor left by trial division.
    """

    @pytest.mark.parametrize("field,x,y,ell,bound,p,position", [
        (QQ, 1999, 0, 2, 2000, 1999, "last"),
        (QQ, 2 * 1999, 0, 3, 2000, 1999, "last"),
        (QQ, 3, 0, 2, 2000, 3, "first"),
        (QQ, 5, 0, 2, 2000, 5, "first"),
        (GAUSS, 10, 1, 2, 2000, 101, "inside"),   # norm 101
        (GAUSS, 2, 1, 2, 2000, 5, "first"),       # norm 5
        (GAUSS, 4, 1, 2, 2000, 17, "first"),      # norm 17
        (GAUSS, 29, 34, 2, 2000, 1997, "last"),   # norm 1997
        (FieldSpec(17), 1, 2, 3, 3000, 67, "inside"),  # norm -67
    ])
    def test_cut_prime_matches_oracle(self, field, x, y, ell, bound, p, position):
        a = elem(field, x, y)
        excluded = assert_scan_matches_oracle(a, ell, bound)
        assert p in excluded
        assert v_group_position(field, bound, ell, p) == position
        kinds = [s.kind for s in enumerate_slots(field, bound) if s.p == p]
        assert kinds == ["split"] * (1 if field.is_rational else 2)


class TestIdentities:
    """Galois and power identities of the (v, k) counts on one shared slot list."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(identity_inputs())
    def test_conjugates_and_powers(self, inputs):
        a, ell, bound, m = inputs
        compared = [a, a.conjugate(), a ** m, a ** ell]
        bad = prod(_bad_modulus(b, ell) for b in compared)
        slots = [s for s in enumerate_slots(a.field, bound) if bad % s.p]
        counts = vk_counts(a, ell, slots)
        # conjugation swaps the two slots of a split p and fixes each inert one
        assert vk_counts(a.conjugate(), ell, slots) == counts
        # l does not divide m, so x and x**m have the same l-part of the order
        assert vk_counts(a ** m, ell, slots) == counts
        lowered: Counter = Counter()
        for (v, k), c in counts.items():
            lowered[v, max(k - 1, 0)] += c
        assert vk_counts(a ** ell, ell, slots) == lowered


class TestEnumerate:
    def test_gaussian_slots_to_norm_twenty(self):
        got = list(enumerate_slots(GAUSS, 20))
        assert got == [
            PrimeSlot(3, "inert", 9, None),
            PrimeSlot(5, "split", 5, 2), PrimeSlot(5, "split", 5, 3),
            PrimeSlot(13, "split", 13, 5), PrimeSlot(13, "split", 13, 8),
            PrimeSlot(17, "split", 17, 4), PrimeSlot(17, "split", 17, 13),
        ]

    def test_rational_slots(self):
        got = [s.p for s in enumerate_slots(QQ, 10)]
        assert got == [2, 3, 5, 7]

    def test_split_residues_square_to_d(self):
        for field in (RT3, FieldSpec(-7), FieldSpec(17)):
            for slot in enumerate_slots(field, 500):
                if slot.kind == "split":
                    assert slot.sqrt_d * slot.sqrt_d % slot.p == field.d % slot.p
                else:
                    assert slot.norm == slot.p * slot.p

    def test_split_iff_kronecker_plus_one(self):
        disc = RT3.discriminant
        kinds = {}
        for slot in enumerate_slots(RT3, 10 ** 4):
            kinds[slot.p] = slot.kind
        for p in sieve_primes(200):
            if disc % p == 0:
                assert p not in kinds
            elif pow(disc % p, (p - 1) // 2, p) == 1:
                assert kinds[p] == "split"

    def test_degree_one_slots_dominate(self):
        slots = list(enumerate_slots(RT3, 10 ** 5))
        split = sum(1 for s in slots if s.kind == "split")
        total_primes = len(sieve_primes(10 ** 5))
        assert abs(split - total_primes) < total_primes // 10

    def test_bound_limit(self):
        with pytest.raises(DomainError):
            sieve_primes(MAX_BOUND + 1)
        with pytest.raises(DomainError):
            list(enumerate_slots(QQ, 10 ** 20))


def euler_brute_slots(field, bound):
    """The slots by Euler's criterion and a search for the least root of d mod p."""
    primes = [p for p in range(2, bound + 1) if all(p % q for q in range(2, isqrt(p) + 1))]
    if field.is_rational:
        return [PrimeSlot(p, "split", p, None) for p in primes]
    d, disc, out = field.d, field.discriminant, []
    for p in primes:
        if disc % p == 0:
            continue
        if p == 2:
            split = d % 8 == 1
        else:
            split = pow(d % p, (p - 1) // 2, p) == 1
        if split:
            r = indexOf(map(pow, range(p), repeat(2), repeat(p)), d % p)
            out += [PrimeSlot(p, "split", p, r), PrimeSlot(p, "split", p, p - r)]
        elif p * p <= bound:
            out.append(PrimeSlot(p, "inert", p * p, None))
    return out


# d = 1 mod 8 (2 splits), d = 5 mod 8 (2 is inert), d = 2, 3 mod 4, and |d| > 1000
ENUM_FIELDS = [QQ] + [FieldSpec(d) for d in (
    17, 33, 41, 57, -7, -15, -23, -31, 1001,
    5, 13, 21, -3, -11, -19, -1003, 2021,
    2, 3, 6, 7, -1, -2, -5, -6, 10, -4001, 1002, 4099,
)]


class TestEnumerateReference:
    @pytest.mark.parametrize("field", ENUM_FIELDS, ids=str)
    def test_matches_euler_and_root_search(self, field):
        for bound in (2, 3, 4, 9, 10, 121, 3000):
            assert list(enumerate_slots(field, bound)) == euler_brute_slots(field, bound)

    @pytest.mark.parametrize("d", [17, -1003, 7])
    def test_matches_at_three_times_ten_to_the_four(self, d):
        field = FieldSpec(d)
        assert list(enumerate_slots(field, 3 * 10 ** 4)) == euler_brute_slots(field, 3 * 10 ** 4)

    def test_sieve_matches_trial_division(self):
        assert [s.p for s in euler_brute_slots(QQ, 3 * 10 ** 4)] == list(sieve_primes(3 * 10 ** 4))


class TestHalfColumns:
    """One 4-byte entry per split prime; the slot at p - r is read through conj(a)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(scan_inputs())
    def test_conjugate_scan_matches_both_slot_oracle(self, inputs):
        a, ell, bound = inputs
        try:
            counts, counted, excluded = _scan_vk(a, ell, bound)
        except DomainError as exc:
            assert str(exc).startswith("no prime of norm")
            return
        assert _scan_vk(a.conjugate(), ell, bound) == (counts, counted, excluded)
        slots = [s for s in euler_brute_slots(a.field, bound) if s.p not in excluded]
        assert counts == Counter(brute_vk(a, s, ell) for s in slots)
        assert counted == len(slots)

    @pytest.mark.parametrize("field", [f for f in FIELDS if not f.is_rational], ids=str)
    def test_one_four_byte_entry_per_split_prime(self, field):
        ps, ss, _ = _field_slots(field, 10 ** 4)
        split = [s.p for s in enumerate_slots(field, 10 ** 4) if s.kind == "split"]
        assert list(ps) == split[::2] == split[1::2]
        assert all(r * r % p == field.d % p and r <= p - r for p, r in zip(ps, ss))
        groups = _split_groups(field, 10 ** 4, 2)
        assert sum(len(cols[0]) for cols in groups.values()) == len(ps)
        cols = [sieve_primes(10 ** 4), ps, ss, *(c for g in groups.values() for c in g)]
        assert {col.itemsize for col in cols} == {4}


def tonelli_reference(n, p):
    """Tonelli-Shanks with the non-residue z found by Euler's test from 3 up."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 3
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r, c = r * b % p, b * b % p
        t, m = t * c % p, i
    return r


def assert_tonelli_matches_reference(bound):
    for p in sieve_primes(bound):
        if p % 8 == 1:
            for d in (-1, 2, -2, 3, -7, 17):
                if pow(d % p, (p - 1) // 2, p) == 1:
                    assert _sqrt_mod(d % p, p) == tonelli_reference(d % p, p), (d, p)


class TestSqrtMod:
    def test_tonelli_matches_the_euler_search(self):
        assert_tonelli_matches_reference(2 * 10 ** 5)

    def test_fallback_past_the_table(self, monkeypatch):
        monkeypatch.setattr(scan, "_SQUARES", scan._SQUARES[:1])
        assert_tonelli_matches_reference(2 * 10 ** 4)


class TestOrderValuation:
    def test_rational_examples(self):
        slot7 = PrimeSlot(7, "split", 7, None)
        slot5 = PrimeSlot(5, "split", 5, None)
        assert order_valuation(elem(QQ, 2), slot7, 2) == 0  # order 3
        assert order_valuation(elem(QQ, 2), slot5, 2) == 2  # order 4

    def test_split_quadratic_reduction(self):
        slot = PrimeSlot(5, "split", 5, 2)
        # 1 + sqrt(-1) reduces to 3 mod 5, which has order 4
        assert order_valuation(elem(GAUSS, 1, 1), slot, 2) == 2

    def test_conjugate_slots_may_differ(self):
        a = elem(GAUSS, 1, 1)
        s1 = PrimeSlot(5, "split", 5, 2)
        s2 = PrimeSlot(5, "split", 5, 3)
        assert order_valuation(a, s1, 2) == 2
        assert order_valuation(a, s2, 2) == 1  # reduces to 4, order 2

    def test_both_slots_of_a_split_prime_in_one_call(self):
        slots = [PrimeSlot(5, "split", 5, 2), PrimeSlot(5, "split", 5, 3)]
        assert vk_counts(elem(GAUSS, 1, 1), 2, slots) == Counter({(2, 2): 1, (2, 1): 1})

    def test_full_order_stops_at_v(self):
        # 3 generates F_17^x, of order 16 = 2**4
        assert slot_vk(elem(QQ, 3), PrimeSlot(17, "split", 17, None), 2) == (4, 4)

    def test_nonunit_inside_a_slot_list_rejected(self):
        slots = [PrimeSlot(p, "split", p, None) for p in (5, 7, 11)]
        with pytest.raises(DomainError):
            vk_counts(elem(QQ, 7), 2, slots)

    def test_inert_arithmetic(self):
        # 3 is inert in Q(i); ord(i mod 3) divides 4 and is 4
        slot = PrimeSlot(3, "inert", 9, None)
        assert order_valuation(elem(GAUSS, 0, 1), slot, 2) == 2

    def test_inert_two_reduces_into_f4(self):
        # 2 is inert in Q(sqrt -3); sqrt(-3) reduces to 1 in F_4
        slot = PrimeSlot(2, "inert", 4, None)
        a = elem(FieldSpec(-3), 0, 1)
        assert slot_vk(a, slot, 2) == (0, 0)
        assert slot_vk(a, slot, 3) == (1, 0)

    def test_inert_two_nonunit_rejected(self):
        # 1 + sqrt(-3) = 2*omega lies in the prime above 2
        with pytest.raises(DomainError):
            slot_vk(elem(FieldSpec(-3), 1, 1), PrimeSlot(2, "inert", 4, None), 3)

    def test_nonunit_at_a_v_zero_slot_rejected(self):
        # 5 = 2 mod 3, so v = 0 at p = 5 for l = 3: no power is taken there,
        # and the reduction must still be checked
        slots = [PrimeSlot(p, "split", p, None) for p in (5, 7, 11)]
        with pytest.raises(DomainError, match="reduction mod 5 is not a unit"):
            vk_counts(elem(QQ, 5), 3, slots)
        with pytest.raises(DomainError, match="reduction mod 5 is not a unit"):
            # 2 + sqrt(-1) vanishes where sqrt(-1) = 3 mod 5
            vk_counts(elem(GAUSS, 2, 1), 3, [PrimeSlot(5, "split", 5, 3)])

    def test_nonunit_reduction_rejected(self):
        with pytest.raises(DomainError):
            order_valuation(elem(QQ, 7), PrimeSlot(7, "split", 7, None), 2)


class TestEmpiricalDensity:
    def test_frequencies_partition(self):
        rep = empirical_density(elem(QQ, 2), 2, 3000)
        assert sum(rep.histogram.values()) == rep.counted
        assert sum(rep.empirical.values()) == 1

    def test_exclusions_recorded(self):
        rep = empirical_density(elem(RT3, 0, 1), 2, 3000)
        assert 2 in rep.excluded and 3 in rep.excluded

    def test_close_to_exact_at_modest_bound(self):
        a = elem(QQ, 2)
        rep = empirical_density(a, 2, 10 ** 4)
        errors = [abs(q - density(a, 2, n).value) for n, q in rep.empirical.items()]
        assert max(errors) < Fraction(1, 50)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            empirical_density(elem(QQ, 0), 2, 100)


class TestSplitFraction:
    def test_classic_sextic(self):
        frac = split_fraction(elem(QQ, 2), 3, 1, 1, 10 ** 5)
        assert abs(frac - Fraction(1, 6)) < Fraction(1, 50)

    def test_nested_levels_need_n_le_m(self):
        with pytest.raises(DomainError):
            split_fraction(elem(QQ, 2), 2, 1, 2, 1000)

    def test_no_counted_slot_rejected(self):
        with pytest.raises(DomainError):
            split_fraction(elem(QQ, 2), 2, 1, 0, 2)

    @pytest.mark.parametrize("d", [-3, 5])
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
    def test_odd_ell_with_inert_two(self, d, m, n):
        # sqrt(d) is a unit at the inert prime 2 of Q(sqrt d), d = 5 mod 8
        a = elem(FieldSpec(d), 0, 1)
        dec, prof, special = analyze(a, 3)
        degree = total_degree(KummerQuery(3, m, n, dec, prof, special))
        frac = split_fraction(a, 3, m, n, 10 ** 5)
        assert abs(frac - Fraction(1, degree)) < Fraction(1, 100)


class TestNonpowerCertificate:
    @pytest.mark.parametrize("field,x,y,ell", [
        (QQ, 8, 0, 2), (QQ, 2, 0, 3), (GAUSS, 3, 0, 2), (RT3, 5, 0, 2),
    ])
    def test_witness_found_when_no_roots_exist(self, field, x, y, ell):
        c = elem(field, x, y)
        assert not lth_roots(c, ell)
        slot = nonpower_certificate(c, ell)
        assert slot is not None
        assert slot.kind == "split" and (slot.p - 1) % ell == 0

    def test_no_witness_for_actual_powers(self):
        # 16 is a square everywhere; no prime can certify otherwise
        assert nonpower_certificate(elem(QQ, 16), 2) is None

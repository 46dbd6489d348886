"""Prime enumeration, order valuations, scan reports, certificates."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ordens import (
    QQ,
    DomainError,
    Element,
    FieldSpec,
    KummerQuery,
    analyze,
    empirical_density,
    enumerate_slots,
    lth_roots,
    split_fraction,
    total_degree,
)
from ordens.scan import MAX_BOUND, PrimeSlot, _bad_modulus, _slot_vk, sieve_primes

GAUSS = FieldSpec(-1)
RT3 = FieldSpec(3)


def elem(field, x, y=0):
    return Element(field, Fraction(x), Fraction(y))


def slot_vk(a, slot, ell):
    return _slot_vk(a.x.numerator, a.x.denominator, a.y.numerator,
                    a.y.denominator, a.field.d or 0, slot, ell)


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
        rep = empirical_density(elem(QQ, 2), 2, 10 ** 4)
        assert rep.max_abs_error < Fraction(1, 50)

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

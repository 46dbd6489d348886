"""Field arithmetic: exactness, conventions, parsing."""

from __future__ import annotations

import copy
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from conftest import FIELDS
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ordens
from ordens import (
    QQ,
    CycloProfile,
    DensityValue,
    DomainError,
    Element,
    FieldMismatch,
    FieldSpec,
    KummerQuery,
    ParseError,
    ScanReport,
    ShapeReport,
    Tower,
    decompose,
    empirical_density,
    format_element,
    lth_roots,
    parse_element,
    parse_field,
)
from ordens.field import (
    MAX_COORDINATE_BITS,
    MAX_D_BITS,
    _coordinate_bits,
    _int_nth_root,
    _Unfrozen,
)

GAUSS = FieldSpec(-1)
RT2 = FieldSpec(2)
RT3 = FieldSpec(3)


def elem(field, x, y=0):
    return Element(field, Fraction(x), Fraction(y))


def random_element(rng, field):
    x = Fraction(rng.randint(-30, 30), rng.randint(1, 20))
    if field.is_rational:
        return Element(field, x)
    return Element(field, x, Fraction(rng.randint(-30, 30), rng.randint(1, 20)))


class TestFieldSpec:
    def test_rejects_non_squarefree(self):
        for bad in (0, 1, 4, 12, -4, 18):
            with pytest.raises(DomainError):
                FieldSpec(bad)

    def test_equality_is_structural(self):
        assert FieldSpec(2) == FieldSpec(2)
        assert FieldSpec(2) != FieldSpec(-2)
        assert QQ == FieldSpec(None) == FieldSpec()

    def test_discriminant(self):
        assert FieldSpec(-1).discriminant == -4
        assert FieldSpec(-3).discriminant == -3
        assert FieldSpec(2).discriminant == 8
        assert FieldSpec(17).discriminant == 17


class TestArith:
    def test_gaussian_square(self):
        one_plus_i = elem(GAUSS, 1, 1)
        assert one_plus_i * one_plus_i == elem(GAUSS, 0, 2)

    def test_division_verified_by_multiplying_back(self):
        lhs = elem(RT2, 3)
        rhs = elem(RT2, 1, 1)
        quot = lhs / rhs
        assert quot == elem(RT2, -3, 3)
        assert quot * rhs == lhs

    def test_mul_identity_random(self):
        rng = random.Random(1)
        one = elem(GAUSS, 1)
        for _ in range(50):
            a = random_element(rng, GAUSS)
            assert a * one == a

    def test_rational_division_uses_plain_quotient(self):
        assert elem(QQ, 2) / elem(QQ, 2) == elem(QQ, 1)
        assert elem(QQ, 3) / elem(QQ, Fraction(1, 2)) == elem(QQ, 6)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            elem(RT2, 1) * elem(RT3, 1)
        with pytest.raises(FieldMismatch):
            elem(RT2, 1) / elem(RT3, 1)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            elem(RT2, 1) / elem(RT2, 0)

    def test_ring_axioms_random(self):
        rng = random.Random(2)
        for field in (QQ, GAUSS, RT2, FieldSpec(-3)):
            for _ in range(20):
                a, b, c = (random_element(rng, field) for _ in range(3))
                assert (a * b) * c == a * (b * c)
                assert a * b == b * a


# A reference model: an element as its Fraction pair (x, y), with d = 0 for Q.

def ref_mul(a, b, d):
    return a[0] * b[0] + a[1] * b[1] * d, a[0] * b[1] + a[1] * b[0]


def ref_div(a, b, d):
    n = b[0] * b[0] - b[1] * b[1] * d
    x, y = ref_mul(a, (b[0], -b[1]), d)
    return x / n, y / n


def ref_pow(a, k, d):
    if k < 0:
        a, k = ref_div((Fraction(1), Fraction(0)), a, d), -k
    acc = (Fraction(1), Fraction(0))
    for _ in range(k):
        acc = ref_mul(acc, a, d)
    return acc


@st.composite
def element_pairs(draw):
    field = draw(st.sampled_from(FIELDS))

    def coordinate():
        return draw(st.fractions(-60, 60, max_denominator=40))

    def element():
        return Element(field, coordinate(), 0 if field.is_rational else coordinate())

    return element(), element()


def pair(e):
    return e.x, e.y


def is_canonical(e):
    return e.den > 0 and gcd(e.u, e.w, e.den) == 1


def _records():
    """One of each public record with the attribute names it protects; each call builds anew."""
    a = elem(RT3, 2, 1)
    dec = decompose(a, 2)
    prof = CycloProfile(2, True, False, 1, 1, 2, Tower.TRIVIAL)
    return [
        (FieldSpec(3), ("d",)),
        (elem(GAUSS, Fraction(1, 2), 3), ("field", "u", "w", "den", "x", "y")),
        (prof, ("ell", "has_zeta_ell", "has_zeta4", "degree", "stall", "zeta4_stall", "tower")),
        (dec, ("ell", "case", "depth", "base", "unit", "unit_level")),
        (KummerQuery(2, 3, 1, dec, prof, True), ("ell", "m", "n", "decomp", "profile", "special")),
        (DensityValue(Fraction(7, 24), "closed_form", "valuation-difference", (("n", 1),)),
         ("value", "method", "branch", "params")),
        (ShapeReport("pure", Fraction(1, 3), "side=direct"), ("kind", "value", "detail")),
        (empirical_density(elem(QQ, 2), 2, 100),
         ("bound", "counted", "excluded", "histogram", "empirical")),
    ]


class TestIntegerRepresentation:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(element_pairs(), st.integers(-5, 5))
    def test_arithmetic_matches_fraction_pairs(self, ab, k):
        a, b = ab
        d = a.field.d or 0
        got = {"*": a * b, "neg": -a, "conj": a.conjugate()}
        want = {"*": ref_mul(pair(a), pair(b), d), "neg": (-a.x, -a.y), "conj": (a.x, -a.y)}
        if not b.is_zero:
            got["/"], want["/"] = a / b, ref_div(pair(a), pair(b), d)
        if not a.is_zero or k >= 0:
            got["**"], want["**"] = a ** k, ref_pow(pair(a), k, d)
        for op, e in got.items():
            assert pair(e) == want[op], op
            assert is_canonical(e), op
            assert type(e.x) is Fraction and type(e.y) is Fraction

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([f for f in FIELDS if f.d is not None and f.d % 4 == 1]),
           st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 30), st.integers(0, 64))
    def test_half_integer_power_is_repeated_multiplication(self, field, u, w, half_den, k):
        # (u + w*sqrt(d))/den, u and w odd, den even, d = 1 mod 4: the pair carries 2**k until _make
        a = Element(field, Fraction(2 * u + 1, 2 * half_den), Fraction(2 * w + 1, 2 * half_den))
        assert a.den % 2 == 0 and a.u % 2 == a.w % 2 == 1
        want = Element(field, 1)
        for _ in range(k):
            want = want * a
        got = a ** k
        assert got == want and is_canonical(got)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_triple_is_canonical(self, field):
        half = Element(field, Fraction(2, 4))
        assert half == Element(field, Fraction(1, 2))
        assert hash(half) == hash(Element(field, Fraction(1, 2)))
        assert (half.u, half.w, half.den) == (1, 0, 2)
        assert (Element(field, 0).u, Element(field, 0).den) == (0, 1)
        assert Element(field, Fraction(-3, 6)).den == 2
        if not field.is_rational:
            e = Element(field, Fraction(2, 4), Fraction(-6, 8))
            assert e == Element(field, Fraction(1, 2), Fraction(-3, 4))
            assert hash(e) == hash(Element(field, Fraction(1, 2), Fraction(-3, 4)))
            assert (e.u, e.w, e.den) == (2, -3, 4)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_never_equals_ints_or_tuples(self, field):
        one, zero = Element(field, 1), Element(field, 0)
        assert one != 1 and zero != 0 and not one == 1
        assert one != (field, 1, 0, 1) and one != (1, 0, 1) and one != (1, 0)
        assert one != Element(FieldSpec(-1) if field.is_rational else QQ, 1)

    def test_immutable(self):
        """No field of a public record can be set or deleted, and no name added.

        Records built separately from equal fields are equal and hash alike;
        every record but Element hashes as the tuple of its fields.
        """
        for (rec, names), (again, _) in zip(_records(), _records()):
            # the names are the record's own: a stale one passes the setattr checks below
            assert getattr(rec, "_fields", names) == names
            assert all(hasattr(rec, n) for n in names)
            for name in (*names, "other"):
                with pytest.raises(AttributeError):
                    setattr(rec, name, 1)
                with pytest.raises(AttributeError):
                    delattr(rec, name)
            assert rec == again and rec is not again
            if type(rec) is ScanReport:  # it holds dicts
                with pytest.raises(TypeError):
                    hash(rec)
            else:
                assert hash(rec) == hash(again)
            if type(rec) not in (Element, ScanReport):
                assert hash(rec) == hash(tuple(getattr(rec, n) for n in names))

    def test_hash_is_the_same_in_every_process(self):
        # over Q, field.d is None, whose hash was an address before Python 3.12
        code = ("from ordens import QQ, lth_roots, parse_element; "
                "print(hash(parse_element('1/2', QQ)), "
                "[str(b) for b in lth_roots(parse_element('16', QQ), 2)])")
        src = str(Path(ordens.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
        outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, timeout=60, check=True).stdout for _ in range(2)}
        here = (f"{hash(parse_element('1/2', QQ))} "
                f"{[str(b) for b in lth_roots(parse_element('16', QQ), 2)]}\n")
        assert outs == {here}

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_copy_and_pickle_round_trip(self, field):
        e = Element(field, Fraction(-7, 6), 0 if field.is_rational else Fraction(5, 4))
        for back in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert back == e and hash(back) == hash(e)
            assert (back.u, back.w, back.den) == (e.u, e.w, e.den)


class TestConstruction:
    """Every way to get an Element yields a frozen Element, never its twin class."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_every_path_yields_a_frozen_element(self, field):
        a = elem(field, Fraction(-7, 6), 0 if field.is_rational else Fraction(5, 4))
        b = elem(field, 3, 0 if field.is_rational else -1)
        results = {
            "Element": a, "parse_element": parse_element(format_element(a), field),
            "*": a * b, "/": a / b, "neg": -a, "conjugate": a.conjugate(),
            "copy": copy.copy(a), "deepcopy": copy.deepcopy(a),
            "pickle": pickle.loads(pickle.dumps(a)),
            **{f"**{k}": a ** k for k in (-2, 0, 1, 2)},
        }
        for path, x in results.items():
            assert type(x) is Element, path
            assert hash(x) == hash((x.u, x.w, x.den)), path
            for name in ("field", "u", "w", "den", "other"):
                with pytest.raises(AttributeError, match=rf"^cannot assign to field '{name}'$"):
                    setattr(x, name, 1)
                with pytest.raises(AttributeError, match=rf"^cannot delete field '{name}'$"):
                    delattr(x, name)
        assert a ** 1 is a

    def test_twin_class_stays_private(self):
        assert _Unfrozen.__slots__ == Element.__slots__
        modules = (ordens, ordens.field)
        assert all(getattr(m, name) is not _Unfrozen
                   for m in modules for name in dir(m) if not name.startswith("_"))
        assert all(getattr(ordens, name) is not _Unfrozen for name in ordens.__all__)


class TestConjugateNormTrace:
    def test_conjugate(self):
        assert elem(FieldSpec(5), 2, 3).conjugate() == elem(FieldSpec(5), 2, -3)

    def test_conjugate_involution_and_homomorphism(self):
        rng = random.Random(3)
        for _ in range(25):
            a = random_element(rng, GAUSS)
            b = random_element(rng, GAUSS)
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_norm_is_multiplicative(self):
        rng = random.Random(4)
        for field in (QQ, GAUSS, RT3):
            for _ in range(25):
                a = random_element(rng, field)
                b = random_element(rng, field)
                ab = a * b
                assert ab * ab.conjugate() == a * a.conjugate() * (b * b.conjugate())

    def test_norm_equals_product_with_conjugate(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_element(rng, RT2)
            assert a * a.conjugate() == Element(RT2, a.x * a.x - 2 * a.y * a.y)


@st.composite
def power_cases(draw):
    """An element of Q, Q(i), Q(sqrt -3) or Q(sqrt 5), often over den 2, and k in -5..40."""
    field = draw(st.sampled_from([QQ, GAUSS, FieldSpec(-3), FieldSpec(5)]))
    den = draw(st.sampled_from([1, 2]) | st.integers(1, 30))
    u = draw(st.integers(-40, 40))
    w = 0 if field.is_rational else draw(st.integers(-40, 40))
    return elem(field, Fraction(u, den), Fraction(w, den)), draw(st.integers(-5, 40))


class TestPow:
    def test_examples(self):
        assert elem(GAUSS, 1, 1) ** 4 == elem(GAUSS, -4)
        assert elem(RT2, 0, 1) ** 8 == elem(RT2, 16)
        a = elem(RT3, 2, 5)
        assert a ** 1 == a
        assert a ** 0 == elem(RT3, 1)

    def test_exponent_additivity(self):
        rng = random.Random(6)
        for _ in range(20):
            a = random_element(rng, GAUSS)
            if a.is_zero:
                continue
            j, k = rng.randint(0, 6), rng.randint(0, 6)
            assert a ** (j + k) == a ** j * a ** k

    def test_negative_exponent_inverts(self):
        a = elem(GAUSS, 1, 1)
        assert a ** -1 * a == elem(GAUSS, 1)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(power_cases())
    @example((elem(FieldSpec(5), Fraction(1, 2), Fraction(1, 2)), 40))
    @example((elem(FieldSpec(-3), Fraction(-1, 2), Fraction(3, 2)), 27))
    def test_integer_pair_power_is_the_reduced_k_fold_product(self, case):
        # a ** k squares and multiplies (u, w) over den**k and reduces once; the
        # reference multiplies Elements, reducing after every step
        a, k = case
        assume(not a.is_zero or k >= 0)
        factor = a if k >= 0 else elem(a.field, 1) / a
        want = elem(a.field, 1)
        for _ in range(abs(k)):
            want = want * factor
        got = a ** k
        assert is_canonical(got)
        assert got == want
        assert a ** 1 is a


class TestRationalNthRoot:
    """Rational k-th roots, found by lth_roots over Q."""

    @staticmethod
    def roots(q, k):
        return {b.x for b in lth_roots(Element(QQ, Fraction(q)), k)}

    def test_examples(self):
        assert self.roots(8, 3) == {2}
        assert self.roots(Fraction(9, 4), 2) == {Fraction(3, 2), Fraction(-3, 2)}
        assert self.roots(2, 2) == set()

    def test_odd_root_sign(self):
        assert self.roots(-27, 3) == {-3}

    def test_negative_even_root(self):
        assert self.roots(-4, 2) == set()

    def test_huge_exact(self):
        q = Fraction(7 ** 30, 5 ** 20)
        assert self.roots(q, 10) == {Fraction(7 ** 3, 5 ** 2), Fraction(-(7 ** 3), 5 ** 2)}

    def test_integer_root_is_the_exact_floor(self):
        # r**k <= n < (r + 1)**k for small n, random sizes, and perfect powers and their neighbours
        cases = [(n, k) for n in range(300) for k in range(1, 10)]
        rng = random.Random(4595)
        for _ in range(1500):
            k = rng.choice((2, 3, 4, 5, 7, 11, 61, 127))
            x = rng.getrandbits(rng.randint(1, 4096 // k)) + 1
            cases += [(rng.getrandbits(rng.randint(1, 4200)), k)]
            cases += [(x ** k + e, k) for e in (-1, 0, 1)]
        for n, k in cases:
            r = _int_nth_root(n, k)
            assert r ** k <= n < (r + 1) ** k, (n, k)


def fraction_bits(e):
    """_coordinate_bits read from the Fraction coordinates x and y."""
    return max(max(q.numerator.bit_length(), q.denominator.bit_length()) for q in (e.x, e.y))


class TestParsing:
    def test_field_texts(self):
        assert parse_field("Q") == QQ
        assert parse_field("Q(sqrt -3)") == FieldSpec(-3)
        assert parse_field("Q(sqrt 2)") == RT2
        with pytest.raises(ParseError):
            parse_field("Q[sqrt 2]")
        with pytest.raises(DomainError):
            parse_field("Q(sqrt 12)")

    def test_discriminant_limit(self):
        assert parse_field("Q(sqrt -4294967291)") == FieldSpec(-(2 ** MAX_D_BITS - 5))
        assert parse_field("Q(sqrt 0000000000000002)") == RT2
        for text in ("Q(sqrt 4294967296)", "Q(sqrt -1000000000000000003)",
                     f"Q(sqrt {'7' * 5000})"):
            with pytest.raises(DomainError):
                parse_field(text)

    def test_field_texts_are_cached_per_text(self):
        assert parse_field("Q(sqrt 5)") is parse_field("Q(sqrt 5)")
        assert parse_field(" Q ( sqrt 5 ) ") == parse_field("Q(sqrt 5)") == FieldSpec(5)
        assert isinstance(parse_field.cache_info().maxsize, int)  # bounded

    def test_bad_field_texts_raise_on_every_call(self):
        hits = parse_field.cache_info().hits
        for _ in range(3):
            with pytest.raises(DomainError):
                parse_field("Q(sqrt 4)")
            with pytest.raises(ParseError):
                parse_field("Q(x)")
        assert parse_field.cache_info().hits == hits  # errors are never cached

    def test_element_grammar(self):
        assert parse_element("3", QQ) == elem(QQ, 3)
        assert parse_element("-1/2", QQ) == elem(QQ, Fraction(-1, 2))
        assert parse_element("1+1*sqrt(-1)", GAUSS) == elem(GAUSS, 1, 1)
        assert parse_element("1-1/2*sqrt(2)", RT2) == elem(RT2, 1, Fraction(-1, 2))
        assert parse_element("-3*sqrt(5)", FieldSpec(5)) == elem(FieldSpec(5), 0, -3)
        assert parse_element("i", GAUSS) == elem(GAUSS, 0, 1)
        zeta3 = elem(FieldSpec(-3), Fraction(-1, 2), Fraction(1, 2))
        assert parse_element("zeta3", FieldSpec(-3)) == zeta3
        assert parse_element("8*zeta3", FieldSpec(-3)) == elem(FieldSpec(-3), -4, 4)
        assert parse_element("2^9*zeta3", FieldSpec(-3)) == elem(FieldSpec(-3), -256, 256)
        assert parse_element("2^9", QQ) == elem(QQ, 512)
        assert parse_element("3*i", GAUSS) == elem(GAUSS, 0, 3)

    def test_leading_sign_binds_before_power(self):
        # the sign belongs to the atom: -2^2 is (-2)^2, and -1*2^2 negates the power
        assert parse_element("-2^2", QQ) == elem(QQ, 4)
        assert parse_element("-1*2^2", QQ) == elem(QQ, -4)
        assert parse_element("-5^3", QQ) == elem(QQ, -125)
        assert parse_element("-2*sqrt(3)^2", RT3) == elem(RT3, 12)

    def test_element_errors(self):
        with pytest.raises(ParseError):
            parse_element("i", QQ)
        with pytest.raises(ParseError):
            parse_element("zeta3", GAUSS)
        with pytest.raises(ParseError):
            parse_element("1*sqrt(5)", RT2)
        with pytest.raises(ParseError):
            parse_element("2+", QQ)
        with pytest.raises(ParseError):
            parse_element("2**3", QQ)

    def test_coordinate_bit_limit(self):
        # 2^k has k + 1 bits, so 2^4095 is the largest power of 2 within the limit
        assert parse_element("2^4095", QQ) == elem(QQ, 2 ** 4095)
        with pytest.raises(DomainError, match="at least 4097 bits"):
            parse_element("2^4096", QQ)
        # the same bound on a denominator: -2/4 is charged as -1/2, its reduced form
        e = parse_element("-2/4^4095", QQ)
        assert e == elem(QQ, Fraction(-1, 2 ** 4095))
        assert _coordinate_bits(e) == fraction_bits(e) == MAX_COORDINATE_BITS
        with pytest.raises(DomainError, match="exponent 4096 needs at least 4097 bits"):
            parse_element("-1/2^4096", QQ)
        # 1/2 + 1/2*sqrt(5) has 2-bit coordinates, so ^k is charged 2*k bits
        phi = elem(FieldSpec(5), Fraction(1, 2), Fraction(1, 2))
        assert parse_element("1/2+1/2*sqrt(5)^2048", FieldSpec(5)) == phi ** 2048
        with pytest.raises(DomainError, match="exponent 2049 needs 4098 bits"):
            parse_element("1/2+1/2*sqrt(5)^2049", FieldSpec(5))
        with pytest.raises(DomainError):
            parse_element("2^100000000", QQ)
        with pytest.raises(DomainError):  # each factor fits, the product does not
            parse_element("3^2000*3^2000", QQ)
        with pytest.raises(DomainError):  # the estimate passes, the power does not
            parse_element("1+1*sqrt(3)^4000", RT3)
        with pytest.raises(DomainError):
            parse_element("9" * 5000, QQ)

    def test_powers_of_roots_of_unity_reduce_mod_12(self):
        z3 = FieldSpec(-3)
        zeta3 = elem(z3, Fraction(-1, 2), Fraction(1, 2))
        assert parse_element("i^5000", GAUSS) == elem(GAUSS, 1)
        assert parse_element("zeta3^4097", z3) == zeta3 * zeta3
        assert parse_element("1/2+1/2*sqrt(-3)^6001", z3) == elem(z3, Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(DomainError):  # charged k*b = 6000 bits, though it has about 2,083
            parse_element("1/2+1/2*sqrt(5)^3000", FieldSpec(5))

    def test_first_fault_in_reading_order_wins(self):
        # the 1,234-digit term (4,100 bits) is refused before the '+3' after it is read
        with pytest.raises(DomainError, match="a term needs 4100 bits"):
            parse_element("9" * 1234 + "+3", QQ)
        # an over-long digit run is refused before anything else, the 'x' included
        with pytest.raises(DomainError, match="1300-digit"):
            parse_element("x+" + "9" * 1300, QQ)
        with pytest.raises(ParseError):
            parse_element("x*2^5000", QQ)
        with pytest.raises(ParseError):
            parse_element("1/0", QQ)

    def test_format_round_trip(self):
        rng = random.Random(7)
        for field in (QQ, GAUSS, RT2, FieldSpec(-3)):
            for _ in range(25):
                a = random_element(rng, field)
                assert parse_element(format_element(a), field) == a


_BLANKS = st.sampled_from(["", "", "", " ", "  ", "\t"])
# one-token replacements: "" deletes a token or leaves a blank empty, "0" makes "1/0"
_MUTANTS = ["", "0", "1", "00", "4096", "9" * 1300, " ", "x", "+", "-", "*", "/", "^",
            "(", ")", "sqrt", "i", "zeta3"]


@st.composite
def element_texts(draw):
    """(field, tokens, value): a well-formed element text as tokens with blanks between
    them, and the Element built from the same parts by Element arithmetic."""
    field = draw(st.sampled_from(FIELDS))
    toks = []

    def put(*parts):
        for part in parts:
            toks.extend([draw(_BLANKS), part])

    def signed_rat(signs):
        sign = draw(st.sampled_from(signs))
        if sign:
            put(sign)
        num = draw(st.integers(0, 60))
        put(str(num))
        den = draw(st.integers(1, 40) | st.none())
        if den is not None:
            put("/", str(den))
        return Fraction(-num if sign == "-" else num, den or 1)

    def atom():
        kinds = ["rat"] + ([] if field.is_rational else ["rat+sqrt", "sqrt"])
        kinds += {-1: ["i"], -3: ["zeta3"]}.get(field.d, [])
        kind = draw(st.sampled_from(kinds))
        if kind == "i":
            put("i")
            return elem(field, 0, 1)
        if kind == "zeta3":
            put("zeta3")
            return elem(field, Fraction(-1, 2), Fraction(1, 2))
        x = signed_rat(["", "+", "-"])
        if kind == "rat":
            return elem(field, x)
        x, y = (x, signed_rat(["+", "-"])) if kind == "rat+sqrt" else (0, x)
        put("*", "sqrt", "(", *(["-"] if field.d < 0 else []), str(abs(field.d)), ")")
        return elem(field, x, y)

    value = None
    for _ in range(draw(st.integers(1, 3))):
        if value is not None:
            put("*")
        a = atom()
        if draw(st.booleans()):
            k = draw(st.integers(0, 12))
            put("^", str(k))
            a = a ** k
        value = a if value is None else value * a
    toks.append(draw(_BLANKS))
    return field, toks, value


class TestGrammarProperties:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(element_texts())
    def test_text_parses_to_the_element_built_from_its_parts(self, item):
        field, toks, value = item
        assert parse_element("".join(toks), field) == value

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(element_texts(), st.data())
    def test_one_token_mutation_raises_only_parse_or_domain_errors(self, item, data):
        field, toks, _ = item
        toks[data.draw(st.integers(0, len(toks) - 1))] = data.draw(st.sampled_from(_MUTANTS))
        try:
            parse_element("".join(toks), field)
        except (ParseError, DomainError):
            pass


# every character str.split splits on (none lies past U+3000)
_ALL_BLANKS = [chr(c) for c in range(0x3001) if chr(c).isspace()]


def _rat_always_joined(text):
    """field._rat without its blank-free shortcut: the reference the shortcut must match."""
    num, _, den = "".join(text.split()).partition("/")
    if den and not int(den):
        raise ParseError(f"zero denominator in {text.strip()!r}")
    return int(num), int(den or 1)


def _outcome(text, field):
    try:
        return parse_element(text, field)
    except (ParseError, DomainError) as e:
        return type(e), str(e)


class TestBlankFreeFastPath:
    """_rat skips the join of blank-free tokens, and the size checks of a term and a
    product run the gcds only when the raw triple is over MAX_COORDINATE_BITS."""

    def test_blanks_cover_str_split_and_only_space_is_printable(self):
        named = "\t\n\r\f\v\x1c\x1d\x1e\x1f\x85\xa0\u2003\u3000 "
        assert set(named) <= set(_ALL_BLANKS)
        assert all(not b.isprintable() for b in _ALL_BLANKS if b != " ")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(element_texts(), st.sampled_from(_ALL_BLANKS), st.data())
    def test_blank_laden_texts_parse_like_their_blank_free_twins(self, item, blank, data):
        field, toks, value = item
        bare = "".join(t for t in toks if not t.isspace())
        laden = "".join(blank if t.isspace() else t for t in toks)
        mutated = list(toks)
        mutated[data.draw(st.integers(0, len(toks) - 1))] = data.draw(st.sampled_from(_MUTANTS))
        texts = [bare, laden, "".join(t for t in mutated if not t.isspace()),
                 "".join(blank if t.isspace() else t for t in mutated)]
        got = [_outcome(t, field) for t in texts]
        assert got[0] == got[1] == value
        # a mutant can merge two tokens in the blank-free text, so its twin may differ; each
        # text, mutant or not, must give what the always-joining _rat gives, error text and all
        rat = ordens.field._rat
        try:
            ordens.field._rat = _rat_always_joined
            assert [_outcome(t, field) for t in texts] == got
        finally:
            ordens.field._rat = rat

    @pytest.mark.parametrize("blank", _ALL_BLANKS, ids=[f"U+{ord(b):04X}" for b in _ALL_BLANKS])
    def test_each_blank_inside_every_token(self, blank):
        z3 = FieldSpec(-3)
        text = "-37/19+39/16*sqrt(-3)*zeta3^2"
        laden = blank.join(["", "-", "37", "/", "19", "+", "39", "/", "16", "*", "sqrt", "(", "-",
                            "3", ")", "*", "zeta3", "^", "2", ""])
        assert parse_element(laden, z3) == parse_element(text, z3)
        zero = "1" + blank + "/" + blank + "0"  # _rat quotes its token with the blanks kept
        for toks, error, message in [
                (["1", "/", "0"], ParseError, f"zero denominator in {zero!r}"),
                (["1", "*", "sqrt", "(", "5", ")"], ParseError, "sqrt(5) does not live in Q"),
                (["2", "^", "5000", "*", "x"], DomainError,
                 "a power to the exponent 5000 needs at least 5001 bits per coordinate")]:
            with pytest.raises(error) as info:
                parse_element(blank.join(["", *toks, ""]), QQ)
            assert str(info.value).startswith(message)
            with pytest.raises(error):
                parse_element("".join(toks), QQ)

    def test_first_fault_in_reading_order_wins_with_blanks(self):
        for blank in ("", " ", "\u3000"):
            with pytest.raises(ParseError):
                parse_element(f"x{blank}*{blank}2^5000", QQ)
            with pytest.raises(DomainError, match="exponent 5000"):
                parse_element(f"2^5000{blank}*{blank}x", QQ)

    def test_product_just_over_the_limit(self):
        assert parse_element("2^4000*2^95", QQ) == elem(QQ, 2 ** 4095)
        with pytest.raises(DomainError, match="the product needs 4097 bits per coordinate, "
                                              f"over the limit of {MAX_COORDINATE_BITS}"):
            parse_element("2^4000*2^96", QQ)
        with pytest.raises(DomainError, match="the product needs 4097 bits"):
            parse_element("-1/2^4000*1/2^96", QQ)

    def test_raw_triple_over_the_limit_with_coordinates_under_it(self):
        # 1/3**2000 + sqrt(5)/2**3000 is held over den 2**3000 * 3**2000, 6,170 bits, but
        # its coordinates have at most 3,171, so the exact check lets term and product pass
        f5, n, m = FieldSpec(5), 3 ** 2000, 2 ** 3000
        want = elem(f5, Fraction(1, n), Fraction(1, m))
        assert want.den.bit_length() > MAX_COORDINATE_BITS >= _coordinate_bits(want)
        assert parse_element(f"1/{n}+1/{m}*sqrt(5)", f5) == want
        assert parse_element(f"1/{n}+1/{m}*sqrt(5)*1", f5) == want


# (num, den) with a common factor, so many texts are unreduced fractions like '6/4'
_TEXT_FRACTIONS = st.tuples(st.integers(-60, 60) | st.integers(-2 ** 90, 2 ** 90),
                            st.integers(1, 60) | st.integers(1, 2 ** 90),
                            st.integers(1, 12)).map(lambda t: (t[0] * t[2], t[1] * t[2]))


class TestIntegerParsing:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(FIELDS), st.sampled_from(["x", "x*sqrt", "x+y*sqrt"]),
           _TEXT_FRACTIONS, _TEXT_FRACTIONS)
    @example(RT2, "x+y*sqrt", (6, 4), (0, 4))
    @example(RT2, "x+y*sqrt", (0, 3), (-6, 4))
    @example(QQ, "x", (0, 6), (1, 1))
    def test_parse_matches_fraction_parse(self, field, form, x, y):
        """parse_element reads (num, den) ints; it must build the element that the
        Fraction coordinates of the same text give."""
        fx, fy = Fraction(*x), Fraction(*y)
        if field.is_rational:
            form = "x"
        sqrt = f"*sqrt({field.d})"
        text, want = {
            "x": (f"{x[0]}/{x[1]}", (fx, 0)),
            "x*sqrt": (f"{x[0]}/{x[1]}{sqrt}", (0, fx)),
            "x+y*sqrt": (f"{x[0]}/{x[1]}{'-' if y[0] < 0 else '+'}{abs(y[0])}/{y[1]}{sqrt}",
                         (fx, fy)),
        }[form]
        e = parse_element(text, field)
        assert e == Element(field, *want)
        assert _coordinate_bits(e) == fraction_bits(e)

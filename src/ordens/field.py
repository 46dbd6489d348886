"""Exact arithmetic in Q and in quadratic fields Q(sqrt(d)).

Elements x + y*sqrt(d), d squarefree, are held as integer triples (u, w, den)
with x = u/den, y = w/den, den > 0 and gcd(u, w, den) = 1; Q is the case w = 0.
Arithmetic is exact and multiplicative (products, quotients, powers, negation,
conjugation); the one float in the package is cli._approx's 6-digit display.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt


class FieldMismatch(ValueError):
    """Operands belong to different fields."""


class ParseError(ValueError):
    """Malformed field or element text."""


class DomainError(ValueError):
    """Input outside an operation's domain (zero element, bad d, ...)."""


class InvariantError(RuntimeError):
    """An internal identity that must hold exactly has failed."""


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        while n % f == 0:
            n //= f
        f += 1
    return True


# Fields Q(sqrt d) need |d| < 2**MAX_D_BITS, so that the trial division in
# is_squarefree takes at most about 20 ms.
MAX_D_BITS = 32


class FieldSpec(namedtuple("FieldSpec", "d")):
    """Q when d is None, else Q(sqrt(d)) for a squarefree integer d."""

    __slots__ = ()

    def __new__(cls, d: int | None = None) -> FieldSpec:
        if d is not None and d.bit_length() > MAX_D_BITS:
            raise DomainError(f"need |d| < 2**{MAX_D_BITS}, got a {d.bit_length()}-bit d")
        if d is not None and (d in (0, 1) or not is_squarefree(d)):
            raise DomainError(f"need squarefree d outside {{0, 1}}, got {d}")
        return super().__new__(cls, d)

    @property
    def is_rational(self) -> bool:
        return self.d is None

    @property
    def discriminant(self) -> int:
        if self.d is None:
            return 1
        return self.d if self.d % 4 == 1 else 4 * self.d

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt {self.d})"


QQ = FieldSpec()


class Element:
    """(u + w*sqrt(d)) / den with den > 0 and gcd(u, w, den) = 1.

    That triple is canonical, so equality and hashing compare ints; every
    operation is integer arithmetic and one gcd.  x and y are Fractions.
    A plain class with __slots__: it keeps no per-instance dict, and unlike
    a namedtuple it never equals a tuple.  Only _new sets the slots.
    """

    __slots__ = ("field", "u", "w", "den")

    def __new__(cls, field: FieldSpec, x: int | Fraction, y: int | Fraction = 0) -> Element:
        x, y = Fraction(x), Fraction(y)
        if field.is_rational and y:
            raise DomainError("rational elements have no sqrt coordinate")
        return _make(field, x.numerator * y.denominator, y.numerator * x.denominator,
                     x.denominator * y.denominator)

    @property
    def x(self) -> Fraction:
        return Fraction(self.u, self.den)

    @property
    def y(self) -> Fraction:
        return Fraction(self.w, self.den)

    @property
    def is_zero(self) -> bool:
        return not (self.u or self.w)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Element(field={self.field!r}, u={self.u!r}, w={self.w!r}, den={self.den!r})"

    def __reduce__(self):  # copy and pickle rebuild through __new__: setattr is frozen
        return Element, (self.field, self.x, self.y)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Element:
            return NotImplemented
        return (self.u == other.u and self.w == other.w and self.den == other.den
                and self.field == other.field)

    def __hash__(self) -> int:
        return hash((self.field.d, self.u, self.w, self.den))

    def _coerce(self, other: object) -> Element:
        if type(other) is not Element:
            raise TypeError(f"cannot interpret {other!r} as a field element")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return other

    def __neg__(self) -> Element:
        return _new(self.field, -self.u, -self.w, self.den)

    def __mul__(self, other: Element) -> Element:
        o = self._coerce(other)
        return _make(self.field, self.u * o.u + self.w * o.w * (self.field.d or 0),
                     self.u * o.w + self.w * o.u, self.den * o.den)

    def __truediv__(self, other: Element) -> Element:
        # self / o = self * conjugate(o) / norm(o), with norm(o) = n / o.den**2
        o = self._coerce(other)
        if o.is_zero:
            raise DomainError("division by zero")
        d = self.field.d or 0
        n = o.u * o.u - o.w * o.w * d
        return _make(self.field, (self.u * o.u - self.w * o.w * d) * o.den,
                     (self.w * o.u - self.u * o.w) * o.den, self.den * n)

    def __pow__(self, k: int) -> Element:
        if k < 0:
            return (_new(self.field, 1, 0, 1) / self) ** -k
        acc = _new(self.field, 1, 0, 1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    def conjugate(self) -> Element:
        return _new(self.field, self.u, -self.w, self.den)

    def norm(self) -> Fraction:
        # degree-1 convention for Q: norm(x) = x
        if self.field.is_rational:
            return Fraction(self.u, self.den)
        return Fraction(self.u * self.u - self.w * self.w * self.field.d, self.den * self.den)

    def trace(self) -> Fraction:
        # degree-1 convention for Q: trace(x) = x
        return Fraction(self.u if self.field.is_rational else 2 * self.u, self.den)

    def __str__(self) -> str:
        return format_element(self)


def _new(field: FieldSpec, u: int, w: int, den: int) -> Element:
    """The element (u + w*sqrt(d)) / den of a triple already in lowest terms."""
    e = object.__new__(Element)
    object.__setattr__(e, "field", field)
    object.__setattr__(e, "u", u)
    object.__setattr__(e, "w", w)
    object.__setattr__(e, "den", den)
    return e


def _make(field: FieldSpec, u: int, w: int, den: int) -> Element:
    """The element (u + w*sqrt(d)) / den for any den != 0, in lowest terms."""
    g = gcd(u, w, den) if den > 0 else -gcd(u, w, den)
    return _new(field, u // g, w // g, den // g)


def valuation(n: int, ell: int) -> int:
    """The exponent of the prime ell in the nonzero integer n."""
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def _int_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2:
        return n
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def rational_nth_root(q: Fraction | int, k: int) -> tuple[Fraction, ...]:
    """All rational r with r**k == q; empty tuple when none exist.

    Odd k gives at most one root, even k gives the +/- pair.
    """
    if k < 1:
        raise DomainError("root index must be positive")
    q = Fraction(q)
    if q == 0:
        return (Fraction(0),)
    if q < 0 and k % 2 == 0:
        return ()
    num, den = abs(q.numerator), q.denominator
    rn = _int_nth_root(num, k)
    rd = _int_nth_root(den, k)
    if rn ** k != num or rd ** k != den:
        return ()
    r = Fraction(rn, rd)
    if k % 2 == 1:
        return (-r if q < 0 else r,)
    return (r, -r)


def format_element(e: Element) -> str:
    """Canonical text form, reparseable by parse_element."""
    if e.y == 0:
        return str(e.x)
    tail = f"{abs(e.y)}*sqrt({e.field.d})"
    if e.x == 0:
        return tail if e.y > 0 else f"-{tail}"
    sign = "+" if e.y > 0 else "-"
    return f"{e.x}{sign}{tail}"


_FIELD_RE = re.compile(r"\s*Q\s*(?:\(\s*sqrt\s*(-?\d+)\s*\))?\s*\Z")


def parse_field(text: str) -> FieldSpec:
    m = _FIELD_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse field {text!r} (expected Q or Q(sqrt D))")
    if m.group(1) is None:
        return QQ
    digits = m.group(1).lstrip("-0")
    if len(digits) > len(str(1 << MAX_D_BITS)):  # refused before int() reads it
        raise DomainError(f"need |d| < 2**{MAX_D_BITS}, got a {len(digits)}-digit d")
    return FieldSpec(int(m.group(1)))


_TOKEN_RE = re.compile(r"\s*(\d+|sqrt|zeta3|i|[-+*/^()])")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad character in element at {text[pos:]!r}")
            break
        if len(m.group(1)) > _MAX_DIGITS:
            raise DomainError(f"a {len(m.group(1))}-digit number in element text is "
                              f"over the limit of {MAX_COORDINATE_BITS} bits")
        out.append(m.group(1))
        pos = m.end()
    return out


# Parsed elements keep every numerator and denominator within this many bits
# (about 1,230 digits): far above any table or test input, small enough that
# decompose stays fast and every coordinate prints under Python's 4,300-digit
# int-to-str limit.
MAX_COORDINATE_BITS = 4096
_MAX_DIGITS = len(str(1 << MAX_COORDINATE_BITS))


def _coordinate_bits(e: Element) -> int:
    return max(max(q.numerator.bit_length(), q.denominator.bit_length()) for q in (e.x, e.y))


def _check_bits(bits: int, what: str, least: str = "") -> None:
    if bits > MAX_COORDINATE_BITS:
        raise DomainError(f"{what} needs {least}{bits} bits per coordinate, "
                          f"over the limit of {MAX_COORDINATE_BITS}")


class _ElementParser:
    """element := term ('*' term)* ; term := atom ('^' uint)? ;
    atom := 'i' | 'zeta3' | rat | rat sign rat*sqrt(D) | [sign] rat*sqrt(D)
    (the sign is the atom's, so '-2^2' is (-2)**2 = 4; '-1*2^2' is -4)

    Every term and product is held to MAX_COORDINATE_BITS.  A power is
    refused before it is built when it must be over that limit: for a
    rational atom whose larger coordinate has b bits, atom**k has at least
    k*(b - 1) + 1; for an atom with a sqrt(d) part the bound is k*b.
    """

    def __init__(self, tokens: list[str], field: FieldSpec):
        self.toks = tokens
        self.pos = 0
        self.field = field

    def peek(self, ahead: int = 0) -> str | None:
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of element text")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> Element:
        e = self.term()
        while self.peek() == "*":
            self.next()
            e = e * self.term()
            _check_bits(_coordinate_bits(e), "the product")
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.toks[self.pos:]!r}")
        return e

    def term(self) -> Element:
        a = self.atom()
        if self.peek() == "^":
            self.next()
            k = self.uint()
            bits = _coordinate_bits(a)
            if a.y == 0:
                _check_bits(k * (bits - 1) + 1, f"a power to the exponent {k}", "at least ")
            else:
                _check_bits(k * bits, f"a power to the exponent {k}")
            a = a ** k
        _check_bits(_coordinate_bits(a), "a term")
        return a

    def uint(self) -> int:
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected exponent, got {tok!r}")
        return int(tok)

    def atom(self) -> Element:
        tok = self.peek()
        if tok == "i":
            self.next()
            if self.field.d != -1:
                raise ParseError("'i' is only valid over Q(sqrt -1)")
            return Element(self.field, 0, 1)
        if tok == "zeta3":
            self.next()
            if self.field.d != -3:
                raise ParseError("'zeta3' is only valid over Q(sqrt -3)")
            return Element(self.field, Fraction(-1, 2), Fraction(1, 2))
        r1 = self.signed_rat()
        nxt = self.peek()
        if nxt in ("+", "-"):
            sign = -1 if self.next() == "-" else 1
            r2 = self.rat()
            self.sqrt_suffix()
            return Element(self.field, r1, sign * r2)
        if nxt == "*" and self.peek(1) == "sqrt":
            self.sqrt_suffix()
            return Element(self.field, 0, r1)
        return Element(self.field, r1)

    def sqrt_suffix(self) -> None:
        self.expect("*")
        self.expect("sqrt")
        self.expect("(")
        neg = False
        if self.peek() == "-":
            self.next()
            neg = True
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected integer inside sqrt(...), got {tok!r}")
        d = -int(tok) if neg else int(tok)
        self.expect(")")
        if self.field.is_rational or d != self.field.d:
            raise ParseError(f"sqrt({d}) does not live in {self.field}")

    def signed_rat(self) -> Fraction:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next() == "-" else 1
        return sign * self.rat()

    def rat(self) -> Fraction:
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected number, got {tok!r}")
        num = int(tok)
        if self.peek() == "/":
            self.next()
            den = self.next()
            if not den.isdigit() or int(den) == 0:
                raise ParseError(f"expected positive denominator, got {den!r}")
            return Fraction(num, int(den))
        return Fraction(num)


def parse_element(text: str, field: FieldSpec) -> Element:
    """Parse element text like '2', '-1/2+1/2*sqrt(-3)', '8*zeta3', '2^9';
    a leading sign binds before '^', so '-2^2' is 4 and '-1*2^2' is -4."""
    return _ElementParser(_tokenize(text), field).parse()

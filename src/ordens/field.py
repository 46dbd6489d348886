"""Exact arithmetic in Q and in quadratic fields Q(sqrt(d)).

Elements x + y*sqrt(d), d squarefree, are held as integer triples (u, w, den)
with x = u/den, y = w/den, den > 0 and gcd(u, w, den) = 1; Q is the case w = 0.
Arithmetic is exact and multiplicative (products, quotients, powers, negation,
conjugation); floats serve only cli._approx's display and _int_nth_root's guess.
_mul and _pow are the one kernel for x + y*sqrt(d) in (Z/m)[sqrt d], held as pairs
(x, y): roots._lift lifts l-th roots with it, and scan powers its inert slots.
Element.__pow__ runs _pow's square-and-multiply on (u, w) and normalises the triple once.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
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
    a namedtuple it never equals a tuple.  It refuses setattr: _new fills
    the slots of an _Unfrozen twin, then makes that an Element.
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
        return hash((self.u, self.w, self.den))

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
        if k == 1:
            return self
        if k < 0:
            return (_new(self.field, 1, 0, 1) / self) ** -k
        d, x, y, rx, ry, den = self.field.d or 0, self.u, self.w, 1, 0, self.den ** k
        while k:  # _pow without the modulus; _make reduces the triple once, at the end
            if k & 1:
                rx, ry = rx * x + d * ry * y, rx * y + ry * x
            k >>= 1
            if k:
                x, y = x * x + d * y * y, 2 * x * y
        return _make(self.field, rx, ry, den)

    def conjugate(self) -> Element:
        return _new(self.field, self.u, -self.w, self.den)

    def __str__(self) -> str:
        return format_element(self)


class _Unfrozen:
    """Element's slot layout without its setattr guard; only _new makes one."""

    __slots__ = Element.__slots__


def _new(field: FieldSpec, u: int, w: int, den: int) -> Element:
    """The element (u + w*sqrt(d)) / den of a triple already in lowest terms.

    Plain stores into an _Unfrozen, whose slot layout lets it become an
    Element, take half the time of one object.__setattr__ per slot.
    """
    e = object.__new__(_Unfrozen)
    e.field = field
    e.u = u
    e.w = w
    e.den = den
    e.__class__ = Element
    return e


def _make(field: FieldSpec, u: int, w: int, den: int) -> Element:
    """The element (u + w*sqrt(d)) / den for any den != 0, in lowest terms."""
    g = gcd(u, w, den) if den > 0 else -gcd(u, w, den)
    return _new(field, u // g, w // g, den // g)


# l must be a prime of at most this many bits, so that trial division in
# _check_ell stays under a millisecond.
MAX_ELL_BITS = 20


def _check_ell(ell: int, name: str = "l") -> None:
    """Refuse a bad l, called name; cyclo_profile and scan._scan_vk run this per cache entry."""
    if ell.bit_length() > MAX_ELL_BITS:
        raise DomainError(f"{name} must be below 2**{MAX_ELL_BITS}, got a "
                          f"{ell.bit_length()}-bit number")
    if ell < 2 or any(ell % f == 0 for f in range(2, isqrt(ell) + 1)):
        raise DomainError(f"{name} must be prime, got {ell}")


def valuation(n: int, ell: int) -> int:
    """The exponent of the prime ell in the nonzero integer n."""
    if ell < 2:
        raise DomainError(f"need ell >= 2 for a valuation, got {ell}")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def _int_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, by Newton's iteration from at least the floor."""
    if n < 2 or k == 1:
        return n
    if n.bit_length() <= k:  # n < 2**k
        return 1
    if k == 2:
        return isqrt(n)
    if (b := n.bit_length()) <= 40 * k and b <= 1000:  # a root below 2**40, as a float
        x = int(n ** (1 / k)) + 1  # off by far less than one, so at least the floor
    else:  # one past the root of the leading half of the bits, shifted back: two steps remain
        t = max(1, b // (2 * k))
        x = (_int_nth_root(n >> (k * t), k) + 1) << t
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _nth_roots(num: int, den: int, k: int) -> tuple[tuple[int, int], ...]:
    """All rational k-th roots of num/den (den > 0, any terms) as lowest-terms
    (num, den) pairs: at most one for odd k, the +/- pair for even k."""
    g = gcd(num, den)
    num, den = num // g, den // g
    rn, rd = _int_nth_root(abs(num), k), _int_nth_root(den, k)
    if num < 0 and k % 2 == 0 or rn ** k != abs(num) or rd ** k != den:
        return ()
    rn = -rn if num < 0 else rn
    return ((rn, rd), (-rn, rd)) if k % 2 == 0 and num else ((rn, rd),)


def _mul(a: tuple[int, int], b: tuple[int, int], d: int, m: int) -> tuple[int, int]:
    """(a0 + a1*sqrt(d)) * (b0 + b1*sqrt(d)) in (Z/m)[sqrt d]."""
    return (a[0] * b[0] + d * a[1] * b[1]) % m, (a[0] * b[1] + a[1] * b[0]) % m


def _pow(a: tuple[int, int], k: int, d: int, m: int) -> tuple[int, int]:
    """a**k in (Z/m)[sqrt d], with _mul written out."""
    x, y = a
    rx, ry = 1, 0
    while k:
        if k & 1:
            rx, ry = (rx * x + d * ry * y) % m, (rx * y + ry * x) % m
        k >>= 1
        if k:
            x, y = (x * x + d * y * y) % m, 2 * x * y % m
    return rx, ry


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


@lru_cache(maxsize=64)
def parse_field(text: str) -> FieldSpec:
    """The field named by text, Q or Q(sqrt D); cached per text (a FieldSpec is
    immutable), and an error is raised again on every call, never cached."""
    m = _FIELD_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse field {text!r} (expected Q or Q(sqrt D))")
    if m.group(1) is None:
        return QQ
    digits = m.group(1).lstrip("-0")
    if len(digits) > len(str(1 << MAX_D_BITS)):  # refused before int() reads it
        raise DomainError(f"need |d| < 2**{MAX_D_BITS}, got a {len(digits)}-digit d")
    return FieldSpec(int(m.group(1)))


# Parsed elements keep every numerator and denominator within this many bits
# (about 1,230 digits): far above any table or test input, small enough that
# decompose stays fast and every coordinate prints under Python's 4,300-digit
# int-to-str limit.
MAX_COORDINATE_BITS = 4096
_MAX_DIGITS = len(str(1 << MAX_COORDINATE_BITS))
_LONG_NUMBER_RE = re.compile(rf"(?<!\d)\d{{{_MAX_DIGITS + 1},}}")
_RAT = r"\d+(?:\s*/\s*\d+)?"
# One term: an atom, an optional '^k', then '*' or the end of the text (end is
# None when neither follows).  No two '\s*' can split the same blank run, so a
# failed match backtracks in linear time.
_TERM_RE = re.compile(rf"""\s*(?: (?P<unit>i|zeta3)
    | (?P<x>(?:[-+]\s*)?{_RAT})
      (?: (?P<y>\s*[-+]\s*{_RAT})? \s*\*\s*sqrt\s*\(\s*(?P<d>(?:-\s*)?\d+)\s*\) )? )
    (?:\s*\^\s*(?P<k>\d+))? \s*(?P<end>\*|\Z)?""", re.X)


def _coordinate_bits(e: Element) -> int:
    # the largest numerator or denominator bit length of x = u/den and y = w/den
    return max(max((n // g).bit_length(), (e.den // g).bit_length())
               for n in (e.u, e.w) for g in (gcd(n, e.den),))


def _check_size(e: Element, what: str) -> None:  # the raw triple bounds the coordinates
    if max(e.u.bit_length(), e.w.bit_length(), e.den.bit_length()) > MAX_COORDINATE_BITS:
        _check_bits(_coordinate_bits(e), what)  # so the gcds run only over the limit


def _check_bits(bits: int, what: str, least: str = "") -> None:
    if bits > MAX_COORDINATE_BITS:
        raise DomainError(f"{what} needs {least}{bits} bits per coordinate, "
                          f"over the limit of {MAX_COORDINATE_BITS}")


def _rat(text: str) -> tuple[int, int]:
    # every character str.split splits on but ' ' is unprintable, so most tokens skip the join
    bare = text if " " not in text and text.isprintable() else "".join(text.split())
    num, _, den = bare.partition("/")
    if den and not int(den):
        raise ParseError(f"zero denominator in {text.strip()!r}")
    return int(num), int(den or 1)


def _atom(m: re.Match, field: FieldSpec) -> Element:
    unit, xt, yt, dt = m.group("unit", "x", "y", "d")
    if unit == "i":
        if field.d != -1:
            raise ParseError("'i' is only valid over Q(sqrt -1)")
        return _new(field, 0, 1, 1)
    if unit:
        if field.d != -3:
            raise ParseError("'zeta3' is only valid over Q(sqrt -3)")
        return _new(field, -1, 1, 2)
    x, xd = _rat(xt)
    if dt is None:
        return _make(field, x, 0, xd)
    d = int("".join(dt.split()))
    if d != field.d:
        raise ParseError(f"sqrt({d}) does not live in {field}")
    if not yt:
        return _make(field, 0, x, xd)
    y, yd = _rat(yt)
    return _make(field, x * yd, y * xd, xd * yd)


def parse_element(text: str, field: FieldSpec) -> Element:
    """Parse element text like '2', '-1/2+1/2*sqrt(-3)', '8*zeta3', '2^9'.

    element := term ('*' term)* ;  term := atom ('^' uint)? ;
    atom := 'i' | 'zeta3' | rat | rat sign urat*sqrt(D) | rat*sqrt(D) ;
    rat := [sign] urat ;  urat := uint ('/' uint)? ;  D := ['-'] uint
    Blanks may stand between any two tokens.  The sign is the atom's, so
    '-2^2' is (-2)**2 = 4 and '-1*2^2' is -4.  'i' needs Q(sqrt -1), 'zeta3'
    Q(sqrt -3), and D must be the field's d.

    Size limits: no number may have more than _MAX_DIGITS digits, and every
    term and product is held to MAX_COORDINATE_BITS.  A power is checked
    before it is built.  For a rational atom whose larger coordinate has b
    bits, atom**k has at least k*(b - 1) + 1 bits, so only powers over the
    limit are refused.  An atom with a sqrt(d) part is charged k*b bits, an
    estimate that can refuse a power that fits: '1/2+1/2*sqrt(5)^3000' (the
    atom's power) has about 2,083 bits.  A root of unity (order 4 or 6, so
    atom**12 == 1) is raised to k mod 12 instead.

    Which error wins on a text with two faults: a run of over _MAX_DIGITS
    digits anywhere raises DomainError before anything else is read.  Then
    the terms are read left to right, each built and size-checked before the
    text after it, so the first fault in that order wins: 'x*2^5000' raises
    ParseError, '2^5000*x' DomainError.
    """
    long = _LONG_NUMBER_RE.search(text)
    if long:
        raise DomainError(f"a {len(long[0])}-digit number in element text is "
                          f"over the limit of {MAX_COORDINATE_BITS} bits")
    e, pos, end = None, 0, "*"
    while end == "*":
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ParseError(f"expected a term at {text[pos:]!r}")
        a = _atom(m, field)
        if m["k"]:
            k, bits = int(m["k"]), _coordinate_bits(a)
            if k >= 12 and bits <= 2 and a ** 12 == _new(field, 1, 0, 1):
                k %= 12
            if a.w:
                _check_bits(k * bits, f"a power to the exponent {k}")
            else:
                _check_bits(k * (bits - 1) + 1, f"a power to the exponent {k}", "at least ")
            a = a ** k
        _check_size(a, "a term")
        if e is not None:
            a = e * a
            _check_size(a, "the product")
        e, pos, end = a, m.end(), m["end"]
    if end is None:
        raise ParseError(f"unexpected text at {text[pos:]!r}")
    return e

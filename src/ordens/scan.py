"""Empirical verification by scanning primes of the field.

Primes are enumerated as slots: one slot per degree-one prime (split
rational primes contribute two, one per square root of d mod p) and one
per inert prime entering at norm p**2.  Reduction of an element into the
residue field is coordinate-wise; inert slots at odd p live in
F_p[T]/(T**2 - d) with hand-rolled pair arithmetic.  A scan condenses each
slot into the pair (v, k) = (l-valuation of q - 1, l-valuation of the
reduced element's order), from which both the valuation histogram and
complete-splitting fractions are read off.  When v = 0, l does not divide the
order, so the slot is (0, 0) with no power.  Otherwise x = red**e, with red the
reduction and e = (q - 1)/l**v, has order dividing l**v: k counts the raisings
of x to l until it is 1, and stops at k = v.  The two slots of a split p are
adjacent and share v, e and the inverse of den, where a = (u + w*sqrt(d)) / den
over the common denominator; counts go into one row per v, indexed by k.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .density import density
from .field import DomainError, Element, FieldSpec, valuation

# p: the rational prime under the slot; kind: "split" (degree one) or "inert";
# norm: p or p**2; sqrt_d: the residue of sqrt(d) mod p for a split slot of a
# quadratic field, else None.
PrimeSlot = namedtuple("PrimeSlot", "p kind norm sqrt_d")


@dataclass(frozen=True)
class ScanReport:
    bound: int
    counted: int
    excluded: tuple[int, ...]
    histogram: dict[int, int]
    empirical: dict[int, Fraction]
    exact: dict[int, Fraction]
    max_abs_error: Fraction


# Largest norm bound of a scan: the sieve holds bound + 1 bytes.
MAX_BOUND = 10 ** 7


@lru_cache(maxsize=8)
def sieve_primes(bound: int) -> tuple[int, ...]:
    if bound > MAX_BOUND:
        raise DomainError(f"norm bound {bound} is over the limit of {MAX_BOUND}")
    if bound < 2:
        return ()
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


def _tonelli(n: int, p: int) -> int:
    """A square root of n mod an odd prime p; n must be a residue."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


@lru_cache(maxsize=64)
def _field_slots(field: FieldSpec, bound: int) -> tuple[PrimeSlot, ...]:
    primes = sieve_primes(bound)
    if field.is_rational:
        return tuple(PrimeSlot(p, "split", p, None) for p in primes)
    d = field.d
    disc = field.discriminant
    slots: list[PrimeSlot] = []
    for p in primes:
        if disc % p == 0:
            continue  # ramified
        if p == 2:
            # disc odd here, i.e. d = 1 mod 4; split iff d = 1 mod 8
            if d % 8 == 1:
                slots.append(PrimeSlot(2, "split", 2, 1))
                slots.append(PrimeSlot(2, "split", 2, 1))
            elif 4 <= bound:
                slots.append(PrimeSlot(2, "inert", 4, None))
            continue
        if pow(d % p, (p - 1) // 2, p) == 1:
            r = _tonelli(d % p, p)
            slots.append(PrimeSlot(p, "split", p, min(r, p - r)))
            slots.append(PrimeSlot(p, "split", p, max(r, p - r)))
        elif p * p <= bound:
            slots.append(PrimeSlot(p, "inert", p * p, None))
    return tuple(slots)


def enumerate_slots(field: FieldSpec, norm_bound: int) -> tuple[PrimeSlot, ...]:
    """Primes of the field with norm <= norm_bound, ramified ones skipped."""
    if norm_bound < 2:
        raise DomainError("norm bound must be at least 2")
    return _field_slots(field, norm_bound)


def _pow_fp2(c0: int, c1: int, e: int, p: int, d: int) -> tuple[int, int]:
    r0, r1 = 1, 0
    while e:
        if e & 1:
            r0, r1 = (r0 * c0 + r1 * c1 % p * d) % p, (r0 * c1 + r1 * c0) % p
        c0, c1 = (c0 * c0 + c1 * c1 % p * d) % p, 2 * c0 * c1 % p
        e >>= 1
    return r0, r1


def _inert_vk(u: int, w: int, den: int, d: int, p: int, ell: int) -> tuple[int, int]:
    inv = pow(den, -1, p)
    c0, c1 = u * inv % p, w * inv % p
    if p == 2:
        # 2 is inert only for d = 5 mod 8.  The residue field is then
        # O/2O = F_4, not F_2[T]/(T**2 - d): sqrt(d) = 2*omega - 1 reduces
        # to 1, so every unit reduces to 1 and has order 1.
        if (c0 + c1) % 2 == 0:
            raise DomainError("reduction mod 2 is not a unit")
        return valuation(3, ell), 0
    if c0 == 0 and c1 == 0:
        raise DomainError(f"reduction mod {p} is not a unit")
    v = valuation(p * p - 1, ell)
    dm = d % p
    w0, w1 = _pow_fp2(c0, c1, (p * p - 1) // ell ** v, p, dm)
    k = 0
    while (w0, w1) != (1, 0):
        k += 1
        if k == v:
            break
        w0, w1 = _pow_fp2(w0, w1, ell, p, dm)
    return v, k


def _vk_counts(a: Element, ell: int, slots: list[PrimeSlot]) -> Counter:
    """Count the pairs (v, k) of a over the given slots, in one row per v."""
    den, u, w = a.den, a.u, a.w
    rows: dict[int, list[int]] = {}
    last = 0
    for p, kind, _, s in slots:
        if kind != "split":
            iv, ik = _inert_vk(u, w, den, a.field.d, p, ell)
            rows.setdefault(iv, [0] * (iv + 1))[ik] += 1
            continue
        red = (u + w * s) % p if s else u % p
        if red == 0:
            raise DomainError(f"reduction mod {p} is not a unit")
        if p != last:
            last = p
            if ell == 2:
                v = ((p - 1) & (1 - p)).bit_length() - 1
                e = (p - 1) >> v
            else:
                e, v = p - 1, 0
                while e % ell == 0:
                    e //= ell
                    v += 1
            row = rows.setdefault(v, [0] * (v + 1))
            inv = pow(den, -1, p) if v and den != 1 else 1
        k = 0
        if v:
            x = pow(red * inv, e, p)
            while x != 1:
                k += 1
                if k == v:
                    break
                x = x * x % p if ell == 2 else pow(x, ell, p)
        row[k] += 1
    return Counter({(v, k): c for v, row in rows.items()
                    for k, c in enumerate(row) if c})


def _bad_modulus(a: Element, ell: int) -> int:
    """Product sweeping up every prime where reduction could misbehave."""
    u, w = a.u, a.w
    nrm = u if a.field.is_rational else u * u - w * w * a.field.d
    return ell * abs(a.field.discriminant) * a.den * abs(nrm)


@lru_cache(maxsize=64)
def _scan_vk(a: Element, ell: int, bound: int) -> tuple[Counter, int, tuple[int, ...]]:
    """(v, k) counts over all good slots, plus counted and excluded primes."""
    excluded, rem = [], _bad_modulus(a, ell)
    for p in sieve_primes(bound):
        if p * p > rem:
            break
        if rem % p == 0:
            excluded.append(p)
            rem //= p ** valuation(rem, p)
    if 1 < rem <= bound:  # rem is 1 or a prime here, or has no factor <= bound
        excluded.append(rem)
    every, slots, start = _field_slots(a.field, bound), [], 0
    for p in excluded:  # slots are sorted by p, so each p's slots are one run
        i = bisect_left(every, (p,), start)
        slots += every[start:i]
        start = bisect_left(every, (p + 1,), i)
    slots += every[start:]
    if not slots:
        raise DomainError(f"no prime of norm <= {bound} is counted for {a}")
    return _vk_counts(a, ell, slots), len(slots), tuple(excluded)


def empirical_density(a: Element, ell: int, bound: int) -> ScanReport:
    """Histogram the order valuations of a over all primes of norm <= bound."""
    if a.is_zero:
        raise DomainError("cannot scan the zero element")
    counts, counted, excluded = _scan_vk(a, ell, bound)
    histogram: dict[int, int] = {}
    for (_, k), c in counts.items():
        histogram[k] = histogram.get(k, 0) + c
    top = max(histogram)
    empirical = {n: Fraction(histogram.get(n, 0), counted) for n in range(top + 1)}
    exact = {n: density(a, ell, n).value for n in range(top + 1)}
    err = max(abs(empirical[n] - exact[n]) for n in range(top + 1))
    return ScanReport(bound, counted, excluded,
                      dict(sorted(histogram.items())), empirical, exact, err)


def split_fraction(a: Element, ell: int, m: int, n: int, bound: int) -> Fraction:
    """Fraction of slots that split completely in K(zeta_{l^m}, a**(1/l**n)).

    A slot of norm q qualifies when q = 1 mod l**m and the reduction of a
    is an l**j-th power with j = min(n, v_l(q - 1)); in (v, k) terms that
    is v >= m and k <= v - j.  By Chebotarev this converges to the
    reciprocal of the total degree, giving an independent check on the
    Kummer degree formulas.
    """
    if not 0 <= n <= m:
        raise DomainError(f"need 0 <= n <= m, got n={n}, m={m}")
    if a.is_zero:
        raise DomainError("cannot scan the zero element")
    counts, counted, _ = _scan_vk(a, ell, bound)
    hits = sum(c for (v, k), c in counts.items()
               if v >= m and k <= v - min(n, v))
    return Fraction(hits, counted)


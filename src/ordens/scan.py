"""Empirical verification by scanning primes of the field.

Primes are enumerated as slots: one slot per degree-one prime (split
rational primes contribute two, one per square root of d mod p) and one
per inert prime entering at norm p**2.  Slots are held as 4-byte columns,
one entry per prime: the split primes ps, the smaller root r of d mod p in
ss (None over Q, where ps is the sieve itself) and the inert primes; a at
the slot p - r is conj(a) at r.  Whether p splits is the Kronecker
character (disc/p), a function of p mod |disc|, so Euler's test runs once
per residue class.  A root takes one pow for p = 3 mod 4, Atkin's formula
for p = 5 mod 8, Tonelli-Shanks otherwise.

A scan condenses each slot into (v, k) = (l-valuation of q - 1, l-valuation
of the reduced element's order), from which both the valuation histogram
and complete-splitting fractions are read off.  Split primes are grouped by
v once per field, bound and l, with e = (p - 1)/l**v beside each p, and
excluded primes are cut out of each group by bisect.  Over a group, C-level
maps reduce a = (u + w*sqrt(d))/den, then conj(a), to red mod p at r.  When
v = 0, l does not divide the order and each slot is (0, 0) with no power.
Otherwise x = red**e has order dividing l**v, and list.count after each
l-th power of x reads the cells k = 0, 1, ... up to v.  Inert slots at odd
p live in F_p[T]/(T**2 - d), one at a time, powered by field._pow.

A scan only counts.  It imports nothing from the density code it checks,
so exact values come from the caller, as in cli's `scan --compare`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, count, repeat
from math import isqrt
from operator import add, itemgetter, mod, mul

from .field import DomainError, Element, FieldSpec, _check_ell, _pow, valuation

# p: the rational prime under the slot; kind: "split" (degree one) or "inert";
# norm: p or p**2; sqrt_d: the residue of sqrt(d) mod p for a split slot of a
# quadratic field, else None.
PrimeSlot = namedtuple("PrimeSlot", "p kind norm sqrt_d")


ScanReport = namedtuple("ScanReport", "bound counted excluded histogram empirical")


# Largest norm bound of a scan, below 2**31 so that columns fit array("i").
# A scan at this bound peaks at 37-45 MB over Q, Q(i) and Q(sqrt 17) (Python
# 3.11, peak RSS of the whole CLI run): the sieve's bytes while it runs, its
# 664,579 primes, the slot columns and the kernel's lists.
MAX_BOUND = 10 ** 7

# (q, the squares mod q) for the odd primes q that Tonelli-Shanks tries as
# its non-residue z; below 10**7 one p = 1 mod 8 needs a larger z.
_SQUARES = tuple((q, frozenset(x * x % q for x in range(q)))
                 for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))


@lru_cache(maxsize=8)
def sieve_primes(bound: int) -> array:
    if bound > MAX_BOUND:
        raise DomainError(f"norm bound {bound} is over the limit of {MAX_BOUND}")
    if bound < 2:
        return array("i")
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return array("i", compress(range(bound + 1), flags))


def _sqrt_mod(n: int, p: int) -> int:
    """A square root of a nonzero residue n mod an odd prime p."""
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    if p % 8 == 5:  # Atkin: with t = (2n)**((p-5)/8), i = 2n*t**2 squares to -1
        t = pow(2 * n, (p - 5) // 8, p)
        return n * t * (2 * n * t * t - 1) % p
    q, s = p - 1, 0  # Tonelli-Shanks
    while q % 2 == 0:
        q //= 2
        s += 1
    # z, the least non-residue, is an odd prime as p = 1 mod 8; (z/p) = (p/z)
    z = next((z for z, squares in _SQUARES if p % z not in squares), None)
    if z is None:  # all of 2 .. the last tabled prime are squares
        z = next(z for z in count(_SQUARES[-1][0] + 1) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, r = s, pow(z, q, p), pow(n, (q + 1) // 2, p)
    t = r * r * pow(n, -1, p) % p  # n**q
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
def _field_slots(field: FieldSpec, bound: int) -> tuple:
    """Columns (ps, ss, inert ps) of the primes of norm <= bound, one entry per p."""
    primes = sieve_primes(bound)
    if field.is_rational:
        return primes, None, ()
    d, disc = field.d, field.discriminant
    ps, ss, inert = array("i"), array("i"), []
    splits: dict[int, bool] = {}  # p mod |disc| -> p splits
    size = abs(disc)
    for p in primes:
        split = splits.get(p % size)
        if split is None:  # p is the first of its class; (disc/2) = 1 iff d = 1 mod 8
            split = splits[p % size] = disc % p != 0 and (
                pow(d % p, (p - 1) // 2, p) == 1 if p > 2 else d % 8 == 1)
        if split:
            r = _sqrt_mod(d % p, p) if p > 2 else 1
            ps.append(p)
            ss.append(min(r, p - r))
        elif p * p <= bound and disc % p:
            inert.append(p)
    return ps, ss, tuple(inert)


def enumerate_slots(field: FieldSpec, norm_bound: int) -> tuple[PrimeSlot, ...]:
    """Primes of the field with norm <= norm_bound, ramified ones skipped."""
    if norm_bound < 2:
        raise DomainError("norm bound must be at least 2")
    ps, ss, inert = _field_slots(field, norm_bound)
    split = (map(PrimeSlot, ps, repeat("split"), ps, repeat(None)) if ss is None else
             (PrimeSlot(p, "split", p, s) for p, r in zip(ps, ss) for s in (r, p - r)))
    inert_slots = (PrimeSlot(p, "inert", p * p, None) for p in inert)
    return tuple(sorted(chain(split, inert_slots), key=itemgetter(0)))


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
    x = _pow((c0, c1), (p * p - 1) // ell ** v, d, p)
    k = 0
    while x != (1, 0):
        k += 1
        if k == v:
            break
        x = _pow(x, ell, d, p)
    return v, k


def _v_groups(ps, ss, ell: int) -> dict[int, tuple]:
    """Split columns by v = v_l(p - 1), per entry: {v: (ps, ss, es)}, e = (p - 1)/l**v."""
    groups: dict[int, tuple] = {}
    for i, p in enumerate(ps):
        e, v = p - 1, 0
        while e % ell == 0:
            e //= ell
            v += 1
        cols = groups.get(v)
        if cols is None:
            cols = groups[v] = (array("i"), None if ss is None else array("i"), array("i"))
        cols[0].append(p)
        cols[2].append(e)
        if ss is not None:
            cols[1].append(ss[i])
    return groups


@lru_cache(maxsize=64)
def _split_groups(field: FieldSpec, bound: int, ell: int) -> dict[int, tuple]:
    ps, ss, _ = _field_slots(field, bound)
    return _v_groups(ps, ss, ell)


def _vk_counts(a: Element, ell: int, groups: dict[int, tuple], inert: list[int]) -> Counter:
    """Count the pairs (v, k) of a over the split slot groups and the inert primes."""
    den, u, w = a.den, a.u, a.w
    rows: dict[int, list[int]] = {}
    for v, (ps, ss, es) in groups.items():
        reds = (map(mod, repeat(u), ps) if ss is None
                else map(mod, map(add, repeat(u), map(mul, repeat(w), ss)), ps))
        if not v:  # l does not divide the order: no power
            xs = list(reds)
        else:
            if den != 1:
                reds = map(mul, reds, map(pow, repeat(den), repeat(-1), ps))
            xs = list(map(pow, reds, es, ps))
        if 0 in xs:  # a unit's power is never 0
            raise DomainError(f"reduction mod {ps[xs.index(0)]} is not a unit")
        row = rows[v] = [0] * (v + 1)
        done = row[0] = xs.count(1) if v else len(xs)
        for k in range(1, v):
            if done == len(xs):
                break
            xs = list(map(pow, xs, repeat(ell), ps))
            row[k] = xs.count(1) - done
            done += row[k]
        row[v] += len(xs) - done
    for p in inert:
        iv, ik = _inert_vk(u, w, den, a.field.d, p, ell)
        rows.setdefault(iv, [0] * (iv + 1))[ik] += 1
    return Counter({(v, k): c for v, row in rows.items()
                    for k, c in enumerate(row) if c})


def _bad_modulus(a: Element, ell: int) -> int:
    """Product sweeping up every prime where reduction could misbehave."""
    u, w = a.u, a.w
    nrm = u if a.field.is_rational else u * u - w * w * a.field.d
    return ell * abs(a.field.discriminant) * a.den * abs(nrm)


def _cut(cols: tuple, excluded: list[int]) -> tuple:
    """The group's columns without the entries of the excluded primes."""
    for p in excluded:  # p is at most one entry of the sorted ps
        i = bisect_left(cols[0], p)
        if i < len(cols[0]) and cols[0][i] == p:
            cols = tuple(None if col is None else col[:i] + col[i + 1:] for col in cols)
    return cols


@lru_cache(maxsize=64)
def _scan_vk(a: Element, ell: int, bound: int) -> tuple[Counter, int, tuple[int, ...]]:
    """(v, k) counts over all good slots, plus counted and excluded primes."""
    _check_ell(ell)
    excluded, rem = [], _bad_modulus(a, ell)
    for p in sieve_primes(bound):
        if p * p > rem:
            break
        if rem % p == 0:
            excluded.append(p)
            rem //= p ** valuation(rem, p)
    if 1 < rem <= bound:  # rem is 1 or a prime here, or has no factor <= bound
        excluded.append(rem)
    groups = {v: _cut(cols, excluded) for v, cols in _split_groups(a.field, bound, ell).items()}
    inert = [p for p in _field_slots(a.field, bound)[2] if p not in excluded]
    split = sum(len(ps) for ps, _, _ in groups.values())
    counted = (split if a.field.is_rational else 2 * split) + len(inert)
    if not counted:
        raise DomainError(f"no prime of norm <= {bound} is counted for {a}")
    counts = _vk_counts(a, ell, groups, inert)
    if not a.field.is_rational:  # a at the slot p - r is conj(a) at r
        counts += _vk_counts(a.conjugate(), ell, groups, [])
    return counts, counted, tuple(excluded)


def empirical_density(a: Element, ell: int, bound: int) -> ScanReport:
    """Histogram the order valuations of a over all primes of norm <= bound.

    The report holds counts and frequencies only; exact values are the caller's.
    """
    if a.is_zero:
        raise DomainError("cannot scan the zero element")
    counts, counted, excluded = _scan_vk(a, ell, bound)
    histogram: dict[int, int] = {}
    for (_, k), c in counts.items():
        histogram[k] = histogram.get(k, 0) + c
    top = max(histogram)
    empirical = {n: Fraction(histogram.get(n, 0), counted) for n in range(top + 1)}
    return ScanReport(bound, counted, excluded, dict(sorted(histogram.items())), empirical)


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


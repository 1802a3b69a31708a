"""Integer utilities behind the periodic-basis constructions.

Divisor subspaces are indexed by the divisors of the signal length and by
residues coprime to each divisor, so everything downstream leans on these
few functions. All of them are pure; the ones built on the factorization
(`totient`, `mobius`, `radical`, `cyclotomic`) factor by trial division, so
they stay cheap for any signal length.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import index

import numpy as np

__all__ = [
    "gcd",
    "totient",
    "mobius",
    "radical",
    "prime_factors",
    "cyclotomic",
    "divisors",
    "residue_sets",
    "lcm_list",
    "positive_int",
    "ResidueSets",
]


def positive_int(n, name: str) -> int:
    """n as an int, required to be an integer (Python or NumPy) >= 1; the
    ValueError names it."""
    try:
        value = index(n)
    except TypeError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    return value


def _checked_n(n, name: str) -> int:
    """positive_int(n), the ValueError naming the calling function."""
    try:
        return positive_int(n, "n")
    except ValueError:
        raise ValueError(f"{name} requires n >= 1, an integer, got {n!r}") from None


def _factorization(n: int, name: str) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of an integer n >= 1, primes ascending, by
    trial division; the ValueError names the calling function."""
    n = _checked_n(n, name)
    factors = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            factors.append((q, e))
        q += 1 if q == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending; () for n = 1."""
    return tuple(q for q, _ in _factorization(n, "prime_factors"))


def totient(n: int) -> int:
    """Euler's totient: count of 1 <= k <= n coprime to n, as
    n * prod over primes q | n of (1 - 1/q)."""
    for q, _ in _factorization(n, "totient"):
        n = n // q * (q - 1)
    return n


def mobius(n: int) -> int:
    """Moebius function: 0 if a square > 1 divides n, else (-1)^(number of
    prime factors)."""
    factors = _factorization(n, "mobius")
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def radical(n: int) -> int:
    """Product of the distinct primes dividing n (1 for n = 1)."""
    return prod(q for q, _ in _factorization(n, "radical"))


def cyclotomic(n: int) -> np.ndarray:
    """Integer coefficients of the n-th cyclotomic polynomial Phi_n, constant
    term first: an int64 array of length totient(n) + 1.

    Phi_n(z) = Phi_r(z^(n/r)) for the radical r of n, and for r > 1
    Phi_r(z) = prod over d | r of (1 - z^d)^mobius(r/d). The numerator
    factors are multiplied out first; each denominator factor then divides
    exactly, as the power series 1 + z^d + z^2d + ..., which is a cumulative
    sum along the residues mod d."""
    r = radical(n)
    if r == 1:
        return np.array([-1, 1], dtype=np.int64)
    poly = np.ones(1, dtype=np.int64)
    ds = divisors(r)
    for d in (d for d in ds if mobius(r // d) == 1):
        poly = np.concatenate([poly, np.zeros(d, np.int64)])
        poly[d:] -= poly[:-d].copy()
    for d in (d for d in ds if mobius(r // d) == -1):
        rows = -(-len(poly) // d)
        series = np.zeros(rows * d, np.int64)
        series[:len(poly)] = poly
        poly = series.reshape(rows, d).cumsum(axis=0).ravel()[:len(poly) - d]
    out = np.zeros(totient(n) + 1, dtype=np.int64)
    out[::n // r] = poly
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of the integer n >= 1, ascending."""
    n = _checked_n(n, "divisors")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True)
class ResidueSets:
    """Coprime residues of n: the full set, its lower half, and the rest.

    For n >= 3 the halves split the full set evenly (totient(n) is even);
    for n in {1, 2} the half set is {1} by convention so every period
    contributes at least one basis slot.
    """

    n: int
    full: tuple[int, ...]
    half: tuple[int, ...]
    complement: tuple[int, ...]


def residue_sets(n: int) -> ResidueSets:
    if n < 1:
        raise ValueError(f"residue_sets requires n >= 1, got {n}")
    full = tuple(k for k in range(1, n + 1) if gcd(k, n) == 1)
    if n <= 2:
        half = (1,)
        complement = tuple(k for k in full if k != 1)
    else:
        half = tuple(k for k in full if k <= n // 2)
        complement = tuple(k for k in full if k > n // 2)
    return ResidueSets(n=n, full=full, half=half, complement=complement)


def half_residues(n: int) -> tuple[int, ...]:
    """Lower coprime residues of n; the (period, residue) pairs that index
    one conjugate-pair subspace each."""
    return residue_sets(n).half


def lcm_list(xs) -> int:
    """Least common multiple of a nonempty collection of positive integers."""
    xs = list(xs)
    if not xs:
        raise ValueError("lcm_list requires at least one value")
    if any(x < 1 for x in xs):
        raise ValueError("lcm_list requires positive integers")
    return lcm(*xs)

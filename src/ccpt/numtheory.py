"""Integer utilities behind the periodic-basis constructions.

Divisor subspaces are indexed by the divisors of the signal length and by
residues coprime to each divisor, so everything downstream leans on these
few functions. All of them are pure and cheap for the matrix sizes this
package targets (N up to a few thousand).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import index

__all__ = [
    "gcd",
    "totient",
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


def totient(n: int) -> int:
    """Euler's totient: count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError(f"totient requires n >= 1, got {n}")
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
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

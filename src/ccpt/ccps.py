"""Complex conjugate pair sums (CCPS) and Ramanujan sums.

A conjugate pair of complex exponentials at frequency 2*pi*k/L can be added
(type-1, a cosine) or subtracted (type-2, a sine) without losing its
periodicity. Those two real-valued sums span the same two-dimensional
subspace as the exponential pair and are the column generators for every
matrix family in this package. Ramanujan sums aggregate the whole coprime
residue set instead of a single pair; they are integers, and are evaluated
exactly by their Moebius expansion.

Every pair-sum sample, here and in `matrices.build_columns`, comes from
one generator, `_pair_sums`.

Closed forms (spectrum, pairwise inner products) are implemented here;
tests check them against direct summation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, gcd, pi, sin

import numpy as np

from .numtheory import divisors, mobius, positive_int

COS = "cos"  # type-1, conjugate pair added
SIN = "sin"  # type-2, conjugate pair subtracted

__all__ = [
    "COS",
    "SIN",
    "CcpsSpec",
    "pair_scale",
    "ccps1",
    "ccps2",
    "ccps",
    "ramanujan_sum",
    "ccps_spectrum",
    "ccps_inner_product",
]


def pair_scale(L: int) -> float:
    """Scale constant of the pair sum: 1/2 for the degenerate lengths 1 and 2
    (where both sums collapse to a single real sequence), 1 otherwise."""
    return 0.5 if L <= 2 else 1.0


def _check_spec(L: int, k: int, kind: str) -> None:
    """Require an integer period L >= 1, an integer residue k >= 1 coprime
    to it, and a pair kind COS or SIN: the one spec rule of every pair sum."""
    L = positive_int(L, "period")
    k = positive_int(k, "residue k")
    if gcd(k, L) != 1:
        raise ValueError(f"residue k={k} is not coprime to L={L}")
    if kind not in (COS, SIN):
        raise ValueError(f"kind must be {COS!r} or {SIN!r}, got {kind!r}")


def _length(length, L: int) -> int:
    """The sample count: L when length is None, else length, an integer >= 0."""
    return L if length is None else positive_int(length, "length", low=0)


def _pair_sums(L, k, n, kind: str) -> np.ndarray:
    """2cos (COS) or 2sin (SIN) of 2*pi*(k*n mod L)/L over broadcast integer
    arrays, reduced before scaling so it is exactly periodic in n and k; for
    L <= 2 both kinds are the single real exponential, 1 or (-1)^n."""
    r = (k * n) % L
    wave = np.cos if kind == COS else np.sin
    return np.where(L <= 2, 1.0 - 2.0 * r, 2.0 * wave((2.0 * pi / L) * r))


@dataclass(frozen=True)
class CcpsSpec:
    """One pair sum: period L, residue k (in the lower coprime half, or 1
    when L <= 2), and kind (COS for type-1, SIN for type-2)."""

    L: int
    k: int
    kind: str

    def __post_init__(self):
        _check_spec(self.L, self.k, self.kind)

    def sequence(self, length: int | None = None) -> np.ndarray:
        return ccps(self.L, self.k, self.kind, length)


def ccps1(L: int, k: int, length: int | None = None) -> np.ndarray:
    """Type-1 pair sum 2M*cos(2*pi*k*n/L), evaluated for n = 0..length-1."""
    return ccps(L, k, COS, length)


def ccps2(L: int, k: int, length: int | None = None) -> np.ndarray:
    """Type-2 pair sum 2*sin(2*pi*k*n/L); for L <= 2 the pair is a single
    real exponential and the sum is the type-1 one, 1 or (-1)^n."""
    return ccps(L, k, SIN, length)


def ccps(L: int, k: int, kind: str, length: int | None = None) -> np.ndarray:
    _check_spec(L, k, kind)
    return _pair_sums(L, k, np.arange(_length(length, L), dtype=np.int64), kind)


def ramanujan_sum(q: int, length: int | None = None) -> np.ndarray:
    """Ramanujan sum c_q(n), the sum of cos(2*pi*k*n/q) over the full
    coprime residue set of q, for n = 0..length-1 (default q), as exact
    integers in a float array: by its Moebius expansion
    c_q(n) = sum over d | gcd(n, q) of mobius(q/d)*d, every d-th sample
    gets mobius(q/d)*d for each divisor d of q."""
    q = positive_int(q, "period")
    total = np.zeros(_length(length, q))
    for d in divisors(q):
        total[::d] += mobius(q // d) * d
    return total


def ccps_spectrum(L: int, l: int, kind: str) -> np.ndarray:
    """Closed-form L-point DFT of one pair sum.

    Type-1 puts the value L at bins l and L-l; type-2 puts -jL at bin l and
    +jL at bin L-l; all other bins are zero. Degenerate lengths keep the
    single surviving bin.
    """
    _check_spec(L, l, kind)
    # l >= 1 is coprime to L, so it is a lower coprime residue when l <= L/2
    if L > 2 and l > L // 2:
        raise ValueError(f"residue l={l} not in the lower coprime half of {L}")
    spec = np.zeros(L, dtype=complex)
    if L <= 2:
        # both kinds collapse to the same single exponential pair
        spec[l % L] = L
        return spec
    if kind == COS:
        spec[l] = L
        spec[L - l] = L
    else:
        spec[l] = -1j * L
        spec[L - l] = 1j * L
    return spec


def ccps_inner_product(spec_a: CcpsSpec, shift_a: int, spec_b: CcpsSpec, shift_b: int) -> float:
    """Closed-form dot product of two circularly shifted pair sums over
    their common period L, when the two specs share (L, k); sums whose
    specs differ are orthogonal over any common period, so the product is 0.

    Same-kind pairs: 2*L*M*cos(2*pi*k*(shift_a - shift_b)/L). Cross-kind
    pairs with L >= 3: 2*L*sin(2*pi*k*(shift_a - shift_b)/L) with the
    type-1 factor's shift first; cross-kind with L <= 2 falls back to the
    same-kind form because the two sums coincide there. The shifts are
    integers of either sign.
    """
    shift_a, shift_b = (positive_int(s, "shift", low=None) for s in (shift_a, shift_b))
    if spec_a.L != spec_b.L or spec_a.k != spec_b.k:
        return 0.0
    L, k = spec_a.L, spec_a.k
    delta = shift_a - shift_b
    if spec_a.kind == spec_b.kind or L <= 2:
        return 2.0 * L * pair_scale(L) * cos(2.0 * pi * k * delta / L)
    if spec_a.kind == COS:  # type-1 times type-2
        return 2.0 * L * sin(2.0 * pi * k * delta / L)
    return 2.0 * L * sin(2.0 * pi * k * (-delta) / L)

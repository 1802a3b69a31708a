"""Radix-2 decimation-in-time fast transform with exact operation counters.

The input is permuted to bit-reversed order and combined stage by stage.
One stage is one pass of array operations over all of its blocks: each
butterfly kind (the K = 0 and K = M/4 edges, the 1 <= K < M/4 interior)
runs for every block at once, with the scalar equations' operations in the
same order, so the output is bit-identical to one butterfly at a time. The
counters add the size of every array multiplied or added.
A size-M block is kept packed the same way the flat coefficient layout
works: slot K holds the cosine accumulator X(K) for 0 <= K <= M/2 and slot
M-K holds the sine accumulator Y(K) for 1 <= K <= M/2-1 (all scaled by M
relative to the coefficients; the final stage divides by N once).

A combine of two size-L blocks into a size-M block (L = M/2, Q = M/4) costs
exactly M-1 real multiplications and 2M-5 real additions for M >= 4, and
1 multiplication and 2 additions for M = 2. The sine accumulators vanish
identically at K = 0 and K = Q, so those butterflies reduce to the short
branches below; products with twiddles 0/1/-1 still count, sign flips and
dropped zero terms do not. At M = 2, Q = 0 and the K = 0 butterfly is the
whole combine. Twiddle tables are precomputed per stage and never counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrices import CCPT1, CCPT2, DFT_NPM, OCCPT, RPT
from .numtheory import positive_int
from .signals import _checked_samples
from .transform import CoefficientSet, _by_parts

__all__ = ["OpCounter", "foccpt", "predicted_counts", "complexity_table"]


@dataclass
class OpCounter:
    real_mults: int = 0
    real_adds: int = 0

    def as_dict(self) -> dict:
        return {"mults": self.real_mults, "adds": self.real_adds}


def _radix2(N: int) -> int | None:
    """v if N = 2^v with v >= 1, the fast transform's sizes, else None."""
    return N.bit_length() - 1 if N >= 2 and N & (N - 1) == 0 else None


@lru_cache(maxsize=16)
def _twiddles(M: int):
    """cos and sin of 2*pi*K/M for K = 0..M/4 (read-only)."""
    K = np.arange(M // 4 + 1)
    out = np.cos(2 * np.pi * K / M), np.sin(2 * np.pi * K / M)
    for a in out:
        a.setflags(write=False)
    return out


def _bit_reversed(N: int) -> np.ndarray:
    """Bit-reversal permutation of 0..N-1 for N = 2^v: index i, written as
    v binary digits, read as an array of shape (2,) * v, transposed so the
    digits come in reverse order."""
    return np.arange(N).reshape((2,) * _radix2(N)).T.ravel()


def _combine(buf: np.ndarray, M: int, ctr: OpCounter) -> None:
    """Combine every pair of adjacent size-M/2 blocks of buf into a size-M
    block, in place: one array operation per butterfly kind, over all
    blocks of the stage at once."""
    B = buf.reshape(-1, M)
    L = M // 2
    h = B[:, :L]
    g = B[:, L:]
    Q = M // 4
    cosv, sinv = _twiddles(M)
    c, s = cosv[1:Q], sinv[1:Q]
    # K runs 1..Q-1 along the columns; the mirrored index L-K runs downwards
    hK, hLK = h[:, 1:Q], h[:, L - 1:L - Q:-1]
    gK, gLK = g[:, 1:Q], g[:, L - 1:L - Q:-1]
    out = np.empty_like(B)
    # cosine side, K = 0: twiddle cos(0) = 1
    t = cosv[0] * g[:, 0]
    ctr.real_mults += t.size
    out[:, 0] = h[:, 0] + t
    out[:, L] = h[:, 0] - t
    ctr.real_adds += 2 * t.size
    # cosine side, 1 <= K <= Q-1
    t1 = c * gK
    t2 = s * gLK
    ctr.real_mults += t1.size + t2.size
    out[:, 1:Q] = hK + t1 - t2
    out[:, L - 1:L - Q:-1] = hK - t1 + t2
    ctr.real_adds += 4 * t1.size
    if Q:
        # cosine side, K = Q: twiddle cos(pi/2) = 0
        t = cosv[Q] * g[:, Q]
        ctr.real_mults += t.size
        out[:, Q] = h[:, Q] + t
        ctr.real_adds += t.size
    # sine side, 1 <= K <= Q-1
    u1 = c * gLK
    u2 = s * gK
    ctr.real_mults += u1.size + u2.size
    out[:, M - 1:M - Q:-1] = hLK + u1 + u2
    out[:, L + 1:L + Q] = -hLK + u1 + u2
    ctr.real_adds += 4 * u1.size
    if Q:
        # sine side, K = Q: twiddle sin(pi/2) = 1
        t = sinv[Q] * g[:, Q]
        ctr.real_mults += t.size
        out[:, M - Q] = t
    B[:] = out


def _foccpt_real(x: np.ndarray, ctr: OpCounter) -> np.ndarray:
    """Coefficients of a real float64 signal, counted on ctr."""
    N = len(x)
    buf = x[_bit_reversed(N)]
    M = 2
    while M <= N:
        _combine(buf, M, ctr)
        M *= 2
    return buf / N


def foccpt(x):
    """Fast orthogonal transform for N = 2^v, v >= 1.

    Returns (coefficients, counter); the coefficients equal occpt_analysis
    bit for bit up to rounding, the counter holds the exact butterfly
    arithmetic (final 1/N scaling and twiddle tables excluded). x must be
    a finite 1-D signal; it is computed in float64, and complex input runs
    two real passes on one shared counter (`transform._by_parts`).
    """
    x = _checked_samples(x, "fast transform")
    N = len(x)
    if _radix2(N) is None:
        raise ValueError(f"fast transform requires a power-of-two length >= 2, got {N}")
    ctr = OpCounter()
    return CoefficientSet(N=N, family=OCCPT, flat=_by_parts(_foccpt_real, x, ctr)), ctr


def predicted_counts(N: int, input_kind: str = "real") -> OpCounter:
    """Closed-form operation counts of the fast transform at N = 2^v, v >= 1."""
    N = positive_int(N, "N")
    v = _radix2(N)
    if v is None:
        raise ValueError(f"counts are defined for power-of-two N >= 2, got {N}")
    if input_kind == "real":
        return OpCounter(real_mults=N * v - N + 1, real_adds=2 * N * v - 7 * N // 2 + 5)
    if input_kind == "complex":
        return OpCounter(real_mults=2 * N * v - 2 * N + 2, real_adds=4 * N * v - 7 * N + 10)
    raise ValueError(f"input_kind must be 'real' or 'complex', got {input_kind!r}")


def complexity_table(N: int) -> list[dict]:
    """Real-operation counts for a complex length-N input, one row per
    transform. Power-of-two sizes use the fast algorithms for the orthogonal
    transform and the DFT; everything else is the direct method. N = 1 is
    the identity and costs nothing."""
    N = positive_int(N, "N")
    v = _radix2(N)
    direct_half = (2 * N * N, 2 * N * N - 2 * N)  # real basis, complex input

    def row(name, mults, adds, method):
        return {"transform": name, "mults": mults, "adds": adds, "method": method}

    if N == 1:
        return [row(name, 0, 0, "direct") for name in (CCPT1, CCPT2, OCCPT, DFT_NPM, RPT)]
    rows = [
        row(CCPT1, *direct_half, "direct"),
        row(CCPT2, *direct_half, "direct"),
    ]
    if v is not None:
        occpt = predicted_counts(N, "complex")
        rows.append(row(OCCPT, occpt.real_mults, occpt.real_adds, "fast"))
        rows.append(row(DFT_NPM, 2 * N * v, 3 * N * v, "fast"))
    else:
        rows.append(row(OCCPT, *direct_half, "direct"))
        rows.append(row(DFT_NPM, 4 * N * N, 4 * N * N - 2 * N, "direct"))
    rows.append(row(RPT, *direct_half, "direct"))
    return rows

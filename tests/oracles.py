"""Independent brute-force oracles shared across the test suite.

Everything here is written from definitions (explicit summation), not by
calling the library's own transform paths. `butterfly_foccpt` is the one
loop reference: the fast transform one butterfly at a time.
`component_loop` reads coefficients through the scalar `pair(p, k)`
accessors and applies the component formulas one subspace at a time, and
`band_filter_loop` applies the band test one column at a time.
"""

from math import gcd, lcm

import numpy as np

from ccpt.foccpt import OpCounter
from ccpt.numtheory import half_residues


def brute_dft(x):
    """O(N^2) DFT by explicit summation."""
    x = np.asarray(x, dtype=complex)
    N = len(x)
    out = np.empty(N, dtype=complex)
    n = np.arange(N)
    for k in range(N):
        out[k] = np.sum(x * np.exp(-2j * np.pi * k * n / N))
    return out


def brute_circular_convolution(a, b):
    """O(N^2) circular convolution by explicit summation."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    N = len(a)
    out = np.zeros(N)
    for n in range(N):
        for l in range(N):
            out[n] += a[l] * b[(n - l) % N]
    return out


def direct_occpt_flat(x):
    """Frequency-ordered orthogonal coefficients straight from the sums."""
    x = np.asarray(x, dtype=float)
    N = len(x)
    n = np.arange(N)
    beta = np.empty(N)
    for K in range(N):
        if K <= N // 2:
            beta[K] = np.sum(x * np.cos(2 * np.pi * K * n / N)) / N
        else:
            beta[K] = -np.sum(x * np.sin(2 * np.pi * K * n / N)) / N
    return beta


def shifted_inner_products(a, b, shifts=5):
    """Direct sums D[la, lb] = np.dot(np.roll(A, la), np.roll(B, lb)) for
    shifts 0..shifts-1 on each side, where A and B tile the one-period
    sequences a and b to their common period: all shifts at once, as one
    product of the stacked rolls."""
    L = lcm(len(a), len(b))
    n = np.arange(L) - np.arange(shifts)[:, None]
    return np.asarray(a)[n % len(a)] @ np.asarray(b)[n % len(b)].T


def tile_to(pattern, length):
    pattern = np.asarray(pattern)
    reps = -(-length // len(pattern))
    return np.tile(pattern, reps)[:length]


def _coprime(p):
    return [k for k in range(1, p + 1) if gcd(k, p) == 1]


def column(kind, p, k, shift, N):
    """One dictionary column of period p, delayed by `shift` samples, tiled
    and truncated to N samples."""
    m = (np.arange(N) - shift) % p
    if kind == "exp":
        return np.exp(2j * np.pi * k * m / p)
    if kind == "ram":
        return sum(np.cos(2 * np.pi * j * m / p) for j in _coprime(p))
    if p <= 2:
        # degenerate pairs: both sums collapse to the constant or (-1)^n
        return np.cos(np.pi * m)
    wave = np.cos if kind == "cos" else np.sin
    return 2.0 * wave(2 * np.pi * k * m / p)


def block_addresses(family, p):
    """(kind, k, shift) of the period-p columns in canonical order."""
    if family == "farey":
        return [("exp", k, 0) for k in _coprime(p)]
    if family == "rpt":
        return [("ram", 0, j) for j in range(len(_coprime(p)))]
    pair = {"occpt": (("cos", 0), ("sin", 0)), "ccpt1": (("cos", 0), ("cos", 1)),
            "ccpt2": (("sin", 0), ("sin", 1))}[family]
    half = [1] if p <= 2 else [k for k in _coprime(p) if k <= p // 2]
    return [(kind, k, shift) for k in half for kind, shift in pair[:1 if p <= 2 else 2]]


def dictionary_oracle(family, N, p_max):
    """(F, periods): the stacked bases of periods 1..p_max in canonical column
    order, every column written from its defining sum."""
    cols, periods = [], []
    for p in range(1, p_max + 1):
        for kind, k, shift in block_addresses(family, p):
            cols.append(column(kind, p, k, shift, N))
            periods.append(p)
    return np.column_stack(cols), np.array(periods)


def weighted_min_norm(F, penalties, x):
    """argmin ||T b|| over the least-squares solutions of F b = x, with
    T = diag(penalties): numpy's lstsq on F T^-1."""
    u, *_ = np.linalg.lstsq(F / penalties, x, rcond=None)
    return u / penalties


def butterfly_foccpt(x):
    """(flat, OpCounter) of the radix-2 fast transform, one butterfly at a
    time: the per-block, per-K loop the stage-vectorised `foccpt` must
    reproduce bit for bit, counters included."""
    x = np.asarray(x)
    ctr = OpCounter()
    if np.iscomplexobj(x):
        flat = _butterfly_real(x.real, ctr) + 1j * _butterfly_real(x.imag, ctr)
    else:
        flat = _butterfly_real(x, ctr)
    return flat, ctr


def _butterfly_real(x, ctr):
    N = len(x)
    v = N.bit_length() - 1
    order = [int(format(i, f"0{v}b")[::-1], 2) for i in range(N)] if v else [0]
    buf = np.asarray(x, dtype=float)[order]
    M = 2
    while M <= N:
        for base in range(0, N, M):
            _butterfly_block(buf, base, M, ctr)
        M *= 2
    return buf / N


def _butterfly_block(buf, base, M, ctr):
    L = M // 2
    h = base
    g = base + L
    if M == 2:
        t = 1.0 * buf[g]
        ctr.real_mults += 1
        a = buf[h]
        buf[h] = a + t
        buf[g] = a - t
        ctr.real_adds += 2
        return
    Q = M // 4
    K = np.arange(Q + 1)
    cosv, sinv = np.cos(2 * np.pi * K / M), np.sin(2 * np.pi * K / M)
    out = np.empty(M)
    # cosine side, K = 0: twiddle cos(0) = 1
    t = cosv[0] * buf[g]
    ctr.real_mults += 1
    out[0] = buf[h] + t
    out[L] = buf[h] - t
    ctr.real_adds += 2
    # cosine side, 1 <= K <= Q-1
    for K in range(1, Q):
        t1 = cosv[K] * buf[g + K]
        t2 = sinv[K] * buf[g + L - K]
        ctr.real_mults += 2
        out[K] = buf[h + K] + t1 - t2
        out[L - K] = buf[h + K] - t1 + t2
        ctr.real_adds += 4
    # cosine side, K = Q: twiddle cos(pi/2) = 0
    t = cosv[Q] * buf[g + Q]
    ctr.real_mults += 1
    out[Q] = buf[h + Q] + t
    ctr.real_adds += 1
    # sine side, 1 <= K <= Q-1
    for K in range(1, Q):
        u1 = cosv[K] * buf[g + L - K]
        u2 = sinv[K] * buf[g + K]
        ctr.real_mults += 2
        out[M - K] = buf[h + L - K] + u1 + u2
        out[L + K] = -buf[h + L - K] + u1 + u2
        ctr.real_adds += 4
    # sine side, K = Q: twiddle sin(pi/2) = 1
    out[M - Q] = sinv[Q] * buf[g + Q]
    ctr.real_mults += 1
    buf[base:base + M] = out


def component_loop(pair, periods, fs=None, min_magnitude=1e-8):
    """(p, k, freq, freq_hz, magnitude, phase) tuples of every subspace
    (p, k), p in `periods`, k in half_residues(p), whose magnitude reaches
    the floor, from the cosine/sine pair `pair(p, k)` one subspace at a
    time: the reference for `frequency_components` and
    `DictionarySolution.components`."""
    out = []
    for p in periods:
        for k in half_residues(p):
            b0, b1 = pair(p, k)
            if p <= 2:
                mag, phase = abs(b0), (0.0 if b0 >= 0 else np.pi)
            else:
                mag, phase = 2.0 * np.hypot(b0, b1), np.arctan2(-b1, b0)
            if mag >= min_magnitude:
                freq = 0.0 if p == 1 else k / p
                out.append((p, k, freq, None if fs is None else freq * fs,
                            float(mag), float(phase)))
    return out


def band_filter_loop(coeffs, fs, low_hz, high_hz):
    """Flat coefficients of `coeffs` with every column outside the band
    zeroed, deciding one column at a time from its address: the reference
    for `band_filter`. A column of subspace (p, k) has frequency
    min(k, p - k)/p * fs (0 for p = 1); a Ramanujan column of period p is
    kept when any line k/p * fs, k over the half residues, is in the band."""
    flat = np.array(coeffs.flat)
    lines = {}
    for i, (col, _) in zip(coeffs.column_order(), coeffs.items()):
        if col.kind == "ram":
            if col.p not in lines:
                lines[col.p] = [k / col.p for k in half_residues(col.p)] if col.p > 1 else [0.0]
            ratios = lines[col.p]
        else:
            ratios = [0.0 if col.p == 1 else min(col.k, col.p - col.k) / col.p]
        if not any(low_hz <= r * fs <= high_hz for r in ratios):
            flat[i] = 0.0
    return flat

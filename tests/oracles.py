"""Independent brute-force oracles shared across the test suite.

Everything here is written from definitions (explicit summation), not by
calling the library's own transform paths.
"""

from math import gcd

import numpy as np


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


def tile_to(pattern, length):
    pattern = np.asarray(pattern)
    reps = -(-length // len(pattern))
    return np.tile(pattern, reps)[:length]


def _coprime(p):
    return [k for k in range(1, p + 1) if gcd(k, p) == 1]


def _dictionary_column(kind, p, k, shift, N):
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


def _block_addresses(family, p):
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
        for kind, k, shift in _block_addresses(family, p):
            cols.append(_dictionary_column(kind, p, k, shift, N))
            periods.append(p)
    return np.column_stack(cols), np.array(periods)


def weighted_min_norm(F, penalties, x):
    """argmin ||T b|| over the least-squares solutions of F b = x, with
    T = diag(penalties): numpy's lstsq on F T^-1."""
    u, *_ = np.linalg.lstsq(F / penalties, x, rcond=None)
    return u / penalties

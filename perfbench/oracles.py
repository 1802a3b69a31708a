"""Independent references for checking ccpt outputs.

Everything here is built from numpy's FFT or from the textbook definitions
of the basis columns; nothing calls into the package under test. Each check
returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

# A relative error above this is a wrong answer, not rounding: the transforms
# agree with the FFT to ~1e-14 at every size the benchmark runs.
COEFF_RTOL = 1e-9
# Reconstruction through an explicitly built (possibly ill-conditioned) basis
# or dictionary; the least-squares fallback at N = 360 fits to ~5e-7.
RESIDUAL_RTOL = 1e-5


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def coprime(p: int) -> list[int]:
    return [k for k in range(1, p + 1) if gcd(k, p) == 1]


def half_residues(p: int) -> list[int]:
    return [1] if p <= 2 else [k for k in coprime(p) if k <= p // 2]


def packed_rfft(x) -> np.ndarray:
    """Orthogonal-transform coefficients from the real FFT: slot K <= N/2
    holds Re X[K]/N and slot N-K holds -Im X[K]/N."""
    x = np.asarray(x, dtype=float)
    N = len(x)
    X = np.fft.rfft(x) / N
    flat = np.empty(N)
    flat[:N // 2 + 1] = X.real
    K = np.arange(1, (N - 1) // 2 + 1)
    flat[N - K] = -X.imag[K]
    return flat


def slot_periods(N: int) -> np.ndarray:
    """Period N/gcd(K, N) of the subspace owning flat slot K."""
    K = np.arange(N)
    return N // np.gcd(K, N)


def divisor_strengths(flat) -> dict[int, float]:
    """Square sum of orthogonal coefficients per divisor period."""
    flat = np.asarray(flat)
    N = len(flat)
    sums = np.bincount(slot_periods(N), weights=np.abs(flat) ** 2, minlength=N + 1)
    return {p: float(sums[p]) for p in divisors(N)}


def column(p: int, k: int, kind: str, shift: int, N: int) -> np.ndarray:
    """One basis column from its definition, tiled (and truncated) to N."""
    m = (np.arange(N) - shift) % p
    if kind == "cos":
        return (1.0 if p <= 2 else 2.0) * np.cos(2 * np.pi * k * m / p)
    if kind == "sin":
        if p == 1:
            return np.ones(N)
        if p == 2:
            return np.where(m == 0, 1.0, -1.0)
        return 2.0 * np.sin(2 * np.pi * k * m / p)
    if kind == "exp":
        return np.exp(2j * np.pi * k * m / p)
    if kind == "ram":
        return _ramanujan(p)[m]
    raise ValueError(f"unknown column kind {kind!r}")


@lru_cache(maxsize=None)
def _ramanujan(p: int) -> np.ndarray:
    t = np.arange(p)
    return sum(np.cos(2 * np.pi * j * t / p) for j in coprime(p))


def block_addresses(family: str, p: int) -> list[tuple[int, int, str, int]]:
    """Column addresses of the period-p block in canonical order."""
    if family in ("dft-npm", "farey"):
        return [(p, k, "exp", 0) for k in coprime(p)]
    if family == "rpt":
        return [(p, 0, "ram", j) for j in range(len(coprime(p)))]
    out = []
    for k in half_residues(p):
        if family == "occpt":
            out.append((p, k, "cos", 0))
            if p >= 3:
                out.append((p, k, "sin", 0))
        else:
            kind = "cos" if family == "ccpt1" else "sin"
            out.append((p, k, kind, 0))
            if p >= 3:
                out.append((p, k, kind, 1))
    return out


def basis(family: str, periods, N: int) -> np.ndarray:
    """Stacked blocks of the given periods, each tiled to length N."""
    cols = [column(*a, N) for p in periods for a in block_addresses(family, p)]
    return np.column_stack(cols)


def block_strengths(addresses, coeffs) -> dict[int, float]:
    """Square sum of coefficients per period, given each one's address."""
    out: dict[int, float] = {}
    for a, v in zip(addresses, coeffs):
        out[a[0]] = out.get(a[0], 0.0) + float(abs(v) ** 2)
    return out


def rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return float("inf")
    scale = max(float(np.max(np.abs(want))) if want.size else 0.0, 1e-300)
    return float(np.max(np.abs(got - want))) / scale if want.size else 0.0


def close(label: str, got, want, rtol: float = COEFF_RTOL) -> list[str]:
    err = rel_err(got, want)
    return [] if err <= rtol else [f"{label}: relative error {err:.3g} > {rtol:g}"]


def residual(label: str, F: np.ndarray, b, x, rtol: float = RESIDUAL_RTOL) -> list[str]:
    """||F b - x|| against ||x||."""
    r = float(np.linalg.norm(F @ np.asarray(b) - x))
    scale = max(float(np.linalg.norm(x)), 1e-300)
    return [] if r <= rtol * scale else [f"{label}: residual {r / scale:.3g} > {rtol:g}"]


def strengths_match(label: str, got: dict, want: dict, rtol: float = COEFF_RTOL) -> list[str]:
    keys = sorted(set(got) | set(want), key=int)
    g = [float(got.get(k, 0.0)) for k in keys]
    w = [float(want.get(k, 0.0)) for k in keys]
    return close(label, g, w, rtol)


def components_match(comps, x, fs: float | None = None) -> list[str]:
    """Frequency components (p, k, magnitude, phase) against FFT bins."""
    x = np.asarray(x, dtype=float)
    N = len(x)
    X = np.fft.rfft(x) / N
    scale = max(float(np.max(np.abs(X))), 1e-300)
    problems = []
    for c in comps:
        if N % c.p:
            return [f"component period {c.p} does not divide N={N}"]
        K = N * c.k // c.p if c.p > 1 else 0
        if c.p <= 2:
            mag, phase = abs(X[K].real), (0.0 if X[K].real >= 0 else np.pi)
        else:
            mag, phase = 2 * abs(X[K]), float(np.angle(X[K]))
        if abs(c.magnitude - mag) > COEFF_RTOL * 2 * scale:
            problems.append(f"component ({c.p},{c.k}) magnitude {c.magnitude!r} != {mag!r}")
        elif mag > 1e-6 * scale and abs(np.angle(np.exp(1j * (c.phase - phase)))) > 1e-6:
            problems.append(f"component ({c.p},{c.k}) phase {c.phase!r} != {phase!r}")
        want_hz = None if fs is None else (c.k / c.p if c.p > 2 else (0.0 if c.p == 1 else 0.5)) * fs
        if want_hz is not None and abs(c.freq_hz - want_hz) > 1e-9 * fs:
            problems.append(f"component ({c.p},{c.k}) at {c.freq_hz} Hz, expected {want_hz}")
        if len(problems) >= 3:
            break
    expected = int(np.sum(np.abs(X) >= 1e-7 * scale)) if scale > 1e-7 else 0
    if len(comps) < expected:
        problems.append(f"{len(comps)} components reported, {expected} bins above the floor")
    return problems


def band_mask(N: int, fs: float, low: float, high: float) -> np.ndarray:
    """Slots of the packed layout whose line frequency K/N*fs lies in band."""
    K = np.arange(N)
    line = np.minimum(K, N - K)
    f = line / N * fs
    return (f >= low) & (f <= high)

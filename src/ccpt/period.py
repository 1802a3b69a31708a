"""Period, frequency and phase estimation.

Divisor-period analysis attributes the square sum of a signal's transform
coefficients to each divisor subspace; periods holding at least a fraction
(default 20%) of the maximum strength are significant, and the period
estimate is their least common multiple.

Non-divisor periods use a fat dictionary stacking the subspace bases of all
candidate periods 1..P_max. The representation x = F b is resolved by the
weighted minimum-norm program min ||T b|| s.t. x = F b, whose closed form
is b = T^-2 F^H (F T^-2 F^H)^-1 x with T = diag(f(p)) per column. The Gram
matrix is factorized once per dictionary and reused across solves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import gcd

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .ccps import COS, SIN
from .matrices import (CCPT1, CCPT2, DFT_NPM, OCCPT, RPT, SubspaceIndex,
                       matrix_rank, subspace_block)
from .numtheory import divisors, lcm_list, totient
from .signals import samples_of
from .transform import CoefficientSet

FAREY = "farey"

GRAM_CONDITION_LIMIT = 1e12

__all__ = [
    "PeriodReport", "FrequencyComponent", "PeriodicDictionary", "DictionarySolution",
    "CandidateReport", "FAREY",
    "period_strengths", "frequency_components", "build_dictionary",
    "dictionary_solve", "min_data_length", "candidate_matrix_solve",
]


@dataclass(frozen=True)
class PeriodReport:
    N: int
    family: str
    strengths: dict
    threshold: float
    significant: tuple[int, ...]
    estimated_period: int
    normalized: bool = False

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "family": self.family,
            "threshold": self.threshold,
            "normalized": self.normalized,
            "strengths": {str(p): float(s) for p, s in sorted(self.strengths.items())},
            "significant": list(self.significant),
            "estimated_period": self.estimated_period,
        }

    def strength_rows(self):
        """(period, strength) rows for the plot-ready CSV."""
        return sorted(self.strengths.items())


def period_strengths(c: CoefficientSet, threshold: float = 0.2,
                     normalized: bool = False) -> PeriodReport:
    """Per-divisor strengths of a coefficient set plus the thresholded
    significant set and its lcm.

    Strengths are raw square sums of the coefficients in each divisor
    subspace; `normalized` divides by the subspace dimension phi(p). An
    all-zero signal has no significant periods and reports period 1.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    sums = np.bincount(c.flat_periods(), weights=np.abs(c.flat) ** 2, minlength=c.N + 1)
    strengths: dict[int, float] = {p: float(sums[p]) for p in divisors(c.N)}
    if normalized:
        strengths = {p: s / totient(p) for p, s in strengths.items()}
    peak = max(strengths.values())
    if peak <= 0.0:
        warnings.warn("all-zero coefficient set: no significant periods, reporting period 1")
        significant: tuple[int, ...] = ()
        estimate = 1
    else:
        significant = tuple(sorted(p for p, s in strengths.items() if s >= threshold * peak))
        estimate = lcm_list(significant)
    return PeriodReport(N=c.N, family=c.family, strengths=strengths, threshold=threshold,
                        significant=significant, estimated_period=estimate,
                        normalized=normalized)


@dataclass(frozen=True)
class FrequencyComponent:
    p: int
    k: int
    freq: float                 # cycles per sample
    freq_hz: float | None
    magnitude: float
    phase: float

    def to_dict(self) -> dict:
        return {"p": self.p, "k": self.k, "freq": self.freq,
                "freq_hz": self.freq_hz, "magnitude": self.magnitude, "phase": self.phase}


def _components(p, k, b0, b1, fs: float | None,
                min_magnitude: float) -> list[FrequencyComponent]:
    """Components of the subspaces (p[i], k[i]) with cosine/sine pairs
    (b0[i], b1[i]) whose magnitude reaches the floor."""
    degenerate = p <= 2
    mag = np.where(degenerate, np.abs(b0), 2.0 * np.hypot(b0, b1))
    phase = np.where(degenerate, np.where(b0 >= 0, 0.0, np.pi), np.arctan2(-b1, b0))
    freq = np.where(p == 1, 0.0, k / p)
    i = np.flatnonzero(mag >= min_magnitude)
    freq_hz = [None] * len(i) if fs is None else (freq[i] * fs).tolist()
    return [FrequencyComponent(p=per, k=res, freq=f, freq_hz=fh, magnitude=mg, phase=ph)
            for per, res, f, fh, mg, ph in zip(p[i].tolist(), k[i].tolist(), freq[i].tolist(),
                                               freq_hz, mag[i].tolist(), phase[i].tolist())]


def frequency_components(c: CoefficientSet, fs: float | None = None,
                         min_magnitude: float = 1e-8) -> list[FrequencyComponent]:
    """One (frequency, magnitude, phase) triple per conjugate subspace with
    magnitude above the floor.

    The phase convention is atan2(-b1, b0), so an input A*cos(2*pi*k*n/p + phi)
    comes back with magnitude A and phase phi.
    """
    if c.family != OCCPT:
        raise ValueError("frequency components require orthogonal-family coefficients")
    if c.is_complex:
        raise ValueError("frequency components are defined for real signals")
    p, k, b0, b1 = c.pairs()
    return _components(p, k, b0, b1, fs, min_magnitude)


def _penalty_fn(penalty):
    if callable(penalty):
        return penalty, getattr(penalty, "__name__", "custom")
    if penalty == "p2":
        return (lambda p: p * p), "p2"
    if penalty == "phi":
        return totient, "phi"
    raise ValueError(f"penalty must be 'p2', 'phi' or a callable, got {penalty!r}")


@dataclass
class PeriodicDictionary:
    """Fat dictionary of subspace bases for periods 1..p_max, tiled to N."""

    N: int
    p_max: int
    family: str
    penalty_name: str
    entries: np.ndarray
    columns: tuple[SubspaceIndex, ...]
    penalties: np.ndarray
    _gram: tuple | None = field(default=None, repr=False)
    _gram_cond: float | None = field(default=None, repr=False)

    @property
    def n_columns(self) -> int:
        return self.entries.shape[1]

    def gram(self):
        """Cholesky factorization of F T^-2 F^H and its condition number,
        built once and cached."""
        if self._gram_cond is None:
            w = 1.0 / self.penalties ** 2
            G = (self.entries * w) @ self.entries.conj().T
            self._gram_cond = float(np.linalg.cond(G))
            if self._gram_cond <= GRAM_CONDITION_LIMIT:
                self._gram = cho_factor(G)
        return self._gram, self._gram_cond


def build_dictionary(N: int, p_max: int, family: str = OCCPT, penalty="p2") -> PeriodicDictionary:
    """Stack the family's subspace bases for every period 1..p_max.

    The dictionary has sum(phi(p)) columns; columns of non-divisor periods
    are truncated mid-period. p_max beyond N duplicates spanned content and
    triggers a warning.
    """
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    if p_max > N:
        warnings.warn(f"p_max={p_max} exceeds the signal length {N}; "
                      "columns beyond N add no new periods")
    fam = DFT_NPM if family == FAREY else family
    if fam not in (OCCPT, CCPT1, CCPT2, RPT, DFT_NPM):
        raise ValueError(f"unknown dictionary family {family!r}")
    fn, name = _penalty_fn(penalty)
    blocks, meta, pens = [], [], []
    for p in range(1, p_max + 1):
        block, cols = subspace_block(fam, p, N)
        blocks.append(block)
        meta.extend(cols)
        pens.extend([float(fn(p))] * block.shape[1])
    return PeriodicDictionary(N=N, p_max=p_max, family=family, penalty_name=name,
                              entries=np.hstack(blocks), columns=tuple(meta),
                              penalties=np.array(pens))


@dataclass(frozen=True)
class DictionarySolution:
    b_hat: np.ndarray
    strengths: dict
    residual: float
    gram_condition: float
    used_fallback: bool
    dictionary: PeriodicDictionary

    def significant_periods(self, rel_threshold: float = 0.01) -> tuple[int, ...]:
        """Periods with strength at least rel_threshold times the maximum
        strength over p >= 2. The weighted minimum-norm solution spreads
        component energies over orders of magnitude, so the floor is
        deliberately low; p = 1 only carries the offset and never changes
        the lcm."""
        ref = max((s for p, s in self.strengths.items() if p >= 2), default=0.0)
        if ref <= 0.0:
            return (1,) if self.strengths.get(1, 0.0) > 0.0 else ()
        return tuple(sorted(p for p, s in self.strengths.items() if s >= rel_threshold * ref))

    def top_periods(self, count: int, include_dc: bool = False) -> tuple[int, ...]:
        ranked = sorted((p for p in self.strengths if include_dc or p >= 2),
                        key=lambda p: -self.strengths[p])
        return tuple(sorted(ranked[:count]))

    def estimated_period(self, rel_threshold: float = 0.01) -> int:
        sig = self.significant_periods(rel_threshold)
        return lcm_list(sig) if sig else 1

    def components(self, fs: float | None = None,
                   min_magnitude: float = 1e-8) -> list[FrequencyComponent]:
        """Frequency/magnitude/phase triples from the dictionary coefficients
        (orthogonal-family dictionaries only)."""
        if self.dictionary.family != OCCPT:
            raise ValueError("component recovery requires an orthogonal-family dictionary")
        pair: dict[tuple[int, int], list[float]] = {}
        for idx, v in zip(self.dictionary.columns, self.b_hat):
            slot = pair.setdefault((idx.p, idx.k), [0.0, 0.0])
            slot[0 if idx.kind == COS else 1] = float(np.real(v))
        keys = sorted(pair)
        p, k = np.array(keys, dtype=int).reshape(-1, 2).T
        b0, b1 = np.array([pair[key] for key in keys]).reshape(-1, 2).T
        return _components(p, k, b0, b1, fs, min_magnitude)

    def pair(self, p: int, k: int):
        d = self.dictionary
        i0 = d.columns.index(SubspaceIndex(p, k, COS))
        if p <= 2:
            return self.b_hat[i0], 0.0
        i1 = d.columns.index(SubspaceIndex(p, k, SIN))
        return self.b_hat[i0], self.b_hat[i1]

    def to_dict(self) -> dict:
        return {
            "N": self.dictionary.N,
            "p_max": self.dictionary.p_max,
            "family": self.dictionary.family,
            "penalty": self.dictionary.penalty_name,
            "strengths": {str(p): float(s) for p, s in sorted(self.strengths.items())},
            "significant": list(self.significant_periods()),
            "estimated_period": self.estimated_period(),
            "residual": self.residual,
            "gram_condition": self.gram_condition,
            "used_fallback": self.used_fallback,
        }

    def strength_rows(self):
        return sorted(self.strengths.items())


def dictionary_solve(x, d: PeriodicDictionary) -> DictionarySolution:
    """Weighted minimum-norm coefficients of x against the dictionary.

    Uses the cached Cholesky factorization of the Gram matrix; if its
    condition exceeds 1e12 the solve falls back to a minimum-norm least
    squares on the penalty-substituted system (u = T b).
    """
    x = samples_of(x)
    if len(x) != d.N:
        raise ValueError(f"signal length {len(x)} does not match dictionary length {d.N}")
    factor, cond = d.gram()
    w = 1.0 / d.penalties ** 2
    if factor is not None:
        y = cho_solve(factor, x.astype(d.entries.dtype if np.iscomplexobj(d.entries) else float))
        b = w * (d.entries.conj().T @ y)
        fallback = False
    else:
        scaled = d.entries / d.penalties
        u, *_ = np.linalg.lstsq(scaled, x, rcond=None)
        b = u / d.penalties
        fallback = True
    strengths: dict[int, float] = {}
    for idx, v in zip(d.columns, b):
        strengths[idx.p] = strengths.get(idx.p, 0.0) + float(np.abs(v) ** 2)
    residual = float(np.linalg.norm(d.entries @ b - x))
    return DictionarySolution(b_hat=b, strengths=strengths, residual=residual,
                              gram_condition=cond, used_fallback=fallback, dictionary=d)


def min_data_length(candidates) -> int:
    """Minimum samples needed to separate a set of candidate integer
    periods: the max of Pi + Pj - gcd(Pi, Pj) over candidate pairs."""
    P = list(candidates)
    if len(P) < 2:
        raise ValueError("need at least two candidate periods")
    if any(p < 1 for p in P):
        raise ValueError("candidate periods must be positive")
    best = 0
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            best = max(best, P[i] + P[j] - gcd(P[i], P[j]))
    return best


@dataclass(frozen=True)
class CandidateReport:
    candidates: tuple[int, ...]
    basis_periods: tuple[int, ...]
    width: int
    rank: int
    full_rank: bool
    strengths: dict
    candidate_strengths: dict

    def to_dict(self) -> dict:
        return {
            "candidates": list(self.candidates),
            "basis_periods": list(self.basis_periods),
            "width": self.width,
            "rank": self.rank,
            "full_rank": self.full_rank,
            "strengths": {str(p): float(s) for p, s in sorted(self.strengths.items())},
            "candidate_strengths": {str(p): float(s)
                                    for p, s in sorted(self.candidate_strengths.items())},
        }


def candidate_matrix_solve(x, candidates, family: str = OCCPT) -> CandidateReport:
    """Square-system period scoring over an explicit candidate set.

    The basis stacks the family's subspace blocks for every divisor of every
    candidate (including non-divisors of the data length). The construction
    is square exactly when the total dimension of those subspaces equals the
    data length, as with the minimum data length of a two-candidate set;
    other candidate sets are rejected.
    """
    x = samples_of(x)
    cand = tuple(sorted(set(int(p) for p in candidates)))
    if not cand:
        raise ValueError("need at least one candidate period")
    basis_periods = tuple(sorted({d for p in cand for d in divisors(p)}))
    width = sum(totient(p) for p in basis_periods)
    if len(x) != width:
        raise ValueError(
            f"data length {len(x)} does not match the basis dimension {width} "
            f"of candidate set {cand}; this construction needs a square system")
    blocks, meta = [], []
    for p in basis_periods:
        block, cols = subspace_block(family, p, width)
        blocks.append(block)
        meta.extend(cols)
    H = np.hstack(blocks)
    rank = matrix_rank(H)
    full = rank == width
    if full:
        z = np.linalg.solve(H, x.astype(H.dtype if np.iscomplexobj(H) else float))
    else:
        warnings.warn(f"candidate basis for {cand} is rank deficient ({rank}/{width}); "
                      "falling back to least squares")
        z, *_ = np.linalg.lstsq(H, x, rcond=None)
    strengths: dict[int, float] = {p: 0.0 for p in basis_periods}
    for idx, v in zip(meta, z):
        strengths[idx.p] += float(np.abs(v) ** 2)
    return CandidateReport(candidates=cand, basis_periods=basis_periods, width=width,
                           rank=rank, full_rank=full, strengths=strengths,
                           candidate_strengths={p: strengths[p] for p in cand})

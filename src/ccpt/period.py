"""Period, frequency and phase estimation.

Divisor-period analysis attributes the square sum of a signal's transform
coefficients to each divisor subspace; periods holding at least a fraction
(default 20%) of the maximum strength are significant, and the period
estimate is their least common multiple.

Non-divisor periods use a fat dictionary stacking the subspace bases of all
candidate periods 1..P_max, built in one pass from their column layout.
The representation x = F b is resolved by the weighted minimum-norm
program min ||T b|| s.t. x = F b, whose closed form is
b = T^-2 F^H (F T^-2 F^H)^-1 x with T = diag(f(p)) per column.

Each dictionary is factored once, by an economic QR of A^H = (F T^-1)^H =
Q R. Then R^H R = F T^-2 F^H, so R is the Cholesky factor of the Gram and
the Gram is never formed; a solve is one triangular solve and one product,
b = T^-1 Q R^-H x. A dictionary without full row rank (numerically, by the
cutoff eps * max(M, N) * sigma_max that least squares uses; always when it
has fewer columns M than samples N) takes the least-squares branch instead:
b = T^-1 Q pinv(R^H) x with a truncated pseudo-inverse computed once from
the same QR, the minimum-norm least-squares solution. The cached Q costs
one more N x M array per dictionary.

Candidate-set scoring solves the same program over a square dictionary:
the stacked blocks of every divisor of every candidate, with as many
columns as samples. It goes through the same cached QR, rank cutoff and
solve as any dictionary; with full rank the weighted minimum-norm solution
is the unique one, so the penalty does not change it. Each candidate set's
dictionary is built once per family and length (the 64 most recent sets);
a rank-deficient one takes the least-squares branch and warns on every call.

Frequency components are named tuples (p, k, freq, freq_hz, magnitude,
phase), one per conjugate subspace above a magnitude floor. The list is
built in one pass over the coefficient arrays, each tuple straight from its
zipped row; a component compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from math import gcd
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs, pinv, qr, svdvals

from .ccps import COS, SIN
from .matrices import (CCPT1, CCPT2, DFT_NPM, OCCPT, RPT, ColumnLayout, SubspaceIndex,
                       block_layout, build_columns, column_layout)
from .numtheory import divisors, lcm_list, positive_int, totient
from .signals import _checked_rate, _checked_samples
from .transform import CoefficientSet

FAREY = "farey"

__all__ = [
    "PeriodReport", "FrequencyComponent", "PeriodicDictionary", "GramFactor",
    "DictionarySolution", "CandidateReport", "FAREY",
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
    strengths = _strengths(column_layout(c.family, c.N).periods, c.column_values(),
                           divisors(c.N))
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


class FrequencyComponent(NamedTuple):
    """Frequency, magnitude and phase of one conjugate subspace (p, k)."""

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
    if fs is not None:
        fs = _checked_rate(fs)
    degenerate = p <= 2
    mag = np.where(degenerate, np.abs(b0), 2.0 * np.hypot(b0, b1))
    phase = np.where(degenerate, np.where(b0 >= 0, 0.0, np.pi), np.arctan2(-b1, b0))
    freq = np.where(p == 1, 0.0, k / p)
    i = np.flatnonzero(mag >= min_magnitude)
    freq_hz = [None] * len(i) if fs is None else (freq[i] * fs).tolist()
    # tuple.__new__ on each zipped row skips the per-field keyword call
    rows = zip(p[i].tolist(), k[i].tolist(), freq[i].tolist(), freq_hz, mag[i].tolist(),
               phase[i].tolist())
    return list(map(tuple.__new__, repeat(FrequencyComponent), rows))


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


def _penalties(penalty: str, periods: np.ndarray) -> np.ndarray:
    """Penalty f(p) of each column, given the columns' periods."""
    if penalty == "p2":
        return (periods * periods).astype(float)
    if penalty == "phi":
        # every block of period p has phi(p) columns
        return np.bincount(periods)[periods].astype(float)
    raise ValueError(f"penalty must be 'p2' or 'phi', got {penalty!r}")


@dataclass(frozen=True)
class GramFactor:
    """Economic QR of (F T^-1)^H = Q R for a dictionary with M columns and
    N rows: Q is M x K with orthonormal columns and R is K x N upper
    triangular (Fortran order, so triangular solves use it in place), with
    K = min(M, N). R^H R is the Gram F T^-2 F^H."""

    Q: np.ndarray
    R: np.ndarray
    singular_values: np.ndarray     # of R, descending
    rank: int
    pinv: np.ndarray | None         # truncated pinv(R^H) without full row rank

    @property
    def condition(self) -> float:
        """2-norm condition of the Gram, (sigma_max / sigma_min)^2 of R;
        infinite when the Gram is singular."""
        s = self.singular_values
        if len(s) < self.R.shape[1] or s[-1] == 0.0:
            return float("inf")
        return float((s[0] / s[-1]) ** 2)


@dataclass
class PeriodicDictionary:
    """Stacked subspace bases tiled to N: the fat dictionary of periods
    1..p_max, or the square basis of a candidate set (`p_max` its largest
    candidate)."""

    N: int
    p_max: int
    family: str
    penalty_name: str
    entries: np.ndarray
    layout: ColumnLayout            # column addresses of the blocks
    penalties: np.ndarray
    _factor: GramFactor | None = field(default=None, repr=False)

    @property
    def n_columns(self) -> int:
        return self.entries.shape[1]

    @property
    def columns(self) -> tuple[SubspaceIndex, ...]:
        return self.layout.columns

    @property
    def periods(self) -> np.ndarray:
        """Period of each column (read-only)."""
        return self.layout.periods

    def gram(self) -> GramFactor:
        """QR factorization of the penalty-scaled dictionary, built once and
        cached; see the module docstring."""
        if self._factor is None:
            # (F T^-1)^H comes out Fortran-ordered, so QR overwrites it in place
            Q, R = qr(self.entries.conj().T / self.penalties[:, None], mode="economic",
                      overwrite_a=True)
            R = np.asfortranarray(R)
            s = svdvals(R, check_finite=False)
            cutoff = np.finfo(float).eps * max(self.n_columns, self.N) * s[0]
            rank = int(np.count_nonzero(s > cutoff))
            P = None
            if rank < self.N:
                P = pinv(R.conj().T, atol=cutoff, rtol=0.0, check_finite=False)
            self._factor = GramFactor(Q=Q, R=R, singular_values=s, rank=rank, pinv=P)
        return self._factor


def build_dictionary(N: int, p_max: int, family: str = OCCPT, penalty="p2") -> PeriodicDictionary:
    """Stack the family's subspace bases for every period 1..p_max.

    The dictionary has sum(phi(p)) columns; columns of non-divisor periods
    are truncated mid-period. p_max beyond N duplicates spanned content and
    triggers a warning.
    """
    N = positive_int(N, "dictionary length N")
    p_max = positive_int(p_max, "p_max")
    if p_max > N:
        warnings.warn(f"p_max={p_max} exceeds the signal length {N}; "
                      "columns beyond N add no new periods")
    fam = DFT_NPM if family == FAREY else family
    if fam not in (OCCPT, CCPT1, CCPT2, RPT, DFT_NPM):
        raise ValueError(f"unknown dictionary family {family!r}")
    layout = block_layout(fam, range(1, p_max + 1))
    penalties = _penalties(penalty, layout.periods)
    return PeriodicDictionary(N=N, p_max=p_max, family=family, penalty_name=penalty,
                              entries=build_columns(layout, N), layout=layout,
                              penalties=penalties)


@dataclass(frozen=True)
class DictionarySolution:
    b_hat: np.ndarray
    strengths: dict
    residual: float
    gram_condition: float       # GramFactor.condition; infinite for a singular Gram
    used_fallback: bool         # the least-squares branch ran (no full row rank)
    dictionary: PeriodicDictionary

    def significant_periods(self) -> tuple[int, ...]:
        """Periods with strength at least 1% of the maximum strength over
        p >= 2. The weighted minimum-norm solution spreads component
        energies over orders of magnitude, so the floor is deliberately low;
        p = 1 only carries the offset and never changes the lcm."""
        ref = max((s for p, s in self.strengths.items() if p >= 2), default=0.0)
        if ref <= 0.0:
            return (1,) if self.strengths.get(1, 0.0) > 0.0 else ()
        return tuple(sorted(p for p, s in self.strengths.items() if s >= 0.01 * ref))

    def top_periods(self, count: int) -> tuple[int, ...]:
        """The `count` strongest periods p >= 2, ascending."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        ranked = sorted((p for p in self.strengths if p >= 2), key=lambda p: -self.strengths[p])
        return tuple(sorted(ranked[:count]))

    def estimated_period(self) -> int:
        sig = self.significant_periods()
        return lcm_list(sig) if sig else 1

    def components(self, fs: float | None = None,
                   min_magnitude: float = 1e-8) -> list[FrequencyComponent]:
        """Frequency/magnitude/phase triples from the dictionary coefficients
        (orthogonal-family dictionaries only)."""
        return _components(*self.dictionary.layout.pairs(self.b_hat.real), fs, min_magnitude)

    def pair(self, p: int, k: int):
        """(cosine, sine) coefficients of subspace (p, k); the sine is 0.0
        for p <= 2."""
        column_index = self.dictionary.layout.column_index
        try:
            i0 = column_index(p, k, COS)
            if p <= 2:
                return self.b_hat[i0], 0.0
            i1 = column_index(p, k, SIN)
        except KeyError:
            raise ValueError(f"no subspace ({p}, {k}) in the "
                             f"{self.dictionary.family} dictionary") from None
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
            # JSON has no infinity: a singular Gram reports null
            "gram_condition": self.gram_condition if np.isfinite(self.gram_condition) else None,
            "used_fallback": self.used_fallback,
        }

    def strength_rows(self):
        return sorted(self.strengths.items())


def _coefficients(f: GramFactor, x: np.ndarray, penalties: np.ndarray) -> np.ndarray:
    """Weighted minimum-norm coefficients b = T^-1 Q R^-H x from a
    dictionary's factor, through the truncated pseudo-inverse without full
    row rank."""
    if f.pinv is None:
        # the LAPACK routine under solve_triangular, without its wrapper;
        # picked from both dtypes, so a complex x also solves against a real R
        trtrs, = get_lapack_funcs(("trtrs",), (f.R, x))
        y, info = trtrs(f.R, x, lower=0, trans=2)
        if info:
            raise np.linalg.LinAlgError(f"triangular solve failed (trtrs info {info})")
        u = f.Q @ y
    else:
        u = f.Q @ (f.pinv @ x)
    return u / penalties


def _strengths(column_periods: np.ndarray, b: np.ndarray, periods) -> dict:
    """Square sum of the coefficients of each of `periods`, given the period
    of each column."""
    sums = np.bincount(column_periods, weights=np.abs(b) ** 2)
    return {p: float(sums[p]) for p in periods}


def dictionary_solve(x, d: PeriodicDictionary) -> DictionarySolution:
    """Weighted minimum-norm coefficients of x against the dictionary.

    Uses the dictionary's cached QR factorization (`PeriodicDictionary.gram`):
    one triangular solve when the dictionary has full row rank, otherwise the
    minimum-norm least-squares solution through the cached truncated
    pseudo-inverse (`used_fallback`). x must be a finite 1-D signal of the
    dictionary's length.
    """
    x = _checked_samples(x, "dictionary_solve")
    if len(x) != d.N:
        raise ValueError(f"signal length {len(x)} does not match dictionary length {d.N}")
    f = d.gram()
    b = _coefficients(f, x, d.penalties)
    strengths = _strengths(d.periods, b, range(1, d.p_max + 1))
    residual = float(np.linalg.norm(d.entries @ b - x))
    return DictionarySolution(b_hat=b, strengths=strengths, residual=residual,
                              gram_condition=f.condition, used_fallback=f.pinv is not None,
                              dictionary=d)


def min_data_length(candidates) -> int:
    """Minimum samples needed to separate a set of candidate integer
    periods: the max of Pi + Pj - gcd(Pi, Pj) over candidate pairs."""
    P = [positive_int(p, "candidate period") for p in candidates]
    if len(P) < 2:
        raise ValueError("need at least two candidate periods")
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


@lru_cache(maxsize=64)
def _candidate_dictionary(cand: tuple[int, ...], family: str,
                          n: int) -> tuple[tuple[int, ...], PeriodicDictionary]:
    """Block periods (every divisor of every candidate, ascending) and square
    dictionary of a sorted candidate set for data length n; the dictionary
    caches its factor on the first solve. A length other than the
    dictionary's width is rejected before anything is built, and the error
    is not cached."""
    periods = tuple(sorted({d for p in cand for d in divisors(p)}))
    layout = block_layout(family, periods)
    width = len(layout.periods)
    if n != width:
        raise ValueError(
            f"data length {n} does not match the basis dimension {width} "
            f"of candidate set {cand}; this construction needs a square system")
    entries = build_columns(layout, width)
    entries.setflags(write=False)
    d = PeriodicDictionary(N=width, p_max=cand[-1], family=family, penalty_name="p2",
                           entries=entries, layout=layout,
                           penalties=_penalties("p2", layout.periods))
    return periods, d


def candidate_matrix_solve(x, candidates, family: str = OCCPT) -> CandidateReport:
    """Square-system period scoring over an explicit candidate set.

    The basis stacks the family's subspace blocks for every divisor of every
    candidate (including non-divisors of the data length). The construction
    is square exactly when the total dimension of those subspaces equals the
    data length, as with the minimum data length of a two-candidate set;
    other candidate sets are rejected. The square basis is solved as a
    dictionary (`PeriodicDictionary.gram`), so a rank-deficient one takes
    the least-squares branch.
    """
    x = _checked_samples(x, "candidate_matrix_solve")
    cand = tuple(sorted({positive_int(p, "candidate period") for p in candidates}))
    if not cand:
        raise ValueError("need at least one candidate period")
    periods, d = _candidate_dictionary(cand, family, len(x))
    f = d.gram()
    full_rank = f.pinv is None
    if not full_rank:
        warnings.warn(f"candidate basis for {cand} is rank deficient "
                      f"({f.rank}/{d.N}); falling back to least squares")
    strengths = _strengths(d.periods, _coefficients(f, x, d.penalties), periods)
    return CandidateReport(candidates=cand, basis_periods=periods, width=d.N, rank=f.rank,
                           full_rank=full_rank, strengths=strengths,
                           candidate_strengths={p: strengths[p] for p in cand})

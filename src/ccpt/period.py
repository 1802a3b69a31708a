"""Period, frequency and phase estimation.

Divisor-period analysis attributes the square sum of a signal's transform
coefficients to each divisor subspace; periods holding at least a fraction
(default 20%) of the maximum strength are significant, and the period
estimate is their least common multiple.

Non-divisor periods use a fat dictionary stacking the subspace bases of all
candidate periods 1..P_max. The representation x = F b is resolved by the
weighted minimum-norm program min ||T b|| s.t. x = F b, whose closed form
is b = T^-2 F^H (F T^-2 F^H)^-1 x with T = diag(f(p)) per column.

Each dictionary is factored once, by an economic QR of A^H = (F T^-1)^H =
Q R. Then R^H R = F T^-2 F^H, so R is the Cholesky factor of the Gram and
the Gram is never formed; a solve is one triangular solve and one product,
b = T^-1 Q R^-H x. A dictionary without full row rank (numerically, by the
cutoff eps * max(M, N) * sigma_max that least squares uses; always when it
has fewer columns M than samples N) takes the least-squares branch instead:
b = T^-1 Q pinv(R^H) x with a truncated pseudo-inverse computed once from
the same QR, the minimum-norm least-squares solution. The cached Q costs
one more N x M array per dictionary.

Candidate-set scoring solves one square system against the stacked bases
of every divisor of every candidate. As with dictionaries, each candidate
set's basis is built once per family and cached with its rank and LU factor
(the 64 most recent sets), so a solve is one LU back-substitution; a
rank-deficient basis takes least squares and warns on every call.

Frequency components are named tuples (p, k, freq, freq_hz, magnitude,
phase), one per conjugate subspace above a magnitude floor. The list is
built in one pass over the coefficient arrays, each tuple straight from its
zipped row; a component compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from math import gcd
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs, pinv, qr, svdvals

from .ccps import COS, SIN
from .matrices import (CCPT1, CCPT2, DFT_NPM, OCCPT, RPT, SubspaceIndex,
                       matrix_rank, subspace_block)
from .numtheory import divisors, lcm_list, totient
from .signals import _checked_samples
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


def _penalty_fn(penalty):
    if callable(penalty):
        return penalty, getattr(penalty, "__name__", "custom")
    if penalty == "p2":
        return (lambda p: p * p), "p2"
    if penalty == "phi":
        return totient, "phi"
    raise ValueError(f"penalty must be 'p2', 'phi' or a callable, got {penalty!r}")


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
    """Fat dictionary of subspace bases for periods 1..p_max, tiled to N."""

    N: int
    p_max: int
    family: str
    penalty_name: str
    entries: np.ndarray
    columns: tuple[SubspaceIndex, ...]
    penalties: np.ndarray
    periods: np.ndarray             # period of each column
    _factor: GramFactor | None = field(default=None, repr=False)

    @property
    def n_columns(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def _column_index(self) -> dict:
        return {c: i for i, c in enumerate(self.columns)}

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
                              penalties=np.array(pens), periods=np.array([c.p for c in meta]))


@dataclass(frozen=True)
class DictionarySolution:
    b_hat: np.ndarray
    strengths: dict
    residual: float
    gram_condition: float       # GramFactor.condition; infinite for a singular Gram
    used_fallback: bool         # the least-squares branch ran (no full row rank)
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
        cols = self.dictionary.columns
        p = self.dictionary.periods
        k = np.array([c.k for c in cols])
        cos = np.array([c.kind == COS for c in cols])
        # cosine and sine columns, each sorted by (p, k); only p >= 3 has a sine
        i0, i1 = np.flatnonzero(cos), np.flatnonzero(~cos)
        i0 = i0[np.lexsort((k[i0], p[i0]))]
        i1 = i1[np.lexsort((k[i1], p[i1]))]
        b = self.b_hat.real
        b1 = np.zeros(len(i0))
        b1[p[i0] >= 3] = b[i1]
        return _components(p[i0], k[i0], b[i0], b1, fs, min_magnitude)

    def pair(self, p: int, k: int):
        """(cosine, sine) coefficients of subspace (p, k); the sine is 0.0
        for p <= 2."""
        index = self.dictionary._column_index
        try:
            i0 = index[SubspaceIndex(p, k, COS)]
            if p <= 2:
                return self.b_hat[i0], 0.0
            i1 = index[SubspaceIndex(p, k, SIN)]
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
    b = u / d.penalties
    sums = np.bincount(d.periods, weights=np.abs(b) ** 2, minlength=d.p_max + 1)
    strengths = {p: float(sums[p]) for p in range(1, d.p_max + 1)}
    residual = float(np.linalg.norm(d.entries @ b - x))
    return DictionarySolution(b_hat=b, strengths=strengths, residual=residual,
                              gram_condition=f.condition, used_fallback=f.pinv is not None,
                              dictionary=d)


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


class _CandidateBasis(NamedTuple):
    """The square basis of one candidate set, built once per set and family."""

    periods: tuple[int, ...]        # every divisor of every candidate, ascending
    width: int
    H: np.ndarray                   # read-only, width x width
    rank: int
    lu: tuple | None                # (LU, pivots, getrs) when H has full rank
    column_periods: np.ndarray      # period of each column of H


@lru_cache(maxsize=64)
def _candidate_basis(cand: tuple[int, ...], family: str, n: int) -> _CandidateBasis:
    """Basis, rank and LU factor of a sorted candidate set for data length
    n; a length other than the basis dimension is rejected before anything
    is built, and the error is not cached."""
    periods = tuple(sorted({d for p in cand for d in divisors(p)}))
    width = sum(totient(p) for p in periods)
    if n != width:
        raise ValueError(
            f"data length {n} does not match the basis dimension {width} "
            f"of candidate set {cand}; this construction needs a square system")
    blocks = [subspace_block(family, p, width) for p in periods]
    H = np.hstack([block for block, _ in blocks])
    H.setflags(write=False)
    rank = matrix_rank(H)
    lu = None
    if rank == width:
        getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (H,))
        LU, piv, _ = getrf(H)
        LU.setflags(write=False)
        lu = (LU, piv, getrs)
    column_periods = np.array([c.p for _, cols in blocks for c in cols])
    return _CandidateBasis(periods, width, H, rank, lu, column_periods)


def candidate_matrix_solve(x, candidates, family: str = OCCPT) -> CandidateReport:
    """Square-system period scoring over an explicit candidate set.

    The basis stacks the family's subspace blocks for every divisor of every
    candidate (including non-divisors of the data length). The construction
    is square exactly when the total dimension of those subspaces equals the
    data length, as with the minimum data length of a two-candidate set;
    other candidate sets are rejected.
    """
    x = _checked_samples(x, "candidate_matrix_solve")
    cand = tuple(sorted(set(int(p) for p in candidates)))
    if not cand:
        raise ValueError("need at least one candidate period")
    basis = _candidate_basis(cand, family, len(x))
    # a real basis solves a complex signal's real and imaginary parts as two
    # right-hand sides
    split = np.iscomplexobj(x) and not np.iscomplexobj(basis.H)
    rhs = np.column_stack([x.real, x.imag]) if split else x
    if basis.lu is not None:
        LU, piv, getrs = basis.lu
        z, _ = getrs(LU, piv, rhs)
    else:
        warnings.warn(f"candidate basis for {cand} is rank deficient "
                      f"({basis.rank}/{basis.width}); falling back to least squares")
        z, *_ = np.linalg.lstsq(basis.H, rhs, rcond=None)
    if split:
        z = z[:, 0] + 1j * z[:, 1]
    sums = np.bincount(basis.column_periods, weights=np.abs(z) ** 2)
    strengths = {p: float(sums[p]) for p in basis.periods}
    return CandidateReport(candidates=cand, basis_periods=basis.periods, width=basis.width,
                           rank=basis.rank, full_rank=basis.lu is not None,
                           strengths=strengths,
                           candidate_strengths={p: strengths[p] for p in cand})

"""Period, frequency and phase estimation.

Divisor-period analysis attributes the square sum of a signal's transform
coefficients to each divisor subspace; periods holding at least a fraction
(default 20%) of the maximum strength are significant, and the period
estimate is their least common multiple. One significance rule,
`_significant`, makes every cut: the periods whose strength reaches a
fraction of the peak over periods >= a first one (divisor reports: their
threshold from period 1; dictionary solutions: 1% from period 2).

Every period answer reads the block plan of its column layout
(`ColumnLayout`), built once per layout and kept: the ascending block
periods, each column's block index and each block's width phi(p). One rule,
`_strengths`, turns coefficients in column order into the strength of each
block period with one bincount over that index; divisor reports, dictionary
solutions and candidate sets all use it, and the normalized strengths, the
significant sets and their lcm are worked out from its value list, so no
call re-derives divisors or totients. Its mapping is read-only
(`types.MappingProxyType`), so no answer can be edited after the fact;
`to_dict()` spells it for JSON.

Non-divisor periods use a fat dictionary stacking the subspace bases of all
candidate periods 1..P_max, addressed by their column layout. Every
dictionary, of periods 1..P_max or of a candidate set, comes from one
constructor (farey names the dft-npm blocks). A dictionary is an immutable
value that stores each fact once: its family, penalty name, length N and
layout. p_max, the read-only penalties, the factor and the read-only
entries (the blocks tiled to N, built only when read) derive from them,
so `dataclasses.replace` gives a new, consistent dictionary that factors
itself, and a derived name given to it raises. The report values store
their independent facts the same way and derive the rest: a divisor
report derives its length N (the last divisor period) and significant
set, a candidate report its width (the sum of phi(p) over the basis
periods).
The representation x = F b is resolved by the weighted minimum-norm
program min ||T b|| s.t. x = F b, whose closed form is
b = T^-2 F^H (F T^-2 F^H)^-1 x with T = diag(f(p)) per column.

Each dictionary is factored once, in real arithmetic, by an economic QR of
a real M x N matrix A^T = Q R whose Gram A A^T is F T^-2 F^H. The factor
builds its columns with `build_columns` for the QR only, so no solve of
any family builds or keeps the entries. For the real families A is F T^-1,
the dictionary's own columns. A dft-npm (Farey) block is complex, but the
occpt pair 2 cos, 2 sin of a residue k spans the same plane as e_k,
e_(p-k): a 2cos + c 2sin = (a - jc) e_k + (a + jc) e_(p-k), whose
weighted norm f(p)^2 (|a - jc|^2 + |a + jc|^2) is
(sqrt(2) f(p))^2 (a^2 + c^2). So a Farey A is the occpt columns of the same
blocks, divided by sqrt(2) f(p) for p >= 3 and f(p) for the shared
columns of periods 1 and 2. Then R^T R = F T^-2 F^H, so R is the Cholesky
factor of the Gram and the Gram is never formed; a solve is one triangular
solve and one product, u = Q R^-T x, and b = T^-1 u for the real families.
A Farey solve divides u by its own scale, then maps each occpt pair (a, c)
(`ColumnLayout.pairs`) onto the exponentials: b_k = a - jc at the residue
k < p/2 and b_(p-k) = a + jc at its conjugate (`_conjugate_positions`), and
b = a for periods 1 and 2. Every solve is real: a signal enters as float64
or complex128 (`signals._double`), and a complex one solves its real and
imaginary parts in turn (`transform._by_parts`), so each part is one real
triangular solve, or one real product with the pseudo-inverse below.

A factor (`GramFactor`) stores only Q and R, and makes its one rank
decision when it is made. Full row rank is certified without an SVD:
LAPACK's trcon estimates the reciprocal 1-norm condition rcond of the
square R in O(N^2), and rcond > eps * max(M, N) (the cutoff ratio least
squares uses) settles it. Otherwise, and always when the dictionary has
fewer columns M than samples N, one SVD of R decides: the rank counts the
singular values above eps * max(M, N) * sigma_max, and a dictionary
without full row rank takes the least-squares branch, u = Q pinv(R^T) x
with the truncated pseudo-inverse built once from that same SVD, the
minimum-norm least-squares solution (the pair map from u to T b is
unitary, so it keeps the norm minimal). Its rank, pseudo-inverse and
condition derive from R that way, so they cannot disagree. The cached Q
is the one real M x N array a factored dictionary holds. The reported
residual ||F b - x|| is taken on the dictionary's own entries, complex for Farey,
as an independent check of the solve. It costs a full N x M product, as
much as the solve itself, so a solution computes it on first read and
keeps it (building the dictionary's entries then); its value is the
same as if it had been computed during the solve. The solution holds a
read-only copy of the signal and read-only coefficients, so the residual
always belongs to the coefficients it returns.

Candidate-set scoring solves the same program over the dictionary of the
stacked blocks of every divisor of every candidate, tiled to any length n
at least its width (the number of its columns). It goes through the same
cached QR, rank cutoff and solve as any dictionary: at n = width the
triangular solve, and past it the least-squares branch, which fits all n
samples. With full column rank the least-squares solution is the unique
one, so the penalty does not change it. Each candidate set's dictionary is
built once per family and length (the 64 most recent sets); one without
full column rank warns on every call.

Frequency components come as a `ComponentTable`, one row per conjugate
subspace above a magnitude floor: read-only columns p, k, freq, freq_hz
(None without a sample rate), magnitude and phase, straight from the vector
math. A coefficient set and a dictionary solution read their cosine/sine
pairs the same way, through their column layout: `ColumnLayout.pair_columns`
finds the pair of one subspace, and `ColumnLayout.pairs` splits a whole
coefficient vector. One function builds the table of both, from real
orthogonal-family coefficients only, with the pair frequencies and the
count of degenerate pairs (periods 1 and 2, which lead every ascending
layout) that the layout keeps. The table is also a sequence of
`FrequencyComponent` named tuples, each built when it is read, so a call
holds no records: `list(table)` gives them all, and
`[c.to_dict() for c in table]` spells them for JSON. A record compares
equal to the plain tuple of its fields.

The dataclasses here that hold arrays (`ComponentTable`, `GramFactor`,
`PeriodicDictionary`, `DictionarySolution`) keep read-only views of them
and pickle through their constructors, so an unpickled value is read-only
too and derives its caches (and a factor its rank decision) anew; all but
the table compare and hash by identity. The reports (`PeriodReport`,
`CandidateReport`) compare and hash by value, through one hash over their
dataclass fields (`_value_hash`).
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from math import gcd, lcm
from operator import eq
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs, qr, svd

from .matrices import (DFT_NPM, FAMILIES, OCCPT, ColumnLayout, SubspaceIndex, _ArrayValue,
                       _require_orthogonal, _require_real, build_columns, column_layout)
from .numtheory import divisors, positive_int, totient
from .signals import _checked_real, _checked_samples
from .transform import CoefficientSet, _by_parts

FAREY = "farey"

__all__ = [
    "PeriodReport", "FrequencyComponent", "ComponentTable", "PeriodicDictionary", "GramFactor",
    "DictionarySolution", "CandidateReport", "FAREY",
    "period_strengths", "frequency_components", "build_dictionary",
    "dictionary_solve", "min_data_length", "candidate_matrix_solve",
]


def _value_hash(self) -> int:
    """Hash of a report by the values of its dataclass fields; a mapping
    hashes as the set of its items, since equal mappings may list them in
    any order."""
    return hash(tuple(frozenset(v.items()) if isinstance(v, Mapping) else v
                      for v in (getattr(self, f.name) for f in fields(self))))


def _significant(strengths, fraction: float, first: int = 1) -> tuple[int, ...]:
    """The periods, ascending, whose strength reaches `fraction` of the peak
    over periods >= `first`, or of the overall peak when that one is 0; none
    when every strength is 0. The one significance rule of divisor reports
    and dictionary solutions; the peak is taken by period, not by position."""
    peak = max((s for p, s in strengths.items() if p >= first), default=0.0)
    peak = peak or max(strengths.values())
    if peak <= 0.0:
        return ()
    cut = fraction * peak
    return tuple(p for p, s in strengths.items() if s >= cut)


@dataclass(frozen=True)
class PeriodReport:
    """Divisor-period strengths (a read-only mapping) of a coefficient set,
    its family, threshold and normalization. Derived: `N` (the last divisor
    period), the significant set at the threshold and its lcm. Compares and
    hashes by value."""

    family: str
    strengths: MappingProxyType
    threshold: float
    normalized: bool = False

    __hash__ = _value_hash

    @property
    def N(self) -> int:
        return next(reversed(self.strengths))

    @property
    def significant(self) -> tuple[int, ...]:
        """Periods whose strength reaches `threshold` of the peak strength."""
        return _significant(self.strengths, self.threshold)

    @property
    def estimated_period(self) -> int:
        """The lcm of the significant periods; 1 when there are none."""
        return lcm(*self.significant)

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "family": self.family,
            "threshold": self.threshold,
            "normalized": self.normalized,
            "strengths": _strengths_json(self.strengths),
            "significant": list(self.significant),
            "estimated_period": self.estimated_period,
        }


def period_strengths(c: CoefficientSet, threshold: float = 0.2,
                     normalized: bool = False) -> PeriodReport:
    """Per-divisor strengths of a coefficient set plus the thresholded
    significant set and its lcm.

    Strengths are raw square sums of the coefficients in each divisor
    subspace; `normalized` divides by the subspace dimension phi(p). An
    all-zero signal has no significant periods and reports period 1.
    """
    _checked_real(threshold, "threshold", 0.0, 1.0, open_low=True)
    strengths = _strengths(column_layout(c.family, c.N), c.column_values(), normalized)
    if not any(strengths.values()):
        warnings.warn("all-zero coefficient set: no significant periods, reporting period 1")
    return PeriodReport(family=c.family, strengths=strengths, threshold=threshold,
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


@dataclass(frozen=True, eq=False, repr=False)
class ComponentTable(_ArrayValue, Sequence):
    """Frequency components as a read-only column table: `p` and `k` (int),
    `freq`, `freq_hz` (None without a sample rate), `magnitude` and `phase`,
    one row per conjugate subspace.

    The columns are read-only 1-D arrays of the length of `p` (freq_hz may
    be None); any other shape raises ValueError. The table is also
    a sequence of `FrequencyComponent`: indexing and iteration build each
    record when it is read, with Python int, float and None fields, and
    `list(table)` gives them all. A slice is a table; `==` compares record
    by record with any sequence; a table cannot be hashed or changed."""

    p: np.ndarray
    k: np.ndarray
    freq: np.ndarray
    freq_hz: np.ndarray | None
    magnitude: np.ndarray
    phase: np.ndarray

    __hash__ = None
    _arrays = FrequencyComponent._fields

    def __post_init__(self):
        shapes = {a.shape for a in self._columns() if a is not None}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(f"component columns must be 1-D of one length, got shapes {shapes}")
        super().__post_init__()

    def _columns(self):
        return self.p, self.k, self.freq, self.freq_hz, self.magnitude, self.phase

    def __len__(self) -> int:
        return len(self.p)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ComponentTable(*(None if a is None else a[i] for a in self._columns()))
        i = range(len(self.p))[i]       # any integer index, as a list takes it
        hz = self.freq_hz
        return FrequencyComponent(self.p.item(i), self.k.item(i), self.freq.item(i),
                                  None if hz is None else hz.item(i),
                                  self.magnitude.item(i), self.phase.item(i))

    def __iter__(self):
        hz = repeat(None) if self.freq_hz is None else self.freq_hz.tolist()
        rows = zip(self.p.tolist(), self.k.tolist(), self.freq.tolist(), hz,
                   self.magnitude.tolist(), self.phase.tolist())
        # tuple.__new__ on each zipped row skips the per-field keyword call
        return map(tuple.__new__, repeat(FrequencyComponent), rows)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"ComponentTable({list(self)!r})"


def _components(what: str, layout: ColumnLayout, values: np.ndarray, fs: float | None,
                min_magnitude: float) -> ComponentTable:
    """Components of the conjugate subspaces of an orthogonal layout, given
    its real `values` in column order, whose magnitude reaches the floor, a
    finite value >= 0; the errors name the caller `what`."""
    _require_orthogonal(what, layout.family)
    _require_real(what, values)
    if fs is not None:
        fs = _checked_real(fs, "sample rate fs", open_low=True)
    _checked_real(min_magnitude, "min_magnitude")
    p, k, b0, b1 = layout.pairs(values)
    freq, e = layout._pair_positions[4:]
    mag = 2.0 * np.hypot(b0, b1)
    phase = np.arctan2(-b1, b0)
    # the first e pairs (e <= 2) are the degenerate periods 1 and 2: one
    # real line each, whose phase is the sign of its cosine
    mag[:e] = np.abs(b0[:e])
    for i in range(e):
        phase[i] = 0.0 if b0[i] >= 0 else np.pi
    keep = mag >= min_magnitude
    if np.count_nonzero(keep) < len(keep):
        p, k, freq, mag, phase = (a[keep] for a in (p, k, freq, mag, phase))
    return ComponentTable(p, k, freq, None if fs is None else freq * fs, mag, phase)


def frequency_components(c: CoefficientSet, fs: float | None = None,
                         min_magnitude: float = 1e-8) -> ComponentTable:
    """One (frequency, magnitude, phase) row per conjugate subspace with
    magnitude above the floor, as a `ComponentTable`.

    The phase convention is atan2(-b1, b0), so an input A*cos(2*pi*k*n/p + phi)
    comes back with magnitude A and phase phi.
    """
    return _components("frequency_components", column_layout(c.family, c.N), c.column_values(),
                       fs, min_magnitude)


@dataclass(frozen=True, eq=False)
class GramFactor(_ArrayValue):
    """Real economic QR of A^T = Q R for a dictionary with M columns and N
    rows: Q is M x K with orthonormal columns and R is K x N upper
    triangular (Fortran order, so triangular solves use it in place), with
    K = min(M, N). Q and R are real for every family: A is F T^-1 for the
    real families, and for a Farey dictionary the occpt columns of the same
    blocks divided by sqrt(2) f(p) for p >= 3 and f(p) for periods 1 and 2
    (module docstring), so the rows of Q follow the occpt layout, not F.
    Either way R^T R is the Gram F T^-2 F^H.

    A factor is its Q and R, the two arrays it stores (read-only views);
    `rank`, `pinv` and `condition` derive from R by one rank decision when
    the factor is made (module docstring): LAPACK's trcon estimate rcond of
    the reciprocal 1-norm condition of a square R, and an SVD of R only when
    rcond <= eps * max(M, N) or R is not square. `rank` counts the singular
    values above eps * max(M, N) * sigma_max (N without the SVD); `pinv`,
    the truncated pinv(R^H) (read-only), is None with full row rank; and
    `condition`, the Gram's condition estimate 1 / rcond^2, is infinite
    without full row rank. The factor belongs to its dictionary and serves
    every solve against it."""

    Q: np.ndarray
    R: np.ndarray

    _arrays = ("Q", "R")

    def __post_init__(self):
        super().__post_init__()
        R, (K, N) = self.R, self.R.shape
        tol = np.finfo(float).eps * max(len(self.Q), N)
        rcond, rank, P = 0.0, N, None
        if K == N:
            trcon, = get_lapack_funcs(("trcon",), (R,))
            rcond, info = trcon(R, norm="1", uplo="U", diag="N")
            if info:
                raise np.linalg.LinAlgError(f"condition estimate failed (trcon info {info})")
        if rcond <= tol:
            U, s, Vh = svd(R, full_matrices=False, check_finite=False)
            rank = int(np.count_nonzero(s > tol * s[0]))
            if rank < N:
                P = (U[:, :rank] / s[:rank]) @ Vh[:rank]
                P.setflags(write=False)
        vars(self).update(rank=rank, pinv=P, condition=np.inf if P is not None else 1.0 / rcond ** 2)


@dataclass(frozen=True, eq=False)
class PeriodicDictionary(_ArrayValue):
    """Stacked subspace bases tiled to N: the fat dictionary of periods
    1..p_max, or the basis of a candidate set at any N >= its width
    (`p_max` its largest candidate). An immutable value of four fields: its
    family (farey names the dft-npm blocks), penalty name, length N and the
    layout addressing its columns. The entries, p_max (the last block
    period), the penalties and the factor derive from them and are built on
    first use; an N that is not an integer >= 1, a family that is not the
    layout's own and an unknown penalty are rejected. The factor of every
    family builds its own columns for the QR only, so a factor and a solve
    never build the entries (complex for Farey); the residual, export and
    tests read them."""

    family: str
    penalty_name: str
    N: int
    layout: ColumnLayout

    def __post_init__(self):
        object.__setattr__(self, "N", positive_int(self.N, "dictionary length N"))
        fam = self.layout.family
        if (DFT_NPM if self.family == FAREY else self.family) != fam:
            raise ValueError(f"dictionary family {self.family!r} does not match its {fam} layout")
        self.penalties          # checks the penalty name, at construction

    @cached_property
    def entries(self) -> np.ndarray:
        """The blocks tiled to N (read-only), complex for dft-npm blocks;
        built on first read and kept. The factor does not read them."""
        F = build_columns(self.layout, self.N)
        F.setflags(write=False)
        return F

    @property
    def p_max(self) -> int:
        return self.layout.blocks[-1]

    @cached_property
    def penalties(self) -> np.ndarray:
        """Penalty f(p) of each column (read-only): p^2, or phi(p), the
        width of the block of period p."""
        if self.penalty_name not in ("p2", "phi"):
            raise ValueError(f"penalty must be 'p2' or 'phi', got {self.penalty_name!r}")
        p = self.layout.periods
        f = (p * p if self.penalty_name == "p2" else np.bincount(p)[p]).astype(float)
        f.setflags(write=False)
        return f

    @property
    def n_columns(self) -> int:
        return len(self.layout.periods)

    @property
    def columns(self) -> tuple[SubspaceIndex, ...]:
        """The column addresses (`ColumnLayout.columns`), built on each
        read: read them once, outside a loop."""
        return self.layout.columns

    @property
    def periods(self) -> np.ndarray:
        """Period of each column (read-only)."""
        return self.layout.periods

    def gram(self) -> GramFactor:
        """QR factorization of the penalty-scaled dictionary, built on first
        use and kept; see the module docstring."""
        return self._qr

    @cached_property
    def _real_columns(self) -> tuple[ColumnLayout, np.ndarray]:
        # (layout, scale) of the real columns the factor is built from: the
        # dictionary's own with their penalties, or for dft-npm blocks the
        # occpt pairs of the same blocks, scaled by sqrt(2) f(p) for p >= 3
        if self.layout.family != DFT_NPM:
            return self.layout, self.penalties
        scale = np.where(self.periods >= 3, np.sqrt(2.0), 1.0) * self.penalties
        return ColumnLayout(OCCPT, self.layout.blocks), scale

    @cached_property
    def _qr(self) -> GramFactor:
        layout, scale = self._real_columns
        F = build_columns(layout, self.N)
        F /= scale
        # A^T = F.T is Fortran-ordered, so QR overwrites it in place
        Q, R = qr(F.T, mode="economic", overwrite_a=True)
        # a tall basis's M x M Q is a view of LAPACK's M x N work array;
        # a fat or square one is its own buffer
        return GramFactor(Q.copy() if self.n_columns < self.N else Q, np.asfortranarray(R))


def build_dictionary(N: int, p_max: int, family: str = OCCPT, penalty="p2") -> PeriodicDictionary:
    """Stack the family's subspace bases for every period 1..p_max.

    The dictionary has sum(phi(p)) columns; columns of non-divisor periods
    are truncated mid-period, and its entries, built on first read, are
    read-only. p_max beyond N duplicates spanned content and triggers a
    warning.
    """
    N = positive_int(N, "dictionary length N")
    p_max = positive_int(p_max, "p_max")
    if p_max > N:
        warnings.warn(f"p_max={p_max} exceeds the signal length {N}; "
                      "columns beyond N add no new periods")
    return _dictionary(N, range(1, p_max + 1), family, penalty)


def _dictionary(N: int, periods, family: str, penalty: str) -> PeriodicDictionary:
    """The one constructor of a dictionary: the blocks of the ascending
    `periods` of `family` (farey names the dft-npm blocks) tiled to N, with
    their penalties."""
    fam = DFT_NPM if family == FAREY else family
    if fam not in FAMILIES:
        raise ValueError(f"unknown dictionary family {family!r}")
    return PeriodicDictionary(family=family, penalty_name=penalty, N=N,
                              layout=ColumnLayout(fam, periods))


@dataclass(frozen=True, eq=False)
class DictionarySolution(_ArrayValue):
    """Coefficients b_hat (read-only) of a signal against a dictionary, and
    a read-only copy of the signal. Derived from them: the strength of each
    block period, ascending from period 1 (a read-only mapping), the
    factor's condition estimate and branch, and `residual`, ||F b_hat - x||
    on the dictionary's own entries, computed on first read and kept."""

    b_hat: np.ndarray
    dictionary: PeriodicDictionary
    _signal: np.ndarray = field(repr=False)

    _arrays = ("b_hat", "_signal")

    @cached_property
    def strengths(self) -> MappingProxyType:
        return _strengths(self.dictionary.layout, self.b_hat)

    # both read the dictionary's cached factor, not gram(), so reading them
    # is not counted as a factorization call (perfbench traces gram)
    @property
    def gram_condition(self) -> float:
        """GramFactor.condition, an estimate; infinite without full row rank."""
        return self.dictionary._qr.condition

    @property
    def used_fallback(self) -> bool:
        """Whether the least-squares branch ran (no full row rank)."""
        return self.dictionary._qr.pinv is not None

    @cached_property
    def residual(self) -> float:
        return float(np.linalg.norm(self.dictionary.entries @ self.b_hat - self._signal))

    def significant_periods(self) -> tuple[int, ...]:
        """Periods with strength at least 1% of the maximum strength over
        p >= 2. The weighted minimum-norm solution spreads component
        energies over orders of magnitude, so the floor is deliberately low;
        p = 1 only carries the offset and never changes the lcm."""
        return _significant(self.strengths, 0.01, first=2)

    def top_periods(self, count: int) -> tuple[int, ...]:
        """The `count` (an integer >= 0) strongest periods p >= 2 with a
        positive strength, ascending; fewer when fewer periods have one."""
        count = positive_int(count, "count", low=0)
        strong = [(-s, p) for p, s in self.strengths.items() if p >= 2 and s > 0.0]
        return tuple(sorted(p for _, p in sorted(strong)[:count]))

    def estimated_period(self) -> int:
        """The lcm of the significant periods; 1 when there are none."""
        return lcm(*self.significant_periods())

    def components(self, fs: float | None = None,
                   min_magnitude: float = 1e-8) -> ComponentTable:
        """Frequency/magnitude/phase rows from the dictionary coefficients, as
        a `ComponentTable` (orthogonal-family dictionaries and real
        coefficients only)."""
        return _components("components", self.dictionary.layout, self.b_hat, fs, min_magnitude)

    def pair(self, p: int, k: int):
        """(cosine, sine) coefficients of subspace (p, k) of an
        orthogonal-family dictionary; the sine is 0.0 for p <= 2, and a
        subspace the dictionary lacks raises KeyError
        (`ColumnLayout.pair_columns`)."""
        i, j = self.dictionary.layout.pair_columns(p, k)
        return self.b_hat[i], (0.0 if j is None else self.b_hat[j])

    def to_dict(self) -> dict:
        return {
            "N": self.dictionary.N,
            "p_max": self.dictionary.p_max,
            "family": self.dictionary.family,
            "penalty": self.dictionary.penalty_name,
            "strengths": _strengths_json(self.strengths),
            "significant": list(self.significant_periods()),
            "estimated_period": self.estimated_period(),
            "residual": self.residual,
            # an estimate good to a few-fold, whose last bits vary between
            # processes: 3 significant digits; JSON has no infinity, so a
            # singular Gram reports null
            "gram_condition": (float(f"{self.gram_condition:.3g}")
                               if np.isfinite(self.gram_condition) else None),
            "used_fallback": self.used_fallback,
        }


# the real double LAPACK routine under solve_triangular, without its
# wrapper: the one triangular solve of every dictionary, as R and each part
# of a signal are float64
_trtrs, = get_lapack_funcs(("trtrs",), dtype=np.float64)


def _coefficients(x: np.ndarray, f: GramFactor, d: PeriodicDictionary) -> np.ndarray:
    """Weighted minimum-norm coefficients b = T^-1 Q R^-T x of a real
    float64 signal x from the factor f of dictionary d, through the
    truncated pseudo-inverse without full row rank; for dft-npm blocks
    Q R^-T x holds occpt pair coordinates, scaled and then mapped onto the
    exponentials (module docstring). A complex signal solves part by part
    (`transform._by_parts`)."""
    if f.pinv is None:
        y, info = _trtrs(f.R, x, lower=0, trans=2)
        if info:
            raise np.linalg.LinAlgError(f"triangular solve failed (trtrs info {info})")
        u = f.Q @ y
    else:
        u = f.Q @ (f.pinv @ x)
    layout, scale = d._real_columns
    u /= scale
    if layout is d.layout:
        return u
    # an occpt pair (b0, b1) is b0 (e_k + e_(p-k)) - j b1 (e_k - e_(p-k));
    # the first e pairs, periods 1 and 2, lead both layouts with one column
    _, _, b0, b1 = layout.pairs(u)
    lower, upper = d.layout._conjugate_positions
    e = len(b0) - len(lower)
    b = np.empty(len(u), complex)
    b[:e] = b0[:e]
    b[lower] = b0[e:] - 1j * b1[e:]
    b[upper] = b0[e:] + 1j * b1[e:]
    return b


def _strengths(layout: ColumnLayout, b: np.ndarray, normalized=False) -> MappingProxyType:
    """Square sum of the coefficients b, in the layout's column order, of
    each block period of the layout, ascending, divided by the block's
    width phi(p) when `normalized`: the one strength rule of divisor
    reports, dictionary solutions and candidate sets. The mapping is
    read-only."""
    blocks, index, widths = layout._block_plan
    sums = np.bincount(index, weights=np.abs(b) ** 2, minlength=len(blocks))
    if normalized:
        sums /= widths
    return MappingProxyType(dict(zip(blocks, sums.tolist())))


def _strengths_json(strengths) -> dict:
    """JSON spelling of a strengths mapping, which `_strengths` builds
    ascending: string keys, in the mapping's order."""
    return {str(p): float(s) for p, s in strengths.items()}


def dictionary_solve(x, d: PeriodicDictionary) -> DictionarySolution:
    """Weighted minimum-norm coefficients of x against the dictionary.

    Uses the dictionary's cached QR factorization (`PeriodicDictionary.gram`):
    one triangular solve when the dictionary has full row rank, otherwise the
    minimum-norm least-squares solution through the cached truncated
    pseudo-inverse (`used_fallback`). x must be a finite 1-D signal of the
    dictionary's length. The solution keeps a read-only copy of x and
    computes its residual on first read.
    """
    x = _checked_samples(x, "dictionary_solve")
    if len(x) != d.N:
        raise ValueError(f"signal length {len(x)} does not match dictionary length {d.N}")
    return DictionarySolution(b_hat=_by_parts(_coefficients, x, d.gram(), d), dictionary=d,
                              _signal=x.copy())


def min_data_length(candidates) -> int:
    """Minimum samples needed to separate a set of candidate integer
    periods: the max of Pi + Pj - gcd(Pi, Pj) over candidate pairs.

    For two candidates this is the width of their basis in
    `candidate_matrix_solve` (the sum of phi(d) over the divisors d of
    either), the length it needs. For three or more the basis can be wider
    than every pair: (5, 7, 9) needs 19 samples and (4, 6, 9) needs 14,
    where this gives 15 and 12."""
    P = [positive_int(p, "candidate period") for p in candidates]
    if len(P) < 2:
        raise ValueError("need at least two candidate periods")
    return max(p + q - gcd(p, q) for p, q in combinations(P, 2))


@dataclass(frozen=True)
class CandidateReport:
    """Strengths (a read-only mapping) of the basis periods of a candidate
    set's dictionary, with its column rank. The basis periods (the strength
    keys), the width (the sum of their phi(p)), full rank (rank == width)
    and the candidates' own strengths derive from them. Compares and hashes
    by value."""

    candidates: tuple[int, ...]
    rank: int
    strengths: MappingProxyType

    __hash__ = _value_hash

    @property
    def basis_periods(self) -> tuple[int, ...]:
        return tuple(self.strengths)

    @property
    def width(self) -> int:
        return sum(map(totient, self.strengths))

    @property
    def full_rank(self) -> bool:
        return self.rank == self.width

    @property
    def candidate_strengths(self) -> MappingProxyType:
        return MappingProxyType({p: self.strengths[p] for p in self.candidates})

    def to_dict(self) -> dict:
        return {
            "candidates": list(self.candidates),
            "basis_periods": list(self.basis_periods),
            "width": self.width,
            "rank": self.rank,
            "full_rank": self.full_rank,
            "strengths": _strengths_json(self.strengths),
            "candidate_strengths": _strengths_json(self.candidate_strengths),
        }


@lru_cache(maxsize=64)
def _candidate_dictionary(cand: tuple[int, ...], family: str, n: int) -> PeriodicDictionary:
    """Dictionary of a sorted candidate set for data length n, whose blocks
    are every divisor of every candidate, ascending; it caches its factor on
    the first solve. A length below the dictionary's width is rejected
    before anything is built, and the error is not cached."""
    periods = tuple(sorted({d for p in cand for d in divisors(p)}))
    width = sum(map(totient, periods))
    if n < width:
        raise ValueError(f"data length {n} is below the basis width {width} of candidates {cand}")
    return _dictionary(n, periods, family, "p2")


def candidate_matrix_solve(x, candidates, family: str = OCCPT) -> CandidateReport:
    """Period scoring over an explicit candidate set.

    The basis stacks the family's subspace blocks for every divisor of every
    candidate (including non-divisors of the data length), tiled to the
    data length n, which must be at least the basis width (the total
    dimension of those subspaces). For two candidates the width is their
    minimum data length (`min_data_length`); for three or more it can
    exceed it, as (5, 7, 9) has width 19 and minimum data length 15, and
    a length below the width raises. `family` is a dictionary family
    (farey for the dft-npm blocks). The basis is solved as a dictionary
    (`PeriodicDictionary.gram`): the least-squares fit of all n samples,
    exact at n = width, and a basis without full column rank warns and
    takes the minimum-norm least-squares solution.
    """
    x = _checked_samples(x, "candidate_matrix_solve")
    cand = tuple(sorted({positive_int(p, "candidate period") for p in candidates}))
    if not cand:
        raise ValueError("need at least one candidate period")
    d = _candidate_dictionary(cand, family, len(x))
    f = d.gram()
    if f.rank < d.n_columns:
        warnings.warn(f"candidate basis for {cand} is rank deficient "
                      f"({f.rank}/{d.n_columns}); falling back to least squares")
    return CandidateReport(candidates=cand, rank=f.rank,
                           strengths=_strengths(d.layout, _by_parts(_coefficients, x, f, d)))

"""The five periodic transformation matrices and their validation.

Every family stacks, for each divisor p of N, a block of phi(p) columns of
exact period p (a nested periodic matrix). The families differ only in the
block generator:

  dft-npm  complex exponentials, full coprime residue set per divisor
  rpt      Ramanujan sums and their circular downshifts
  ccpt1    type-1 pair sums and their one-sample downshifts
  ccpt2    type-2 pair sums and their one-sample downshifts
  occpt    the type-1/type-2 pair per conjugate subspace (orthogonal columns)

Column order is canonical and fixed: divisors ascending, residues ascending,
cos before sin, downshift 0 before downshift 1. Coefficient indices therefore
mean the same thing across runs.

A `ColumnLayout` holds the addresses as arrays over any ascending set of
block periods (divisors of N, or 1..P_max for a dictionary), and
`build_columns` is the one builder of entries for every basis.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ccps import COS, SIN, pair_scale, ramanujan_sum
from .numtheory import divisors, positive_int, totient

DFT_NPM = "dft-npm"
RPT = "rpt"
CCPT1 = "ccpt1"
CCPT2 = "ccpt2"
OCCPT = "occpt"

FAMILIES = (DFT_NPM, RPT, CCPT1, CCPT2, OCCPT)

EXP = "exp"
RAM = "ram"

MAX_DIRECT_N = 4096

__all__ = [
    "DFT_NPM", "RPT", "CCPT1", "CCPT2", "OCCPT", "FAMILIES",
    "SubspaceIndex", "ColumnLayout", "PeriodicBasisMatrix", "ValidationReport", "BlockCheck",
    "block_layout", "build_columns", "subspace_block", "column_layout", "build_matrix",
    "cached_matrix", "build_occpt", "validate_npm", "matrix_rank",
    "export_matrix_csv", "matrix_metadata", "export_matrix_metadata",
]


@dataclass(frozen=True)
class SubspaceIndex:
    """Address of one basis column: divisor period p, residue k, generator
    kind (exp/cos/sin/ram) and circular downshift applied to it."""

    p: int
    k: int
    kind: str
    shift: int = 0


@dataclass(frozen=True, eq=False)
class ColumnLayout:
    """Canonical column addresses of one family over an ascending set of
    block periods, without the matrix entries. Column i is (periods[i],
    k[i], kind[i], shift[i]); the arrays are read-only, and `kind` is a
    "<U3" array of the strings exp, ram, cos and sin.

    The layout is the one table of column order: the transforms take their
    packed slots and DFT bins from it, and `pairs` is the one cosine/sine
    split of an orthogonal layout's values."""

    family: str
    periods: np.ndarray
    k: np.ndarray
    kind: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        for a in (self.periods, self.k, self.kind, self.shift):
            a.setflags(write=False)

    def _rows(self):
        return self.periods.tolist(), self.k.tolist(), self.kind.tolist(), self.shift.tolist()

    @cached_property
    def columns(self) -> tuple[SubspaceIndex, ...]:
        """The addresses as SubspaceIndex objects, built on first use."""
        return tuple(map(SubspaceIndex, *self._rows()))

    @cached_property
    def _position(self) -> dict:
        return {address: i for i, address in enumerate(zip(*self._rows()))}

    def column_index(self, p: int, k: int, kind: str, shift: int = 0) -> int:
        """0-based position of the column addressed by (p, k, kind, shift)."""
        try:
            return self._position[p, k, kind, shift]
        except KeyError:
            raise KeyError(f"no column {SubspaceIndex(p, k, kind, shift)} "
                           f"in this {self.family} layout") from None

    @cached_property
    def _pair_positions(self):
        # the sine column follows its cosine for p >= 3; periods 1 and 2
        # point at their cosine and are masked out
        cos = np.flatnonzero(self.kind == COS)
        p = self.periods[cos]
        paired = p >= 3
        out = p, self.k[cos], cos, cos + paired, paired
        for a in out:
            a.setflags(write=False)
        return out

    def pairs(self, values: np.ndarray):
        """(p, k, b0, b1) arrays over the conjugate subspaces of an
        orthogonal layout, given `values` in column order: period, residue,
        cosine and sine values, the sine being 0 for the degenerate periods 1
        and 2. p and k are read-only."""
        if self.family != OCCPT:
            raise ValueError(f"cosine/sine pairs need the orthogonal family, not {self.family}")
        p, k, cos, sin, paired = self._pair_positions
        return p, k, values[cos], np.where(paired, values[sin], 0)


def block_layout(family: str, periods) -> ColumnLayout:
    """Column addresses of the blocks of `periods` (positive, ascending):
    per block, residues ascending, cos before sin, downshift 0 before
    downshift 1. Each block has phi(p) columns."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    periods = np.array(periods, dtype=int)
    if periods.size == 0 or periods[0] < 1 or np.any(np.diff(periods) <= 0):
        raise ValueError(f"block periods must be positive and ascending, got {periods.tolist()}")
    # candidate residues 1..top of each period: the full residue system, or
    # its lower half (just 1 for periods 1 and 2)
    top = periods if family in (DFT_NPM, RPT) else np.maximum(periods // 2, 1)
    p = np.repeat(periods, top)
    k = np.arange(1, len(p) + 1) - np.repeat(np.cumsum(top) - top, top)
    coprime = np.gcd(k, p) == 1
    p, k = p[coprime], k[coprime]
    if family == DFT_NPM:
        return ColumnLayout(family, p, k, np.full(len(p), EXP), np.zeros_like(p))
    if family == RPT:
        # phi(p) downshifts of the Ramanujan sum c_p; no single residue
        shift = np.arange(len(p)) - np.searchsorted(p, p)
        return ColumnLayout(family, p, np.zeros_like(p), np.full(len(p), RAM), shift)
    # a cos/sin (occpt) or shift 0/1 (ccpt1, ccpt2) pair per residue;
    # periods 1 and 2 keep the first column alone
    p, k, second = np.repeat(p, 2), np.repeat(k, 2), np.tile([False, True], len(p))
    keep = ~second | (p >= 3)
    p, k, second = p[keep], k[keep], second[keep]
    if family == OCCPT:
        return ColumnLayout(family, p, k, np.where(second, SIN, COS), np.zeros_like(p))
    kind = COS if family == CCPT1 else SIN
    return ColumnLayout(family, p, k, np.full(len(p), kind), second.astype(int))


def build_columns(layout: ColumnLayout, length: int) -> np.ndarray:
    """The layout's columns tiled (and truncated) to `length` samples,
    complex for dft-npm. One period of every column is laid end to end in a
    table, and sample n of a column with downshift s is its entry
    (n - s) mod p. Columns share a segment where their patterns allow: the
    first column of each run of downshifts (rpt's Ramanujan sum per period,
    ccpt1/ccpt2's pair sum per residue) holds the segment its shifts read,
    and occpt's cosine and sine halves share one set of angles."""
    p = layout.periods
    # one table segment per pattern: every column for dft-npm, the first
    # column of each cos/sin pair or run of downshifts otherwise
    if layout.family == DFT_NPM:
        first = np.ones(len(p), bool)
    else:
        first = layout.kind == COS if layout.family == OCCPT else layout.shift == 0
    p_s, k_s = p[first], layout.k[first]
    seg = np.cumsum(p_s) - p_s
    start = seg[np.cumsum(first) - 1]
    if layout.family == RPT:
        table = np.concatenate([ramanujan_sum(q) for q in p_s.tolist()])
    else:
        # per table entry: its segment's period and residue, and its index i
        # within that period
        p_t, k_t = np.repeat(p_s, p_s), np.repeat(k_s, p_s)
        i = np.arange(len(p_t)) - np.repeat(seg, p_s)
        if layout.family == DFT_NPM:
            table = np.exp(2j * np.pi * k_t * i / p_t)
        else:
            # k*i reduced mod p before scaling, as in the pair-sum generators
            angles = (2.0 * np.pi / p_t) * ((k_t * i) % p_t)
            if layout.family == OCCPT:
                # the sine half follows the cosine half
                table = 2.0 * np.concatenate([np.cos(angles), np.sin(angles)])
                start = np.where(layout.kind == SIN, start + len(p_t), start)
            else:
                table = 2.0 * (np.cos(angles) if layout.family == CCPT1 else np.sin(angles))
            # both pair sums collapse to the constant (p = 1) and (-1)^n (p = 2)
            degenerate = np.flatnonzero(p_t <= 2)
            table[degenerate] = np.where(i[degenerate] == 0, 1.0, -1.0)
    idx = np.arange(length)[:, None] - layout.shift
    idx %= p
    idx += start
    return table[idx]


def subspace_block(family: str, p: int, length: int):
    """Basis block for the period-p subspace, tiled/truncated to `length`.

    Returns (block, columns): a length x phi(p) array and the column
    addresses; p need not divide `length`.
    """
    layout = block_layout(family, [p])
    return build_columns(layout, length), layout.columns


def _check_family_size(family: str, N: int) -> int:
    """N as an int, for a known family and N >= 1."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return positive_int(N, "matrix size")


def column_layout(family: str, N: int) -> ColumnLayout:
    """Column addresses of the size-N matrix of `family`: the blocks of the
    divisors of N, ascending. Builds no entries, so it has no size cap. N is
    checked before the cached lookup, so a float N is rejected whatever was
    cached before."""
    return _column_layout(family, _check_family_size(family, N))


@lru_cache(maxsize=64)
def _column_layout(family: str, N: int) -> ColumnLayout:
    return block_layout(family, divisors(N))


@dataclass(frozen=True)
class PeriodicBasisMatrix:
    """An N x N basis matrix and its column addresses.

    `entries` is dense (complex for dft-npm, real otherwise) and read-only;
    `layout` addresses its columns.
    """

    N: int
    family: str
    entries: np.ndarray
    layout: ColumnLayout

    def __post_init__(self):
        self.entries.setflags(write=False)

    def subspace_columns(self, p: int) -> range:
        """Contiguous column range of the period-p block."""
        start, stop = np.searchsorted(self.layout.periods, [p, p + 1]).tolist()
        if start == stop:
            raise KeyError(f"{p} is not a divisor period of this matrix (N={self.N})")
        return range(start, stop)

    def scales(self) -> np.ndarray:
        """Per-column pair-scale constants (1/2 for p <= 2, else 1)."""
        return np.array([pair_scale(p) for p in self.layout.periods.tolist()])


def build_matrix(family: str, N: int) -> PeriodicBasisMatrix:
    N = _check_family_size(family, N)
    if N > MAX_DIRECT_N:
        raise ValueError(f"direct builders are capped at N={MAX_DIRECT_N}, got {N}")
    layout = column_layout(family, N)
    return PeriodicBasisMatrix(N=N, family=family, entries=build_columns(layout, N),
                               layout=layout)


@lru_cache(maxsize=64)
def cached_matrix(family: str, N: int) -> PeriodicBasisMatrix:
    return build_matrix(family, N)


def build_occpt(N: int) -> PeriodicBasisMatrix:
    return build_matrix(OCCPT, N)


def matrix_rank(a: np.ndarray) -> int:
    """Rank by singular values, scale-free threshold 1e-10 * sigma_max."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s >= 1e-10 * s[0]))


@dataclass(frozen=True)
class BlockCheck:
    p: int
    width: int
    rank: int
    rank_ok: bool
    periodic_ok: bool


@dataclass(frozen=True)
class ValidationReport:
    N: int
    family: str
    blocks: tuple[BlockCheck, ...]
    rank: int
    full_rank: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "family": self.family,
            "rank": self.rank,
            "full_rank": self.full_rank,
            "passed": self.passed,
            "blocks": [vars(b) for b in self.blocks],
        }


def validate_npm(m: PeriodicBasisMatrix, tol: float = 1e-9) -> ValidationReport:
    """Check the three nested-periodic-matrix axioms: per-divisor block rank
    phi(p), overall full rank, and exact p-periodicity of every column."""
    checks = []
    n = np.arange(m.N)
    for p in divisors(m.N):
        rng = m.subspace_columns(p)
        block = m.entries[:, rng.start:rng.stop]
        r = matrix_rank(block)
        periodic = bool(np.all(np.max(np.abs(block - block[n % p]), axis=0)
                               <= tol * np.maximum(1.0, np.max(np.abs(block), axis=0))))
        checks.append(BlockCheck(p=p, width=block.shape[1], rank=r,
                                 rank_ok=(r == totient(p)), periodic_ok=periodic))
    rank = matrix_rank(m.entries)
    full = rank == m.N
    passed = full and all(c.rank_ok and c.periodic_ok for c in checks)
    return ValidationReport(N=m.N, family=m.family, blocks=tuple(checks),
                            rank=rank, full_rank=full, passed=passed)


def export_matrix_csv(m: PeriodicBasisMatrix, path) -> None:
    """Row-major CSV at full precision; complex entries as re+imj strings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in m.entries:
            if np.iscomplexobj(m.entries):
                writer.writerow([repr(complex(v)) for v in row])
            else:
                writer.writerow([repr(float(v)) for v in row])


def matrix_metadata(m: PeriodicBasisMatrix) -> dict:
    return {
        "N": m.N,
        "family": m.family,
        "columns": [
            {"p": c.p, "k": c.k, "kind": c.kind, "shift": c.shift} for c in m.layout.columns
        ],
    }


def export_matrix_metadata(m: PeriodicBasisMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_metadata(m), fh, indent=2, sort_keys=True)
        fh.write("\n")

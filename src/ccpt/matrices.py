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
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .ccps import COS, SIN, pair_scale, ramanujan_sum
from .numtheory import divisors, half_residues, residue_sets, totient

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
    "subspace_block", "column_layout", "build_matrix", "cached_matrix",
    "build_dft_npm", "build_rpt", "build_ccpt1", "build_ccpt2", "build_occpt",
    "validate_npm", "matrix_rank", "minimal_period",
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


def _block_columns(family: str, p: int) -> list[SubspaceIndex]:
    """Column addresses of the period-p block in canonical order."""
    if family == DFT_NPM:
        return [SubspaceIndex(p, k, EXP) for k in residue_sets(p).full]
    if family == RPT:
        return [SubspaceIndex(p, 0, RAM, shift=j) for j in range(totient(p))]
    # ccpt1/ccpt2: one generator kind with downshifts 0 and 1; occpt: the
    # type-1/type-2 pair. Periods 1 and 2 keep the first column alone.
    if family == OCCPT:
        variants = ((COS, 0), (SIN, 0))
    else:
        kind = COS if family == CCPT1 else SIN
        variants = ((kind, 0), (kind, 1))
    return [SubspaceIndex(p, k, kind, shift)
            for k in half_residues(p)
            for kind, shift in variants[:1 if p <= 2 else 2]]


def subspace_block(family: str, p: int, length: int):
    """Basis block for the period-p subspace, tiled/truncated to `length`.

    Returns (block, columns): a length x phi(p) array and the column
    addresses. Used both by the square builders (p a divisor of length) and
    by the dictionaries (arbitrary p).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    meta = _block_columns(family, p)
    # sample n of a column downshifted by `shift` is its pattern at (n - shift) mod p
    m = (np.arange(length)[:, None] - np.array([c.shift for c in meta])) % p
    if family == RPT:
        return ramanujan_sum(p)[m], meta
    k = np.array([c.k for c in meta])
    i = np.arange(p)[:, None]
    if family == DFT_NPM:
        patterns = np.exp(2j * np.pi * k * i / p)
    elif p <= 2:
        # both pair sums collapse to the constant (p = 1) and (-1)^n (p = 2)
        return np.where(m == 0, 1.0, -1.0), meta
    else:
        # k*i reduced mod p before scaling, as in the pair-sum generators
        angles = (2.0 * np.pi / p) * ((k * i) % p)
        is_sin = np.array([c.kind == SIN for c in meta])
        patterns = 2.0 * np.where(is_sin, np.sin(angles), np.cos(angles))
    return patterns[m, np.arange(len(meta))], meta


@dataclass(frozen=True)
class ColumnLayout:
    """Canonical column addresses of one family at size N, without the
    matrix entries: what coefficient indexing needs at any N."""

    N: int
    family: str
    columns: tuple[SubspaceIndex, ...]

    @cached_property
    def _index(self) -> dict:
        return {c: i for i, c in enumerate(self.columns)}

    @cached_property
    def periods(self) -> np.ndarray:
        """Period p of every column, in column order (read-only)."""
        out = np.array([c.p for c in self.columns])
        out.setflags(write=False)
        return out

    def column_index(self, p: int, k: int, kind: str, shift: int = 0) -> int:
        """0-based position of the column addressed by (p, k, kind, shift)."""
        key = SubspaceIndex(p, k, kind, shift)
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"no column {key} in {self.family} matrix of size {self.N}") from None


def _check_family_size(family: str, N: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if N < 1:
        raise ValueError(f"matrix size must be >= 1, got {N}")


@lru_cache(maxsize=64)
def column_layout(family: str, N: int) -> ColumnLayout:
    """Column addresses of the size-N matrix of `family`: divisors ascending,
    then each block's residues, kinds and shifts. Builds no entries, so it
    has no size cap."""
    _check_family_size(family, N)
    return ColumnLayout(N=N, family=family,
                        columns=tuple(c for p in divisors(N) for c in _block_columns(family, p)))


@dataclass(frozen=True)
class PeriodicBasisMatrix:
    """An N x N basis matrix with per-column subspace metadata.

    `entries` is dense (complex for dft-npm, real otherwise) and read-only;
    `columns[i]` addresses column i.
    """

    N: int
    family: str
    entries: np.ndarray
    columns: tuple[SubspaceIndex, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.entries.setflags(write=False)
        self._index.update({c: i for i, c in enumerate(self.columns)})

    column_index = ColumnLayout.column_index

    def subspace_columns(self, p: int) -> range:
        """Contiguous column range of the period-p block."""
        pos = [i for i, c in enumerate(self.columns) if c.p == p]
        if not pos:
            raise KeyError(f"{p} is not a divisor period of this matrix (N={self.N})")
        return range(pos[0], pos[-1] + 1)

    def scales(self) -> np.ndarray:
        """Per-column pair-scale constants (1/2 for p <= 2, else 1)."""
        return np.array([pair_scale(c.p) for c in self.columns])


def build_matrix(family: str, N: int) -> PeriodicBasisMatrix:
    _check_family_size(family, N)
    if N > MAX_DIRECT_N:
        raise ValueError(f"direct builders are capped at N={MAX_DIRECT_N}, got {N}")
    entries = np.hstack([subspace_block(family, p, N)[0] for p in divisors(N)])
    return PeriodicBasisMatrix(N=N, family=family, entries=entries,
                               columns=column_layout(family, N).columns)


@lru_cache(maxsize=64)
def cached_matrix(family: str, N: int) -> PeriodicBasisMatrix:
    return build_matrix(family, N)


def build_dft_npm(N: int) -> PeriodicBasisMatrix:
    return build_matrix(DFT_NPM, N)


def build_rpt(N: int) -> PeriodicBasisMatrix:
    return build_matrix(RPT, N)


def build_ccpt1(N: int) -> PeriodicBasisMatrix:
    return build_matrix(CCPT1, N)


def build_ccpt2(N: int) -> PeriodicBasisMatrix:
    return build_matrix(CCPT2, N)


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


def minimal_period(col: np.ndarray, p: int, tol: float = 1e-9) -> int:
    """Smallest divisor of p with which the length-N sequence repeats."""
    for d in divisors(p):
        if np.allclose(col, col[np.arange(len(col)) % d], atol=tol):
            return d
    return p


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
        periodic = all(
            np.max(np.abs(block[:, j] - block[:, j][n % p])) <= tol * max(1.0, np.max(np.abs(block[:, j])))
            for j in range(block.shape[1])
        )
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
            {"p": c.p, "k": c.k, "kind": c.kind, "shift": c.shift} for c in m.columns
        ],
    }


def export_matrix_metadata(m: PeriodicBasisMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_metadata(m), fh, indent=2, sort_keys=True)
        fh.write("\n")

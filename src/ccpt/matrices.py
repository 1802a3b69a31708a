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

A `ColumnLayout` is a family and an ascending tuple of block periods
(divisors of N, or 1..P_max for a dictionary): it stores those two and
works out the column addresses, as read-only arrays, when it is made.
The arrays are its one copy of the addresses: a column is found by binary
search on them, and the `SubspaceIndex` records of `columns` are built
from them on each read.
`build_columns` is the one builder of entries for every basis: it keeps one
generator segment of p samples per block period p, and column (p, k,
downshift s) reads its block's generator at k (n - s) mod p. A
`PeriodicBasisMatrix` stores its entries and family, and its layout is the
family's at its size. A `ValidationReport` stores the block checks and
overall rank of a matrix, and a `BlockCheck` a block's rank and
periodicity; their size, pass flags and widths derive from them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .ccps import COS, SIN, _pair_sums, pair_scale, ramanujan_sum
from .numtheory import divisors, positive_int, totient
from .signals import _checked_real

DFT_NPM = "dft-npm"
RPT = "rpt"
CCPT1 = "ccpt1"
CCPT2 = "ccpt2"
OCCPT = "occpt"

FAMILIES = (DFT_NPM, RPT, CCPT1, CCPT2, OCCPT)

EXP = "exp"
RAM = "ram"

__all__ = [
    "DFT_NPM", "RPT", "CCPT1", "CCPT2", "OCCPT", "FAMILIES",
    "SubspaceIndex", "ColumnLayout", "PeriodicBasisMatrix", "ValidationReport", "BlockCheck",
    "build_columns", "column_layout", "build_matrix",
    "cached_matrix", "build_occpt", "validate_npm", "matrix_rank",
    "export_matrix_csv", "matrix_metadata", "export_matrix_metadata",
]


class _ArrayValue:
    """Base of the frozen dataclasses that hold arrays: their one read-only
    rule and one pickle rule. `__post_init__` keeps a read-only view of each
    field named in `_arrays` (None stays None), so the caller's array stays
    writable. `__reduce__` pickles and copies through the constructor, so
    its checks and views apply again (numpy restores arrays writable) and
    cached values are derived anew."""

    _arrays = ()

    def __post_init__(self):
        for name in self._arrays:
            a = getattr(self, name)
            if a is not None:
                a = a.view()
                a.setflags(write=False)
                object.__setattr__(self, name, a)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class SubspaceIndex:
    """Address of one basis column: divisor period p, residue k, generator
    kind (exp/cos/sin/ram) and circular downshift applied to it."""

    p: int
    k: int
    kind: str
    shift: int = 0


@dataclass(frozen=True)
class ColumnLayout(_ArrayValue):
    """Canonical column addresses of one family over an ascending tuple of
    block periods, without the matrix entries. A layout is its family and
    its block periods: it compares, hashes and pickles by those two, and
    its read-only address arrays are worked out from them when it is made.
    Column i is (periods[i], k[i], kind[i], shift[i]), and `kind` is a
    "<U3" array of the strings exp, ram, cos and sin. Each block has phi(p)
    columns: residues ascending, cos before sin, downshift 0 before
    downshift 1.

    The layout is the one table of column order: the transforms take their
    packed slots and DFT bins from it, `pair_columns` is the one lookup of
    a cosine/sine pair and `pairs` the one split of an orthogonal layout's
    values into pairs. It also owns, built on first use and kept, the
    block plan that every period answer reads (the block periods, each
    column's block index and each block's width phi(p)) and the pair
    frequencies k/p of its conjugate subspaces. It keeps no per-column
    object: `column_index` searches the arrays, and `columns` builds its
    records on each read, so read it once outside a loop."""

    family: str
    blocks: tuple[int, ...]

    def __post_init__(self):
        _check_family(self.family)
        p = np.array([positive_int(b, "block period", low=None) for b in self.blocks], dtype=int)
        if p.size == 0 or p[0] < 1 or np.any(np.diff(p) <= 0):
            raise ValueError(f"block periods must be positive and ascending, got {p.tolist()}")
        arrays = _addresses(self.family, p)
        for a in arrays:
            a.setflags(write=False)
        vars(self).update(zip(("periods", "k", "kind", "shift"), arrays), blocks=tuple(p.tolist()))

    def _rows(self):
        return self.periods.tolist(), self.k.tolist(), self.kind.tolist(), self.shift.tolist()

    @property
    def columns(self) -> tuple[SubspaceIndex, ...]:
        """The addresses as SubspaceIndex objects, built from the arrays on
        each read and not kept: read it once, outside a loop."""
        return tuple(map(SubspaceIndex, *self._rows()))

    def column_index(self, p: int, k: int, kind: str, shift: int = 0) -> int:
        """0-based position of the column addressed by (p, k, kind, shift):
        ValueError unless p, k and shift are integers (shift >= 0), KeyError
        if the layout has no such column (or `kind` is not a str)."""
        p, k = positive_int(p, "p", low=None), positive_int(k, "k", low=None)
        shift = positive_int(shift, "shift", low=0)
        # canonical order sorts the columns by (p, k, shift), so a binary
        # search on each narrows them to at most an occpt cos and sin
        lo, hi = 0, len(self.periods)
        for a, v in ((self.periods, p), (self.k, k), (self.shift, shift)):
            lo, hi = (lo + a[lo:hi].searchsorted([v, v + 1])).tolist()
        kinds = self.kind[lo:hi].tolist()
        if isinstance(kind, str) and kind in kinds:
            return lo + kinds.index(kind)
        raise KeyError(f"no column {SubspaceIndex(p, k, kind, shift)} in this {self.family} layout")

    @cached_property
    def _block_plan(self):
        # (blocks, index, widths): the block periods, the read-only block
        # index of each column and each block's width phi(p) as ints
        index = np.searchsorted(self.blocks, self.periods)
        index.setflags(write=False)
        return self.blocks, index, tuple(np.bincount(index).tolist())

    @cached_property
    def _pair_positions(self):
        # (p, k, cos, sin, freq, e) over the cosine columns: the sine column
        # follows its cosine for p >= 3, and freq is k/p (0 at p = 1). The
        # degenerate periods 1 and 2 lead every ascending layout, so they
        # are the first e pairs; their sine points at their own cosine and
        # is masked out
        cos = np.flatnonzero(self.kind == COS)
        p, k = self.periods[cos], self.k[cos]
        e = int(np.searchsorted(p, 3))
        freq = k / p
        freq[:np.searchsorted(p, 2)] = 0.0
        out = p, k, cos, cos + (p >= 3), freq
        for a in out:
            a.setflags(write=False)
        return (*out, e)

    @cached_property
    def _conjugate_positions(self):
        # (lower, upper): the column of each residue k < p/2 of a dft-npm
        # layout and that of its conjugate p - k. The coprime residues of a
        # block are symmetric, so the partner of position i in a block
        # [start, end) is start + end - 1 - i; periods 1 and 2 have none
        p = self.periods
        i = np.arange(len(p))
        partner = np.searchsorted(p, p) + np.searchsorted(p, p, side="right") - 1 - i
        lower = np.flatnonzero(i < partner)
        out = lower, partner[lower]
        for a in out:
            a.setflags(write=False)
        return out

    def pair_columns(self, p: int, k: int) -> tuple[int, int | None]:
        """Positions of the cosine and sine columns of the conjugate
        subspace (p, k) of an orthogonal layout, the sine being None for the
        degenerate periods 1 and 2; KeyError if the layout has no such
        subspace."""
        _require_orthogonal("pair", self.family)
        i = self.column_index(p, k, COS)
        # the sine column follows its cosine, as in _pair_positions
        return i, (i + 1 if p >= 3 else None)

    def pairs(self, values: np.ndarray):
        """(p, k, b0, b1) arrays over the conjugate subspaces of an
        orthogonal layout, given `values` in column order: period, residue,
        cosine and sine values, the sine being 0 for the degenerate periods 1
        and 2. p and k are read-only."""
        _require_orthogonal("pairs", self.family)
        p, k, cos, sin, _, e = self._pair_positions
        b1 = values[sin]
        b1[:e] = 0
        return p, k, values[cos], b1


def _check_family(family: str) -> None:
    """Require one of FAMILIES: the one family rule."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")


def _require_orthogonal(what: str, *families: str) -> None:
    """Require the orthogonal family, whose cosine/sine pairs and packed
    layout `what` reads: the one orthogonal-only rule."""
    if any(family != OCCPT for family in families):
        raise ValueError(f"{what} requires orthogonal-family coefficients")


def _require_real(what: str, values: np.ndarray) -> None:
    """Require real values: the one real-only rule of the magnitude, phase
    and period checks."""
    if np.iscomplexobj(values):
        raise ValueError(f"{what} requires real coefficients")


def _addresses(family: str, periods: np.ndarray):
    """(periods, k, kind, shift) of each column of the blocks of `periods`,
    in canonical order: the arrays of a `ColumnLayout`."""
    # candidate residues 1..top of each period: the full residue system, or
    # its lower half (just 1 for periods 1 and 2)
    top = periods if family in (DFT_NPM, RPT) else np.maximum(periods // 2, 1)
    p = np.repeat(periods, top)
    k = np.arange(1, len(p) + 1) - np.repeat(np.cumsum(top) - top, top)
    coprime = np.gcd(k, p) == 1
    p, k = p[coprime], k[coprime]
    if family == DFT_NPM:
        return p, k, np.full(len(p), EXP), np.zeros_like(p)
    if family == RPT:
        # phi(p) downshifts of the Ramanujan sum c_p; no single residue
        shift = np.arange(len(p)) - np.searchsorted(p, p)
        return p, np.zeros_like(p), np.full(len(p), RAM), shift
    # a cos/sin (occpt) or shift 0/1 (ccpt1, ccpt2) pair per residue;
    # periods 1 and 2 keep the first column alone
    p, k, second = np.repeat(p, 2), np.repeat(k, 2), np.tile([False, True], len(p))
    keep = ~second | (p >= 3)
    p, k, second = p[keep], k[keep], second[keep]
    if family == OCCPT:
        return p, k, np.where(second, SIN, COS), np.zeros_like(p)
    return p, k, np.full(len(p), COS if family == CCPT1 else SIN), second.astype(int)


def build_columns(layout: ColumnLayout, length: int) -> np.ndarray:
    """The layout's columns tiled (and truncated) to `length` samples,
    complex for dft-npm. Each block period p has one generator segment of p
    samples in a table, laid out in the order of the layout's block plan:
    rpt's Ramanujan sum c_p, ccpt1's or ccpt2's pair sum at residue 1,
    occpt's cosine and sine pair sums at residue 1 (every sine segment
    after every cosine one), dft-npm's exponential e^(2 pi j i / p). Sample
    n of column (p, k, downshift s) is its segment's entry (k (n - s)) mod
    p, the generator at residue k (rpt's k is 0, and its segment is already
    the whole column pattern, so it reads entry (n - s) mod p). The
    pair-sum samples come from the one generator, `ccps._pair_sums`, so
    every sample is the generator at the reduced angle 2 pi r / p."""
    blocks, index, _ = layout._block_plan
    p = np.array(blocks)
    seg = np.cumsum(p) - p
    # per table entry: its block's period and its index i within that period
    q = np.repeat(p, p)
    i = np.arange(len(q)) - np.repeat(seg, p)
    start = seg[index]
    if layout.family == RPT:
        table = np.concatenate([ramanujan_sum(b) for b in blocks])
    elif layout.family == DFT_NPM:
        table = np.exp(1j * ((2.0 * np.pi / q) * i))
    elif layout.family == OCCPT:
        table = np.concatenate([_pair_sums(q, 1, i, COS), _pair_sums(q, 1, i, SIN)])
        start = np.where(layout.kind == SIN, start + len(q), start)
    else:
        table = _pair_sums(q, 1, i, COS if layout.family == CCPT1 else SIN)
    idx = np.arange(length)[:, None] - layout.shift
    if layout.family != RPT:
        idx *= layout.k
    idx %= layout.periods
    idx += start
    return table[idx]


def column_layout(family: str, N: int) -> ColumnLayout:
    """Column addresses of the size-N matrix of `family`: the blocks of the
    divisors of N, ascending. The family and N (an integer >= 1) are checked
    before the cached lookup, so a float N is rejected whatever was cached
    before."""
    _check_family(family)
    return _column_layout(family, positive_int(N, "matrix size"))


@lru_cache(maxsize=64)
def _column_layout(family: str, N: int) -> ColumnLayout:
    return ColumnLayout(family, divisors(N))


@dataclass(frozen=True, eq=False)
class PeriodicBasisMatrix(_ArrayValue):
    """An N x N basis matrix of one family.

    `entries` is dense (complex for dft-npm, real otherwise) and read-only,
    a non-empty square 2-D array; `family` is one of FAMILIES. N (the rows
    of the entries) and `layout`, the family's size-N `column_layout` that
    addresses the columns, derive from them, so the two cannot disagree.
    """

    entries: np.ndarray
    family: str

    _arrays = ("entries",)

    def __post_init__(self):
        _check_family(self.family)
        shape = getattr(self.entries, "shape", None)
        if shape is None or len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise ValueError(f"basis entries must be a non-empty square 2-D array, "
                             f"got shape {shape}")
        super().__post_init__()

    @property
    def N(self) -> int:
        return self.entries.shape[0]

    @property
    def layout(self) -> ColumnLayout:
        return column_layout(self.family, self.N)

    def subspace_columns(self, p: int) -> range:
        """Contiguous column range of the period-p block: ValueError unless
        p is an integer, KeyError if the matrix has no such block."""
        p = positive_int(p, "p", low=None)
        start, stop = np.searchsorted(self.layout.periods, [p, p + 1]).tolist()
        if start == stop:
            raise KeyError(f"{p} is not a divisor period of this matrix (N={self.N})")
        return range(start, stop)

    def scales(self) -> np.ndarray:
        """Per-column pair-scale constants (1/2 for p <= 2, else 1)."""
        return np.array([pair_scale(p) for p in self.layout.periods.tolist()])


def build_matrix(family: str, N: int) -> PeriodicBasisMatrix:
    layout = column_layout(family, N)
    # the last block period of a size-N layout is N
    return PeriodicBasisMatrix(entries=build_columns(layout, layout.blocks[-1]), family=family)


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
    """The check of one block of period p: its rank and whether every
    column is p-periodic. Derived: `width` phi(p) and `rank_ok`, whether
    the rank is phi(p)."""

    p: int
    rank: int
    periodic_ok: bool

    @property
    def width(self) -> int:
        return totient(self.p)

    @property
    def rank_ok(self) -> bool:
        return self.rank == self.width


@dataclass(frozen=True)
class ValidationReport:
    """The block checks and overall rank of an N x N basis matrix of
    `family`. Derived: `N`, the last block's period, `full_rank`
    (rank == N) and `passed`, full rank with every block's rank and
    periodicity right."""

    family: str
    blocks: tuple[BlockCheck, ...]
    rank: int

    @property
    def N(self) -> int:
        return self.blocks[-1].p

    @property
    def full_rank(self) -> bool:
        return self.rank == self.N

    @property
    def passed(self) -> bool:
        return self.full_rank and all(c.rank_ok and c.periodic_ok for c in self.blocks)

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "family": self.family,
            "rank": self.rank,
            "full_rank": self.full_rank,
            "passed": self.passed,
            "blocks": [{"p": b.p, "width": b.width, "rank": b.rank, "rank_ok": b.rank_ok,
                        "periodic_ok": b.periodic_ok} for b in self.blocks],
        }


def validate_npm(m: PeriodicBasisMatrix, tol: float = 1e-9) -> ValidationReport:
    """Check the three nested-periodic-matrix axioms: per-block rank
    phi(p), overall full rank, and exact p-periodicity of every column to
    within tol (relative to the column's largest entry, or 1), a finite
    number >= 0."""
    tol = _checked_real(tol, "tol")
    checks = []
    n = np.arange(m.N)
    for p in m.layout.blocks:
        rng = m.subspace_columns(p)
        block = m.entries[:, rng.start:rng.stop]
        periodic = bool(np.all(np.max(np.abs(block - block[n % p]), axis=0)
                               <= tol * np.maximum(1.0, np.max(np.abs(block), axis=0))))
        checks.append(BlockCheck(p=p, rank=matrix_rank(block), periodic_ok=periodic))
    return ValidationReport(family=m.family, blocks=tuple(checks), rank=matrix_rank(m.entries))


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
            {"p": p, "k": k, "kind": kind, "shift": s} for p, k, kind, s in zip(*m.layout._rows())
        ],
    }


def export_matrix_metadata(m: PeriodicBasisMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_metadata(m), fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Analysis/synthesis for the periodic transforms and their identities.

The orthogonal transform's flat layout is a packed real DFT, FFTW's
"halfcomplex" order scaled by 1/N: with X = DFT(x),

    slot K       holds  Re X[K] / N   for 0 <= K <= N/2  (cosine coefficients)
    slot N - K   holds -Im X[K] / N   for 0 <  K <  N/2  (sine coefficients)

Each conjugate subspace (p, k) owns the cosine slot N*k/p and, for p >= 3,
the sine slot N - N*k/p. Analysis and synthesis are therefore one
rfft/irfft plus O(N) packing at any N, and the identities (DFT bridge,
circular shift, convolution, energy, band masks) are O(N) array operations
on the (K, N-K) slot pairs. The DFT bridge writes its bins in place, into
one complex array.

Every angle of the shift and of the ccpt1/ccpt2 pair maps is a multiple of
2*pi/N, so both read one read-only rotation table per N, cos and sin of
(2*pi/N)*j for j = 0..N-1 (`_rotations`: 16*N bytes per cached size, up to
64 sizes), and call no trig: the shift gathers the table at K*delay mod N,
and the pair maps read cached views of its entries 1..(N-1)//2.

The dft-npm column (p, k) is the complex exponential of DFT bin k*N/p, so
its analysis is the FFT scaled by 1/N and gathered into column order, and
its synthesis the inverse.

Column order itself is decided in one place, `matrices.column_layout`. This
module keeps only the packed-format rule above: the slot of each orthogonal
column and the bin of each dft-npm column are computed from the layout's
(p, k, kind) arrays, once per N. What each cached size holds, in bytes
per sample, is stated once, in the README's "Per-N caches".

The ccpt1 and ccpt2 columns span the same period-p subspaces as the
orthogonal ones, and in canonical column order each of their columns sits
at the position of an orthogonal column of the same subspace. Their
coefficients are a real block-diagonal change of basis of the packed
orthogonal coefficients, applied in place:

  ccpt1         per slot pair (K, N-K), with theta = 2*pi*K/N, the shifted
                column is a rotation of the unshifted pair, so a 2 x 2 map
                (the sine of theta being its determinant)
  ccpt2         a type-2 pair is the type-1 pair turned a quarter, so the
                ccpt1 map runs after (b0, b1) -> (b1, -b0) in analysis and
                before (u, v) -> (-v, u) in synthesis

The rpt coefficients need no FFT: block p's coefficient polynomial is the
signal folded modulo p, reduced modulo the cyclotomic polynomial Phi_p and
divided by N, and synthesis is a sum of tiled folds by the Moebius
expansion of the Ramanujan sums. Both are integer index maps over the
divisors, built once per N (`_rpt_plan`).

Periods 1 and 2 share their single column with the orthogonal family. No
path builds the dense N x N basis, inverts a block or has a size cap; dense
matrices serve only validation and export.

Every array enters in one working precision: samples and coefficients are
float64, or complex128 when complex, whatever their dtype
(`signals._double`), so every family computes in double. Every family but
dft-npm is a real map: a complex input runs it once on the real part and
once on the imaginary part (`_by_parts`), and the coefficients come back as
one complex flat array. The fast transform and the dictionary solves split
complex input through the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ccps import COS, SIN, _pair_sums
from .matrices import (CCPT2, DFT_NPM, OCCPT, RPT, ColumnLayout, _ArrayValue, _check_family,
                       _require_orthogonal, _require_real, column_layout)
# unused here; the benchmark's tracer wraps this module attribute by name
from .matrices import cached_matrix  # noqa: F401
from .numtheory import cyclotomic, mobius, positive_int, prime_factors, radical, totient
from .signals import _checked_real, _checked_samples, _double

__all__ = [
    "CoefficientSet",
    "occpt_analysis", "occpt_synthesis",
    "analyze", "synthesize",
    "dft_from_occpt", "shift_coefficients", "convolve_coefficients",
    "parseval_energy", "coefficient_period_check", "band_filter",
    "coefficients_to_dict",
]


def _bins(layout: ColumnLayout, N: int) -> np.ndarray:
    """DFT bin N*k/p mod N of each column of a size-N layout; the p = 1
    column lands on bin N, which is bin 0."""
    return (N // layout.periods) * layout.k % N


@lru_cache(maxsize=64)
def _occpt_slots(N: int) -> np.ndarray:
    """Packed slot of each orthogonal column in column order (read-only):
    its bin K for a cosine, N - K for a sine. The rpt, ccpt1 and ccpt2
    columns sit at the same positions."""
    layout = column_layout(OCCPT, N)
    K = _bins(layout, N)
    slots = np.where(layout.kind == SIN, N - K, K)
    slots.setflags(write=False)
    return slots


@lru_cache(maxsize=64)
def _dft_bins(N: int) -> np.ndarray:
    """DFT bin of each dft-npm column in column order (read-only)."""
    bins = _bins(column_layout(DFT_NPM, N), N)
    bins.setflags(write=False)
    return bins


def _pair_count(N: int) -> int:
    """Number of (K, N-K) slot pairs: the subspaces with period >= 3."""
    return (N - 1) // 2


@dataclass(frozen=True, eq=False)
class CoefficientSet(_ArrayValue):
    """Transform coefficients with flat and subspace-indexed views.

    For the orthogonal family `flat` is frequency-ordered (see module
    docstring); for the other families it follows the matrix column order.
    Both views read the same array. `flat` must be numeric, 1-D, of length
    N. It is stored as float64, or complex128 when complex (`_double`), so
    the identities and the JSON run in double for any set; the set keeps a
    read-only view, so the caller's array stays writable.
    """

    N: int
    family: str
    flat: np.ndarray

    _arrays = ("flat",)

    def __post_init__(self):
        _check_family(self.family)
        object.__setattr__(self, "N", positive_int(self.N, "N"))
        object.__setattr__(self, "flat", _double(np.asarray(self.flat), "CoefficientSet flat"))
        if self.flat.shape != (self.N,):
            raise ValueError(f"flat must be 1-D of length N={self.N}, got shape {self.flat.shape}")
        super().__post_init__()

    @property
    def is_complex(self) -> bool:
        return bool(np.iscomplexobj(self.flat))

    def flat_index(self, p: int, k: int, kind: str, shift: int = 0) -> int:
        """Flat position of column (p, k, kind, shift); KeyError if none."""
        i = column_layout(self.family, self.N).column_index(p, k, kind, shift)
        return int(_occpt_slots(self.N)[i]) if self.family == OCCPT else i

    def value(self, p: int, k: int, kind: str, shift: int = 0):
        return self.flat[self.flat_index(p, k, kind, shift)]

    def pair(self, p: int, k: int):
        """Cosine/sine coefficient pair of the conjugate subspace (p, k);
        the sine slot is 0 for the degenerate periods 1 and 2
        (`ColumnLayout.pair_columns`)."""
        i, j = column_layout(self.family, self.N).pair_columns(p, k)
        slots = _occpt_slots(self.N)
        b0 = self.flat[slots[i]]
        return b0, (type(b0)(0) if j is None else self.flat[slots[j]])

    def pairs(self):
        """(p, k, b0, b1) arrays over the conjugate subspaces in canonical
        order: period, residue, cosine and sine coefficients, the sine being
        0 for the degenerate periods 1 and 2 (`ColumnLayout.pairs`)."""
        return column_layout(self.family, self.N).pairs(self.column_values())

    def items(self):
        """(column address, coefficient) pairs in canonical column order."""
        return list(zip(column_layout(self.family, self.N).columns, self.column_values()))

    def column_order(self) -> np.ndarray:
        """Flat index of each coefficient in matrix column order (read-only)."""
        if self.family == OCCPT:
            return _occpt_slots(self.N)
        # the other families' flat layout is already column order
        order = np.arange(self.N)
        order.setflags(write=False)
        return order

    def column_values(self) -> np.ndarray:
        """Coefficients rearranged into matrix column order; the read-only
        `flat` itself for the families whose flat layout is column order."""
        if self.family == OCCPT:
            return self.flat[_occpt_slots(self.N)]
        return self.flat


def _forward_real(x: np.ndarray) -> np.ndarray:
    """Packed real DFT of a real signal, scaled by 1/N."""
    N = len(x)
    h, m = N // 2, _pair_count(N)
    R = np.fft.rfft(x, norm="forward")
    flat = np.empty(N)
    flat[:h + 1] = R.real
    flat[h + 1:] = -R.imag[m:0:-1]
    return flat


def _inverse_real(flat: np.ndarray) -> np.ndarray:
    """Inverse of _forward_real."""
    N = len(flat)
    h, m = N // 2, _pair_count(N)
    R = np.zeros(h + 1, dtype=complex)
    R.real = flat[:h + 1]
    R.imag[1:m + 1] = -flat[:h:-1]
    return np.fft.irfft(R, n=N, norm="forward")


def occpt_analysis(x) -> CoefficientSet:
    """Orthogonal-transform coefficients of a length-N signal.

    Real input gives a real flat array; complex input is transformed part by
    part and combined as beta = beta_re + 1j*beta_im.
    """
    x = _checked_samples(x, "occpt_analysis")
    return CoefficientSet(N=len(x), family=OCCPT, flat=_by_parts(_real_analysis, x, OCCPT))


def occpt_synthesis(c: CoefficientSet) -> np.ndarray:
    """Exact inverse of occpt_analysis."""
    _require_orthogonal("occpt_synthesis", c.family)
    return _by_parts(_real_synthesis, c.flat, OCCPT)


@lru_cache(maxsize=64)
def _rotations(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one per-N trig table, read-only: cos and sin of 2*pi*j/N for
    j = 0..N-1, then their views at the slot pairs K = 1..(N-1)//2. Every
    angle of the shift and the pair maps is one of these, 16*N bytes."""
    theta = (2 * np.pi / N) * np.arange(N)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cos_t.setflags(write=False)
    sin_t.setflags(write=False)
    m = _pair_count(N)
    return cos_t, sin_t, cos_t[1:m + 1], sin_t[1:m + 1]


def _power_residues(r: int, count: int) -> np.ndarray:
    """phi x count integer table, phi = totient(r), whose column c holds the
    coefficients of z^(phi + c) mod Phi_r, constant term first."""
    low = cyclotomic(r)[:-1]
    table = np.empty((len(low), count), dtype=np.int64)
    v = -low
    for c in range(count):
        table[:, c] = v
        v = np.concatenate([[0], v[:-1]]) - v[-1] * low
    return table


def _segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment and position within it of each entry of consecutive segments
    of the given lengths."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


@lru_cache(maxsize=32)
def _rpt_plan(N: int):
    """Index maps of the rpt analysis and synthesis: O(N*d(N)) integers and
    an integer reduction table per radical of two or more primes, with no
    FFT and no inverse. A tuple (slots, tree, head, tails, terms) of ints,
    tuples and read-only arrays.

    Column j of block p is c_p(n - j). Let Y_p(z) be the polynomial of x
    folded modulo p, y_p[m] = sum of x[n] over n = m (mod p). At every
    primitive p-th root of unity Y_p takes N times the value of the block's
    coefficient polynomial A_p, of degree < phi(p), so A_p = (Y_p mod Phi_p)/N
    (Vaidyanathan, IEEE TSP 2014, on the Ramanujan subspaces). The folds of
    all divisors sit end to end in one vector of `slots` values, ascending,
    with a spare zero last; `tree` folds each p < N, descending, from its
    multiple m = p*q with q the smallest prime of N/p: (slot of p, p,
    slot of m, q).

    The remainder takes two steps. With q the smallest prime of p, Phi_p
    divides 1 + z^(p/q) + ... + z^((q-1)p/q), so subtracting the last of
    the q runs of p/q folded samples from the other runs leaves L = p - p/q
    head-reduced terms t (one for p = 1): `head` gives the slot each term
    reads and the slot it subtracts (the spare zero for p = 1). The phi(p)
    low terms of every block come first, in column order, so t[:N] are the
    coefficients; each block's L - phi(p) extra terms follow. Prime powers
    have none, as L = phi(p). Otherwise, with r the radical of p and
    s = p/r, Phi_p(z) = Phi_r(z^s): the block's terms form an (L/s) x s
    array, and rows phi(r) onward fold onto the first phi(r) rows through
    the integer table E_r of z^(phi(r) + c) mod Phi_r. The blocks of one
    radical share one product in `tails`: (E_r, the extra terms read, the
    columns they add to).

    Synthesis expands c_p(n) = sum over d | gcd(n, p) of mobius(p/d)*d, so
    x = sum over d | N of w_d tiled, w_d[m] the sum of mobius(p/d)*d*a_(p,j)
    over the columns (p, j) with d | p and j = m (mod d). `terms` holds the
    (column, slot, weight) triples of that sum, and `tree`, run ascending,
    tiles each w_p onto its multiple."""
    # the rpt layout's blocks and widths, so each block's first column is the layout's
    ds, _, widths = column_layout(RPT, N)._block_plan
    p, widths = np.array(ds), np.array(widths)
    slot = np.cumsum(p) - p
    first = np.cumsum(widths) - widths
    zero = int(p.sum())
    index = {d: i for i, d in enumerate(ds)}

    tree = []
    for i in reversed(range(len(ds) - 1)):
        q = prime_factors(N // ds[i])[0]
        tree.append((int(slot[i]), ds[i], int(slot[index[ds[i] * q]]), q))

    run = p // np.array([1] + [prime_factors(d)[0] for d in ds[1:]])
    # each block's extra terms, and the position in t of its first one
    extra = np.maximum(p - run, widths) - widths
    start = N + np.cumsum(extra) - extra
    block, j = _segments(widths + extra)
    # the coefficient terms of every block, then the extra ones
    order = np.argsort(j >= widths[block], kind="stable")
    block, j = block[order], j[order]
    head = np.stack([slot[block] + j, (slot + p - run)[block] + j % run[block]])
    head[1, 0] = zero  # period 1 has no run to subtract
    head.setflags(write=False)

    groups = {}
    for i, d in enumerate(ds[1:], 1):
        groups.setdefault(radical(d), []).append(i)
    tails = []
    for r, group in groups.items():
        phi, length = totient(r), r - r // prime_factors(r)[0]
        if length == phi:
            continue
        read, columns = [], []
        for i in group:
            s = ds[i] // r
            k = np.arange(length * s).reshape(length, s)
            read.append(k[phi:] + (start[i] - phi * s))
            columns.append(k[:phi] + first[i])
        tail = (_power_residues(r, length - phi).astype(float),
                np.concatenate(read, axis=1), np.concatenate(columns, axis=1))
        for a in tail:
            a.setflags(write=False)
        tails.append(tail)

    # (block p, divisor d, mobius(p/d)*d) of each nonzero Moebius term
    mu = [mobius(d) for d in ds]
    pairs = [(b, i, mu[index[pb // d]] * d) for b, pb in enumerate(ds)
             for i, d in enumerate(ds[:b + 1]) if pb % d == 0 and mu[index[pb // d]]]
    blk, sub, weight = np.array(pairs).T
    term, j = _segments(widths[blk])
    blk, sub = blk[term], sub[term]
    terms = first[blk] + j, slot[sub] + j % p[sub], weight[term].astype(float)
    for a in terms:
        a.setflags(write=False)
    return zero + 1, tuple(tree), head, tuple(tails), terms


def _rpt_analysis(x: np.ndarray) -> np.ndarray:
    """rpt coefficients in column order of a real signal (see _rpt_plan)."""
    N = len(x)
    slots, tree, head, tails, _ = _rpt_plan(N)
    y = np.zeros(slots)
    y[-1 - N:-1] = x
    for at, p, src, q in tree:
        np.add.reduce(y[src:src + q * p].reshape(q, p), 0, out=y[at:at + p])
    t = y[head[0]] - y[head[1]]
    for table, read, columns in tails:
        t[columns] += table @ t[read]
    return t[:N] / N


def _rpt_synthesis(a: np.ndarray) -> np.ndarray:
    """Real signal of real rpt coefficients a in column order."""
    N = len(a)
    slots, tree, _, _, (col, to, weight) = _rpt_plan(N)
    w = np.bincount(to, a[col] * weight, slots)
    for at, p, src, q in reversed(tree):
        multiple = w[src:src + q * p].reshape(q, p)
        np.add(multiple, w[at:at + p], out=multiple)
    return w[-1 - N:-1]


def _by_parts(f, v: np.ndarray, *args) -> np.ndarray:
    """f(v, *args) of a real array v, or f of the real part plus 1j times f
    of the imaginary part of a complex one: the one complex split of every
    real map, the real families, the fast transform and the dictionary
    solves."""
    if v.dtype.kind == "c":
        return f(v.real, *args) + 1j * f(v.imag, *args)
    return f(v, *args)


def _from_packed(b: np.ndarray, family: str) -> np.ndarray:
    """ccpt1/ccpt2 coefficients in column order from packed orthogonal
    coefficients b, which the map overwrites."""
    N = len(b)
    _, _, cos_t, sin_t = _rotations(N)
    b0, b1 = _pairs(b)
    if family == CCPT2:
        # a ccpt2 pair is a ccpt1 pair turned a quarter: undo the turn
        b0[:], b1[:] = b1, -b0
    # b0 = a0 + a1*cos, b1 = a1*sin
    a1 = b1 / sin_t
    b0 -= a1 * cos_t
    b1[:] = a1
    return b[_occpt_slots(N)]


def _to_packed(a: np.ndarray, family: str) -> np.ndarray:
    """Packed orthogonal coefficients of ccpt1/ccpt2 coefficients a in
    column order: the inverse of _from_packed."""
    N = len(a)
    b = np.empty(N)
    b[_occpt_slots(N)] = a
    _, _, cos_t, sin_t = _rotations(N)
    a0, a1 = _pairs(b)
    a0 += a1 * cos_t
    a1 *= sin_t
    if family == CCPT2:
        a0[:], a1[:] = -a1, a0.copy()
    return b


def _real_analysis(x: np.ndarray, family: str) -> np.ndarray:
    """Coefficients of a real signal for a real family: packed for occpt,
    in column order otherwise."""
    if family == RPT:
        return _rpt_analysis(x)
    b = _forward_real(x)
    return b if family == OCCPT else _from_packed(b, family)


def _real_synthesis(a: np.ndarray, family: str) -> np.ndarray:
    """Real signal of the real coefficients a of a real family: the inverse
    of _real_analysis."""
    if family == RPT:
        return _rpt_synthesis(a)
    return _inverse_real(a if family == OCCPT else _to_packed(a, family))


def analyze(x, family: str) -> CoefficientSet:
    """Family-dispatching analysis: the orthogonal family is the packed real
    FFT, dft-npm the gathered complex FFT, ccpt1 and ccpt2 a 2 x 2 map per
    slot pair of the packed coefficients, and rpt a fold of the signal
    reduced modulo the cyclotomic polynomials (see the module docstring).
    Any length N. Every family but dft-npm analyses a complex signal part by
    part.

    Every analysis entry point takes a Signal or array-like of finite
    samples, nonempty and 1-D, and raises ValueError otherwise.
    """
    _check_family(family)
    x = _checked_samples(x, "analyze")
    N = len(x)
    if family == DFT_NPM:
        flat = np.fft.fft(x)[_dft_bins(N)] / N
    else:
        flat = _by_parts(_real_analysis, x, family)
    return CoefficientSet(N=N, family=family, flat=flat)


def synthesize(c: CoefficientSet) -> np.ndarray:
    """Signal of a coefficient set of any family: the inverse of analyze."""
    if c.family == DFT_NPM:
        bins = np.zeros(c.N, dtype=complex)
        bins[_dft_bins(c.N)] = c.flat
        return np.fft.ifft(bins) * c.N
    return _by_parts(_real_synthesis, c.flat, c.family)


def _pairs(flat: np.ndarray):
    """Views of the cosine slots K and sine slots N-K, K = 1..(N-1)//2,
    aligned so that entry i of both belongs to one subspace."""
    m = _pair_count(len(flat))
    return flat[1:m + 1], flat[len(flat) - m:][::-1]


def dft_from_occpt(c: CoefficientSet) -> np.ndarray:
    """DFT bins from orthogonal-transform coefficients.

    Bin 0 (and bin N/2 for even N) is N times its cosine slot; bins K and
    N - K of a slot pair are N*(b0 - j*b1) and N*(b0 + j*b1).
    """
    _require_orthogonal("dft_from_occpt", c.family)
    N, flat = c.N, c.flat
    X = np.empty(N, dtype=complex)
    X[0] = N * flat[0]
    if N % 2 == 0:
        X[N // 2] = N * flat[N // 2]
    b0, b1 = _pairs(flat)
    lo_re, hi_re = _pairs(X.real)
    lo_im, hi_im = _pairs(X.imag)
    if c.is_complex:
        # N*(b0 -+ j*b1) part by part, each sum taken before the scaling
        (r0, i0), (r1, i1) = (b0.real, b0.imag), (b1.real, b1.imag)
        np.add(r0, i1, out=lo_re)
        np.subtract(i0, r1, out=lo_im)
        np.subtract(r0, i1, out=hi_re)
        np.add(i0, r1, out=hi_im)
        for part in (lo_re, lo_im, hi_re, hi_im):
            part *= N
    else:
        np.multiply(N, b0, out=lo_re)
        hi_re[:] = lo_re
        np.multiply(N, b1, out=hi_im)
        np.negative(hi_im, out=lo_im)
    return X


def shift_coefficients(c: CoefficientSet, m: int) -> CoefficientSet:
    """Coefficients of the signal circularly delayed by m samples.

    The pair of slot K rotates by 2*pi*K*delay/N with delay = (-m) mod N,
    the product K*delay reduced mod N before scaling; the degenerate slots 0
    and N/2 scale by the cosine alone. m must be an integer (Python or
    NumPy)."""
    _require_orthogonal("shift_coefficients", c.family)
    m = positive_int(m, "shift m", low=None)
    N = c.N
    # the angle of slot K is entry K*delay mod N of the rotation table
    j = (np.arange(N // 2 + 1) * ((-m) % N)) % N
    cos_n, sin_n, _, _ = _rotations(N)
    cos_t, sin_t = cos_n[j], sin_n[j]
    out = np.empty_like(c.flat)
    out[:N // 2 + 1] = cos_t * c.flat[:N // 2 + 1]
    b0, b1 = _pairs(c.flat)
    lo, hi = _pairs(out)
    m_pairs = _pair_count(N)
    cos_p, sin_p = cos_t[1:m_pairs + 1], sin_t[1:m_pairs + 1]
    lo[:] = cos_p * b0 + sin_p * b1
    hi[:] = cos_p * b1 - sin_p * b0
    return CoefficientSet(N=N, family=OCCPT, flat=out)


def convolve_coefficients(a: CoefficientSet, b: CoefficientSet) -> CoefficientSet:
    """Coefficients of the circular convolution of the two underlying
    signals; commutative in (a, b).

    Every slot pair multiplies as the complex numbers b0 - j*b1, scaled by
    N; the degenerate slots 0 and N/2 multiply as reals."""
    _require_orthogonal("convolve_coefficients", a.family, b.family)
    if a.N != b.N:
        raise ValueError(f"size mismatch: {a.N} vs {b.N}")
    N = a.N
    out = N * a.flat * b.flat
    a0, a1 = _pairs(a.flat)
    b0, b1 = _pairs(b.flat)
    lo, hi = _pairs(out)
    lo[:] = N * (a0 * b0 - a1 * b1)
    hi[:] = N * (a1 * b0 + a0 * b1)
    return CoefficientSet(N=N, family=OCCPT, flat=out)


def parseval_energy(c: CoefficientSet) -> float:
    """Signal energy recovered from orthogonal coefficients: N times the
    squared DC (and Nyquist, when present) plus 2N times every other square."""
    _require_orthogonal("parseval_energy", c.family)
    N = c.N
    sq = np.abs(c.flat) ** 2
    edges = sq[0] + (sq[N // 2] if N % 2 == 0 else 0.0)
    return float(N * (2 * np.sum(sq) - edges))


def coefficient_period_check(c: CoefficientSet, k_multiple: int = 1, tol: float = 1e-12,
                             x=None) -> bool:
    """Check that the analysis sums of the signal x against the pair sums
    at residue k + k_multiple*N equal the stored coefficients to within tol.
    The pair-sum generator reduces the residue times n mod p before scaling,
    so every k_multiple reads the same columns bit for bit: periodicity in k
    holds by construction, and the check shows that the set equals the pair
    sums of x. A set that is not the analysis of x fails. Without x the sums
    are those of the set's own synthesis; every real coefficient set is the
    analysis of its synthesis, so that form cannot detect a changed
    coefficient and measures only rounding. k_multiple must be an integer
    (Python or NumPy), of either sign; x, when given, a finite signal of
    length N.

    Test utility, for the small N its callers use (up to 54): it builds the
    cosine and sine pair sums of all N columns at once, two N x N arrays."""
    _require_orthogonal("coefficient_period_check", c.family)
    _require_real("coefficient_period_check", c.flat)
    _checked_real(tol, "tol")
    k_multiple = positive_int(k_multiple, "k_multiple", low=None)
    N = c.N
    if x is None:
        x = occpt_synthesis(c)
    else:
        x = _checked_samples(x, "coefficient_period_check")
        if len(x) != N:
            raise ValueError(f"signal length {len(x)} does not match the coefficient set's {N}")
    layout = column_layout(OCCPT, N)
    p, k, n = layout.periods, layout.k + k_multiple * N, np.arange(N)[:, None]
    # each column's pair sum at residue k + k_multiple*N; a pair sum has
    # norm^2 2N, or N for the single columns of periods 1 and 2
    columns = np.where(layout.kind == SIN, _pair_sums(p, k, n, SIN), _pair_sums(p, k, n, COS))
    sums = x @ columns / np.where(p <= 2, N, 2 * N)
    return bool(np.all(np.abs(sums - c.column_values()) <= tol))


def band_filter(coeffs: CoefficientSet, fs: float, low_hz: float, high_hz: float) -> CoefficientSet:
    """Zero every component whose frequency k*fs/p lies outside [low, high]
    and return the filtered coefficient set. DC survives only when the band
    includes 0."""
    fs = _checked_real(fs, "sample rate fs", open_low=True)
    _checked_real(high_hz, "band edge high_hz", 0.0, fs / 2 + 1e-12)
    _checked_real(low_hz, "band edge low_hz", 0.0, high_hz)
    N = coeffs.N
    # cosine slot K of subspace (p, k) has K/N == k/p as rationals, so the
    # correctly rounded quotients are the same float
    f = np.arange(N // 2 + 1) / N * fs
    keep = np.empty(N, dtype=bool)
    keep[:N // 2 + 1] = (low_hz <= f) & (f <= high_hz)
    lo, hi = _pairs(keep)
    hi[:] = lo
    if coeffs.family == DFT_NPM:
        # bins K and N - K share the frequency of cosine slot K, and so do
        # slots K and N - K: the slot mask is also the bin mask
        keep = keep[_dft_bins(N)]
    elif coeffs.family != OCCPT:
        keep = keep[_occpt_slots(N)]
    if coeffs.family == RPT:
        # Ramanujan columns mix every coprime frequency of p; keep the
        # subspace when any of its lines falls in the band
        periods = column_layout(RPT, N).periods
        keep = (np.bincount(periods, weights=keep, minlength=N + 1) > 0)[periods]
    flat = np.array(coeffs.flat)
    flat[~keep] = 0.0
    return CoefficientSet(N=N, family=coeffs.family, flat=flat)


def _nums(values: np.ndarray) -> list:
    if np.iscomplexobj(values):
        return [{"re": re, "im": im} for re, im in zip(values.real.tolist(), values.imag.tolist())]
    return values.tolist()


def coefficients_to_dict(c: CoefficientSet) -> dict:
    """JSON-ready view carrying both layouts."""
    rows = column_layout(c.family, c.N)._rows()
    return {
        "N": c.N,
        "family": c.family,
        "flat": _nums(c.flat),
        "indexed": [
            {"p": p, "k": k, "kind": kind, "shift": s, "value": v}
            for p, k, kind, s, v in zip(*rows, _nums(c.column_values()))
        ],
    }

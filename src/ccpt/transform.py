"""Analysis/synthesis for the periodic transforms and their identities.

The orthogonal transform's flat layout is a packed real DFT, FFTW's
"halfcomplex" order scaled by 1/N: with X = DFT(x),

    slot K       holds  Re X[K] / N   for 0 <= K <= N/2  (cosine coefficients)
    slot N - K   holds -Im X[K] / N   for 0 <  K <  N/2  (sine coefficients)

Each conjugate subspace (p, k) owns the cosine slot N*k/p and, for p >= 3,
the sine slot N - N*k/p. Analysis and synthesis are therefore one
rfft/irfft plus O(N) packing at any N, and the identities (DFT bridge,
circular shift, convolution, energy, band masks) are O(N) array operations
on the (K, N-K) slot pairs.

The dft-npm column (p, k) is the complex exponential of DFT bin k*N/p, so
its analysis is the FFT scaled by 1/N and gathered into column order, and
its synthesis the inverse.

The rpt, ccpt1 and ccpt2 columns span the same period-p subspaces as the
orthogonal ones, and in canonical column order each of their columns sits
at the position of an orthogonal column of the same subspace. Their
coefficients are a real block-diagonal change of basis of the packed
orthogonal coefficients, applied in place:

  ccpt1, ccpt2  per slot pair (K, N-K), with theta = 2*pi*K/N, the shifted
                column is a rotation of the unshifted pair, so a 2 x 2 map
                (the sine of theta being its determinant)
  rpt           per divisor p >= 3, the phi(p) Ramanujan-sum columns
                against the pairs of block p, a small cached inverse

Periods 1 and 2 share their single column with the orthogonal family. No
path builds the dense N x N basis or has a size cap (rpt's largest block,
p = N, is phi(N) square); dense matrices serve only validation and export.

Complex inputs run the real FFT on real and imaginary parts and carry the
coefficients as one complex flat array; the maps above are real, so they
apply to that array as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ccps import COS, SIN, ccps, pair_scale
from .matrices import CCPT1, DFT_NPM, FAMILIES, OCCPT, RPT, column_layout
# unused here; the benchmark's tracer wraps this module attribute by name
from .matrices import cached_matrix  # noqa: F401
from .numtheory import divisors, half_residues
from .signals import _checked_samples

__all__ = [
    "CoefficientSet",
    "occpt_analysis", "occpt_synthesis",
    "analyze", "synthesize",
    "dft_from_occpt", "shift_coefficients", "convolve_coefficients",
    "parseval_energy", "coefficient_period_check", "band_filter",
    "coefficients_to_dict",
]


@dataclass(frozen=True)
class _BinOrder:
    """Per-N index arrays of the packed layout, shared read-only."""

    period: np.ndarray       # N / gcd(K, N): period of the subspace owning bin or slot K
    residue: np.ndarray      # K / gcd(K, N), with 1 for K = 0 as half_residues(1) has it
    occpt_order: np.ndarray  # flat slots in canonical column order
    cos_order: np.ndarray    # cosine slots in canonical order, one per conjugate subspace
    dft_order: np.ndarray    # DFT bins in dft-npm column order


@lru_cache(maxsize=64)
def _bin_order(N: int) -> _BinOrder:
    K = np.arange(N)
    g = np.gcd(K, N)
    period = N // g
    residue = K // g
    residue[0] = 1
    sine = K > N // 2
    # a sine slot K belongs to the subspace of its cosine partner N - K
    lower = np.where(sine, period - residue, residue)
    occpt_order = np.lexsort((sine, lower, period))
    out = _BinOrder(period=period, residue=residue, occpt_order=occpt_order,
                    cos_order=occpt_order[~sine[occpt_order]],
                    dft_order=np.lexsort((residue, period)))
    for a in vars(out).values():
        a.setflags(write=False)
    return out


def _pair_count(N: int) -> int:
    """Number of (K, N-K) slot pairs: the subspaces with period >= 3."""
    return (N - 1) // 2


@dataclass(frozen=True)
class CoefficientSet:
    """Transform coefficients with flat and subspace-indexed views.

    For the orthogonal family `flat` is frequency-ordered (see module
    docstring); for the other families it follows the matrix column order.
    Both views read the same array. `flat` must be 1-D of length N; the set
    keeps a read-only view of it, so the caller's array stays writable.
    """

    N: int
    family: str
    flat: np.ndarray

    def __post_init__(self):
        flat = np.asarray(self.flat).view()
        if flat.shape != (self.N,):
            raise ValueError(f"flat must be 1-D of length N={self.N}, got shape {flat.shape}")
        flat.setflags(write=False)
        object.__setattr__(self, "flat", flat)

    @property
    def is_complex(self) -> bool:
        return bool(np.iscomplexobj(self.flat))

    def flat_index(self, p: int, k: int, kind: str, shift: int = 0) -> int:
        if self.family == OCCPT:
            if kind == COS:
                return (self.N * k // p) % self.N
            if kind == SIN:
                if p <= 2:
                    raise KeyError(f"no sine coefficient for p={p}")
                return self.N - self.N * k // p
            raise KeyError(f"no {kind!r} coefficients in the orthogonal family")
        return column_layout(self.family, self.N).column_index(p, k, kind, shift)

    def value(self, p: int, k: int, kind: str, shift: int = 0):
        return self.flat[self.flat_index(p, k, kind, shift)]

    def pair(self, p: int, k: int):
        """Cosine/sine coefficient pair of the conjugate subspace (p, k);
        the sine slot is 0 for the degenerate periods 1 and 2."""
        if self.family != OCCPT:
            raise ValueError("pair view requires the orthogonal family")
        b0 = self.flat[self.flat_index(p, k, COS)]
        b1 = self.flat[self.flat_index(p, k, SIN)] if p >= 3 else type(b0)(0)
        return b0, b1

    def pairs(self):
        """(p, k, b0, b1) arrays over the conjugate subspaces in canonical
        order: period, residue, cosine and sine coefficients, the sine being
        0 for the degenerate periods 1 and 2."""
        if self.family != OCCPT:
            raise ValueError("pair view requires the orthogonal family")
        order = _bin_order(self.N)
        K = order.cos_order
        p = order.period[K]
        b1 = np.where(p >= 3, self.flat[(self.N - K) % self.N], 0)
        return p, order.residue[K], self.flat[K], b1

    def flat_periods(self) -> np.ndarray:
        """Period p of the subspace each flat entry belongs to."""
        if self.family == OCCPT:
            return _bin_order(self.N).period
        return column_layout(self.family, self.N).periods

    def items(self):
        """(column address, coefficient) pairs in canonical column order."""
        return list(zip(column_layout(self.family, self.N).columns, self.column_values()))

    def column_order(self) -> np.ndarray:
        """Flat index of each coefficient in matrix column order."""
        if self.family == OCCPT:
            return _bin_order(self.N).occpt_order
        return np.arange(self.N)

    def column_values(self) -> np.ndarray:
        """Coefficients rearranged into matrix column order."""
        return self.flat[self.column_order()]


def _forward_real(x: np.ndarray) -> np.ndarray:
    """Packed real DFT of each row of x, scaled by 1/N."""
    N = x.shape[-1]
    h, m = N // 2, _pair_count(N)
    R = np.fft.rfft(x) / N
    flat = np.empty(x.shape)
    flat[..., :h + 1] = R.real
    flat[..., h + 1:] = -R.imag[..., m:0:-1]
    return flat


def _inverse_real(flat: np.ndarray) -> np.ndarray:
    """Inverse of _forward_real, row by row."""
    N = flat.shape[-1]
    h, m = N // 2, _pair_count(N)
    R = np.zeros(flat.shape[:-1] + (h + 1,), dtype=complex)
    R.real = flat[..., :h + 1]
    R.imag[..., 1:m + 1] = -flat[..., :h:-1]
    return np.fft.irfft(R, n=N) * N


def _parts(v: np.ndarray) -> np.ndarray:
    return np.stack([v.real, v.imag])


def _packed(x: np.ndarray) -> np.ndarray:
    """Packed orthogonal coefficients of a real or complex signal."""
    if np.iscomplexobj(x):
        re, im = _forward_real(_parts(x))
        return re + 1j * im
    return _forward_real(x.astype(float))


def _unpacked(flat: np.ndarray) -> np.ndarray:
    """Signal of packed orthogonal coefficients, real or complex."""
    if np.iscomplexobj(flat):
        re, im = _inverse_real(_parts(flat))
        return re + 1j * im
    return _inverse_real(flat)


def occpt_analysis(x) -> CoefficientSet:
    """Orthogonal-transform coefficients of a length-N signal.

    Real input gives a real flat array; complex input is transformed part by
    part and combined as beta = beta_re + 1j*beta_im.
    """
    x = _checked_samples(x, "occpt_analysis")
    return CoefficientSet(N=len(x), family=OCCPT, flat=_packed(x))


def occpt_synthesis(c: CoefficientSet) -> np.ndarray:
    """Exact inverse of occpt_analysis."""
    if c.family != OCCPT:
        raise ValueError("occpt_synthesis requires orthogonal-family coefficients")
    return _unpacked(c.flat)


@lru_cache(maxsize=64)
def _pair_angles(N: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of theta = 2*pi*K/N for the slot pairs K = 1..(N-1)//2."""
    theta = (2 * np.pi / N) * np.arange(1, _pair_count(N) + 1)
    out = np.cos(theta), np.sin(theta)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _ramanujan_blocks(N: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """(slots, B, inverse) per divisor p >= 3: `slots` holds the packed slots
    of the block's (cosine, sine) pairs in canonical column order, which are
    also the positions of its rpt columns; B maps the block's rpt
    coefficients to those pairs, B[(k, cos|sin), j] =
    cos|sin(2*pi*(k*j mod p)/p), and `inverse` undoes it."""
    # column j of block p is c_p(n - j) = sum over k of 2*cos(theta_k*(n - j)),
    # theta_k = 2*pi*k/p, k over the half residues: cos(theta_k*j) times the
    # cosine column of (p, k) plus sin(theta_k*j) times its sine column
    order = _bin_order(N)
    periods = order.period[order.occpt_order]
    blocks = []
    for p in divisors(N):
        if p <= 2:
            continue
        start, stop = np.searchsorted(periods, [p, p + 1])
        k = np.array(half_residues(p))
        angles = (2 * np.pi / p) * ((k[:, None] * np.arange(stop - start)) % p)
        B = np.empty((stop - start, stop - start))
        B[0::2], B[1::2] = np.cos(angles), np.sin(angles)
        inverse = np.linalg.inv(B)
        B.setflags(write=False)
        inverse.setflags(write=False)
        blocks.append((order.occpt_order[start:stop], B, inverse))
    return tuple(blocks)


def _from_packed(b: np.ndarray, family: str) -> np.ndarray:
    """rpt/ccpt1/ccpt2 coefficients in column order from packed orthogonal
    coefficients b, which the map overwrites."""
    N = len(b)
    if family == RPT:
        for slots, _, inverse in _ramanujan_blocks(N):
            b[slots] = inverse @ b[slots]
    else:
        cos_t, sin_t = _pair_angles(N)
        b0, b1 = _pairs(b)
        if family == CCPT1:
            # b0 = a0 + a1*cos, b1 = a1*sin
            a1 = b1 / sin_t
            b0 -= a1 * cos_t
        else:
            # b0 = -a1*sin, b1 = a0 + a1*cos
            a1 = -b0 / sin_t
            b0[:] = b1 - a1 * cos_t
        b1[:] = a1
    return b[_bin_order(N).occpt_order]


def _to_packed(a: np.ndarray, family: str) -> np.ndarray:
    """Packed orthogonal coefficients of rpt/ccpt1/ccpt2 coefficients a in
    column order: the inverse of _from_packed."""
    N = len(a)
    b = np.empty(N, dtype=np.result_type(a, float))
    b[_bin_order(N).occpt_order] = a
    if family == RPT:
        for slots, B, _ in _ramanujan_blocks(N):
            b[slots] = B @ b[slots]
        return b
    cos_t, sin_t = _pair_angles(N)
    a0, a1 = _pairs(b)
    if family == CCPT1:
        a0 += a1 * cos_t
        a1 *= sin_t
    else:
        b0 = -a1 * sin_t
        a1 *= cos_t
        a1 += a0
        a0[:] = b0
    return b


def analyze(x, family: str) -> CoefficientSet:
    """Family-dispatching analysis through the FFT: the orthogonal family is
    the packed real FFT, dft-npm the gathered complex FFT, and rpt, ccpt1
    and ccpt2 a block-diagonal map of the packed coefficients (see the
    module docstring). Any length N.

    Every analysis entry point takes a Signal or array-like of finite
    samples, nonempty and 1-D, and raises ValueError otherwise.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    x = _checked_samples(x, "analyze")
    N = len(x)
    if family == DFT_NPM:
        flat = np.fft.fft(x)[_bin_order(N).dft_order] / N
    elif family == OCCPT:
        flat = _packed(x)
    else:
        flat = _from_packed(_packed(x), family)
    return CoefficientSet(N=N, family=family, flat=flat)


def synthesize(c: CoefficientSet) -> np.ndarray:
    """Signal of a coefficient set of any family: the inverse of analyze."""
    if c.family == OCCPT:
        return occpt_synthesis(c)
    if c.family == DFT_NPM:
        bins = np.zeros(c.N, dtype=complex)
        bins[_bin_order(c.N).dft_order] = c.flat
        return np.fft.ifft(bins) * c.N
    return _unpacked(_to_packed(c.flat, c.family))


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
    if c.family != OCCPT:
        raise ValueError("dft_from_occpt requires orthogonal-family coefficients")
    N, flat = c.N, c.flat
    X = N * flat.astype(complex)
    b0, b1 = _pairs(flat)
    lo, hi = _pairs(X)
    lo[:] = N * (b0 - 1j * b1)
    hi[:] = N * (b0 + 1j * b1)
    return X


def shift_coefficients(c: CoefficientSet, m: int) -> CoefficientSet:
    """Coefficients of the signal circularly delayed by m samples.

    The pair of slot K rotates by 2*pi*K*delay/N with delay = (-m) mod N,
    the product K*delay reduced mod N before scaling; the degenerate slots 0
    and N/2 scale by the cosine alone."""
    if c.family != OCCPT:
        raise ValueError("shift_coefficients requires orthogonal-family coefficients")
    N = c.N
    K = np.arange(N // 2 + 1)
    theta = (2 * np.pi / N) * ((K * ((-m) % N)) % N)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
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
    if a.family != OCCPT or b.family != OCCPT:
        raise ValueError("convolve_coefficients requires orthogonal-family coefficients")
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
    if c.family != OCCPT:
        raise ValueError("parseval_energy requires orthogonal-family coefficients")
    N = c.N
    sq = np.abs(c.flat) ** 2
    edges = sq[0] + (sq[N // 2] if N % 2 == 0 else 0.0)
    return float(N * (2 * np.sum(sq) - edges))


def coefficient_period_check(c: CoefficientSet, k_multiple: int = 1, tol: float = 1e-12) -> bool:
    """Verify the residue-periodicity of the analysis sums: evaluating them
    at k + k_multiple*N reproduces the stored coefficients. Test utility."""
    if c.family != OCCPT:
        raise ValueError("coefficient_period_check requires orthogonal-family coefficients")
    if c.is_complex:
        raise ValueError("period check is defined for real coefficient sets")
    N = c.N
    x = occpt_synthesis(c)
    for p in divisors(N):
        for k in half_residues(p):
            b0, b1 = c.pair(p, k)
            shifted = k + k_multiple * N
            m = pair_scale(p)
            b0s = np.dot(x, ccps(p, shifted, COS, N)) / (2 * N * m)
            if abs(b0s - b0) > tol:
                return False
            if p >= 3:
                b1s = np.dot(x, ccps(p, shifted, SIN, N)) / (2 * N * m)
                if abs(b1s - b1) > tol:
                    return False
    return True


def band_filter(coeffs: CoefficientSet, fs: float, low_hz: float, high_hz: float) -> CoefficientSet:
    """Zero every component whose frequency k*fs/p lies outside [low, high]
    and return the filtered coefficient set. DC survives only when the band
    includes 0."""
    if not 0.0 <= low_hz <= high_hz:
        raise ValueError(f"invalid band [{low_hz}, {high_hz}]")
    if high_hz > fs / 2 + 1e-12:
        raise ValueError(f"band edge {high_hz} Hz exceeds the Nyquist rate {fs / 2} Hz")
    N = coeffs.N
    # cosine slot K of subspace (p, k) has K/N == k/p as rationals, so the
    # correctly rounded quotients are the same float
    f = np.arange(N // 2 + 1) / N * fs
    keep = np.empty(N, dtype=bool)
    keep[:N // 2 + 1] = (low_hz <= f) & (f <= high_hz)
    lo, hi = _pairs(keep)
    hi[:] = lo
    order = _bin_order(N)
    if coeffs.family == DFT_NPM:
        # bins K and N - K share the frequency of cosine slot K, and so do
        # slots K and N - K: the slot mask is also the bin mask
        keep = keep[order.dft_order]
    elif coeffs.family != OCCPT:
        keep = keep[order.occpt_order]
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
    return values.astype(float).tolist()


def coefficients_to_dict(c: CoefficientSet) -> dict:
    """JSON-ready view carrying both layouts."""
    columns = column_layout(c.family, c.N).columns
    return {
        "N": c.N,
        "family": c.family,
        "flat": _nums(c.flat),
        "indexed": [
            {"p": idx.p, "k": idx.k, "kind": idx.kind, "shift": idx.shift, "value": v}
            for idx, v in zip(columns, _nums(c.column_values()))
        ],
    }

"""Independent brute-force oracles shared across the test suite.

Everything here is written from definitions (explicit summation), not by
calling the library's own transform paths. `butterfly_foccpt` is the one
loop reference: the fast transform one butterfly at a time.
`component_loop` reads coefficients through the scalar `pair(p, k)`
accessors and applies the component formulas one subspace at a time, and
`band_filter_loop` applies the band test one column at a time.
`block_columns` and `block_entries` build addresses and entries one period
block at a time, and `column_entries` one column at a time.
`read_signal_csv_loop` parses a signal file one line at a time.
`rpt_remainders` reduces an integer signal modulo each cyclotomic
polynomial by long division in Python integers.
`strengths_by_comprehension`, `period_report_by_generators`,
`dictionary_significant_by_generators` and `components_by_where` keep the
earlier expressions of the period answers, which the block-plan rewrite
must reproduce bit for bit. `shift_by_trig` and `dft_bridge_by_astype` keep
the earlier circular shift, with its own cos and sin on every call, and the
earlier DFT bridge, through a complex copy of the coefficients: the shift
read from the rotation table must match the first bit for bit, and the
bridge written in place must match the second in value.
`coefficients_dict_by_columns` and `matrix_metadata_by_columns` keep the
earlier rows of `coefficients_to_dict` and `matrix_metadata`, read from one
`SubspaceIndex` per column of `layout.columns`, which the rows built from
the layout's arrays must equal.
"""

import math
from math import gcd, lcm

import numpy as np

from ccpt.ccps import ramanujan_sum
from ccpt.cli import CsvParseError
from ccpt.foccpt import OpCounter
from ccpt.matrices import column_layout
from ccpt.numtheory import cyclotomic, divisors, lcm_list, residue_sets, totient


def brute_dft(x):
    """O(N^2) DFT by explicit summation."""
    x = np.asarray(x, dtype=complex)
    N = len(x)
    out = np.empty(N, dtype=complex)
    n = np.arange(N)
    for k in range(N):
        out[k] = np.sum(x * np.exp(-2j * np.pi * k * n / N))
    return out


def brute_circular_convolution(a, b):
    """O(N^2) circular convolution by explicit summation."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    N = len(a)
    out = np.zeros(N)
    for n in range(N):
        for l in range(N):
            out[n] += a[l] * b[(n - l) % N]
    return out


def direct_occpt_flat(x):
    """Frequency-ordered orthogonal coefficients straight from the sums."""
    x = np.asarray(x, dtype=float)
    N = len(x)
    n = np.arange(N)
    beta = np.empty(N)
    for K in range(N):
        if K <= N // 2:
            beta[K] = np.sum(x * np.cos(2 * np.pi * K * n / N)) / N
        else:
            beta[K] = -np.sum(x * np.sin(2 * np.pi * K * n / N)) / N
    return beta


def shifted_inner_products(a, b, shifts=5):
    """Direct sums D[la, lb] = np.dot(np.roll(A, la), np.roll(B, lb)) for
    shifts 0..shifts-1 on each side, where A and B tile the one-period
    sequences a and b to their common period: all shifts at once, as one
    product of the stacked rolls."""
    L = lcm(len(a), len(b))
    n = np.arange(L) - np.arange(shifts)[:, None]
    return np.asarray(a)[n % len(a)] @ np.asarray(b)[n % len(b)].T


def tile_to(pattern, length):
    pattern = np.asarray(pattern)
    reps = -(-length // len(pattern))
    return np.tile(pattern, reps)[:length]


def _coprime(p):
    return [k for k in range(1, p + 1) if gcd(k, p) == 1]


def column(kind, p, k, shift, N):
    """One dictionary column of period p, delayed by `shift` samples, tiled
    and truncated to N samples."""
    m = (np.arange(N) - shift) % p
    if kind == "exp":
        return np.exp(2j * np.pi * k * m / p)
    if kind == "ram":
        return sum(np.cos(2 * np.pi * j * m / p) for j in _coprime(p))
    if p <= 2:
        # degenerate pairs: both sums collapse to the constant or (-1)^n
        return np.cos(np.pi * m)
    wave = np.cos if kind == "cos" else np.sin
    return 2.0 * wave(2 * np.pi * k * m / p)


def block_addresses(family, p):
    """(kind, k, shift) of the period-p columns in canonical order."""
    if family == "farey":
        return [("exp", k, 0) for k in _coprime(p)]
    if family == "rpt":
        return [("ram", 0, j) for j in range(len(_coprime(p)))]
    pair = {"occpt": (("cos", 0), ("sin", 0)), "ccpt1": (("cos", 0), ("cos", 1)),
            "ccpt2": (("sin", 0), ("sin", 1))}[family]
    half = [1] if p <= 2 else [k for k in _coprime(p) if k <= p // 2]
    return [(kind, k, shift) for k in half for kind, shift in pair[:1 if p <= 2 else 2]]


def block_columns(family, p):
    """(p, k, kind, shift) of the period-p columns in canonical order, one
    block at a time: the reference for the column-address arrays."""
    if family == "dft-npm":
        return [(p, k, "exp", 0) for k in residue_sets(p).full]
    if family == "rpt":
        return [(p, 0, "ram", j) for j in range(totient(p))]
    if family == "occpt":
        variants = (("cos", 0), ("sin", 0))
    else:
        kind = "cos" if family == "ccpt1" else "sin"
        variants = ((kind, 0), (kind, 1))
    return [(p, k, kind, shift)
            for k in residue_sets(p).half
            for kind, shift in variants[:1 if p <= 2 else 2]]


def block_entries(family, p, length):
    """The period-p block tiled to `length`, built one block at a time with
    the same arithmetic as the layout-wide builder, which must match it bit
    for bit."""
    meta = block_columns(family, p)
    m = (np.arange(length)[:, None] - np.array([c[3] for c in meta])) % p
    if family == "rpt":
        return ramanujan_sum(p)[m]
    k = np.array([c[1] for c in meta])
    i = np.arange(p)[:, None]
    if family == "dft-npm":
        patterns = np.exp(1j * ((2.0 * np.pi / p) * ((k * i) % p)))
    elif p <= 2:
        return np.where(m == 0, 1.0, -1.0)
    else:
        angles = (2.0 * np.pi / p) * ((k * i) % p)
        is_sin = np.array([c[2] == "sin" for c in meta])
        patterns = 2.0 * np.where(is_sin, np.sin(angles), np.cos(angles))
    return patterns[m, np.arange(len(meta))]


def column_entries(family, p, k, kind, shift, length):
    """One column tiled to `length`, built from its own period with the same
    arithmetic as the table builder, which must match it bit for bit."""
    i = np.arange(p)
    if family == "rpt":
        pattern = ramanujan_sum(p)
    elif family == "dft-npm":
        pattern = np.exp(1j * ((2.0 * np.pi / p) * ((k * i) % p)))
    elif p <= 2:
        pattern = np.where(i == 0, 1.0, -1.0)
    else:
        angles = (2.0 * np.pi / p) * ((k * i) % p)
        pattern = 2.0 * (np.sin(angles) if kind == "sin" else np.cos(angles))
    return pattern[(np.arange(length) - shift) % p]


def read_signal_csv_loop(path):
    """A signal CSV read one line at a time: blank lines and a "value"
    header on line 1 are skipped, as is a byte-order mark opening the file,
    and the first unparsable or non-finite line raises CsvParseError naming
    it."""
    values = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if line_no == 1 and text.lower() == "value":
                continue
            try:
                value = float(text)
            except ValueError:
                raise CsvParseError(path, line_no, text) from None
            if not math.isfinite(value):
                raise CsvParseError(path, line_no, text, "non-finite sample value")
            values.append(value)
    if not values:
        raise CsvParseError(path, 1, "<empty file>")
    return np.array(values)


def rpt_remainders(x):
    """N times the rpt coefficients of an integer signal x, exactly, in
    column order: for each divisor p of N ascending, x folded modulo p as a
    polynomial in Python integers, divided by the monic Phi_p, and the
    phi(p) low coefficients of the remainder."""
    x = [int(v) for v in x]
    out = []
    for p in divisors(len(x)):
        rem = [sum(x[m::p]) for m in range(p)]
        phi = [int(c) for c in cyclotomic(p)]
        deg = len(phi) - 1
        # the leading term cancels rem[k], which is never read again
        terms = [(i, c) for i, c in enumerate(phi[:-1]) if c]
        for k in range(p - 1, deg - 1, -1):
            q = rem[k]
            if q:
                for i, c in terms:
                    rem[k - deg + i] -= q * c
        out.extend(rem[:deg])
    return out


def minimal_period(col, p, tol=1e-9):
    """Smallest divisor of p with which the length-N sequence repeats."""
    for d in divisors(p):
        if np.allclose(col, col[np.arange(len(col)) % d], atol=tol):
            return d
    return p


def dictionary_oracle(family, N, p_max):
    """(F, periods): the stacked bases of periods 1..p_max in canonical column
    order, every column written from its defining sum."""
    cols, periods = [], []
    for p in range(1, p_max + 1):
        for kind, k, shift in block_addresses(family, p):
            cols.append(column(kind, p, k, shift, N))
            periods.append(p)
    return np.column_stack(cols), np.array(periods)


def weighted_min_norm(F, penalties, x):
    """argmin ||T b|| over the least-squares solutions of F b = x, with
    T = diag(penalties): numpy's lstsq on F T^-1."""
    u, *_ = np.linalg.lstsq(F / penalties, x, rcond=None)
    return u / penalties


def butterfly_foccpt(x):
    """(flat, OpCounter) of the radix-2 fast transform, one butterfly at a
    time: the per-block, per-K loop the stage-vectorised `foccpt` must
    reproduce bit for bit, counters included."""
    x = np.asarray(x)
    ctr = OpCounter()
    if np.iscomplexobj(x):
        flat = _butterfly_real(x.real, ctr) + 1j * _butterfly_real(x.imag, ctr)
    else:
        flat = _butterfly_real(x, ctr)
    return flat, ctr


def _butterfly_real(x, ctr):
    N = len(x)
    v = N.bit_length() - 1
    order = [int(format(i, f"0{v}b")[::-1], 2) for i in range(N)] if v else [0]
    buf = np.asarray(x, dtype=float)[order]
    M = 2
    while M <= N:
        for base in range(0, N, M):
            _butterfly_block(buf, base, M, ctr)
        M *= 2
    return buf / N


def _butterfly_block(buf, base, M, ctr):
    L = M // 2
    h = base
    g = base + L
    if M == 2:
        t = 1.0 * buf[g]
        ctr.real_mults += 1
        a = buf[h]
        buf[h] = a + t
        buf[g] = a - t
        ctr.real_adds += 2
        return
    Q = M // 4
    K = np.arange(Q + 1)
    cosv, sinv = np.cos(2 * np.pi * K / M), np.sin(2 * np.pi * K / M)
    out = np.empty(M)
    # cosine side, K = 0: twiddle cos(0) = 1
    t = cosv[0] * buf[g]
    ctr.real_mults += 1
    out[0] = buf[h] + t
    out[L] = buf[h] - t
    ctr.real_adds += 2
    # cosine side, 1 <= K <= Q-1
    for K in range(1, Q):
        t1 = cosv[K] * buf[g + K]
        t2 = sinv[K] * buf[g + L - K]
        ctr.real_mults += 2
        out[K] = buf[h + K] + t1 - t2
        out[L - K] = buf[h + K] - t1 + t2
        ctr.real_adds += 4
    # cosine side, K = Q: twiddle cos(pi/2) = 0
    t = cosv[Q] * buf[g + Q]
    ctr.real_mults += 1
    out[Q] = buf[h + Q] + t
    ctr.real_adds += 1
    # sine side, 1 <= K <= Q-1
    for K in range(1, Q):
        u1 = cosv[K] * buf[g + L - K]
        u2 = sinv[K] * buf[g + K]
        ctr.real_mults += 2
        out[M - K] = buf[h + L - K] + u1 + u2
        out[L + K] = -buf[h + L - K] + u1 + u2
        ctr.real_adds += 4
    # sine side, K = Q: twiddle sin(pi/2) = 1
    out[M - Q] = sinv[Q] * buf[g + Q]
    ctr.real_mults += 1
    buf[base:base + M] = out


def component_loop(pair, periods, fs=None, min_magnitude=1e-8):
    """(p, k, freq, freq_hz, magnitude, phase) tuples of every subspace
    (p, k), p in `periods`, k in residue_sets(p).half, whose magnitude reaches
    the floor, from the cosine/sine pair `pair(p, k)` one subspace at a
    time: the reference for `frequency_components` and
    `DictionarySolution.components`."""
    out = []
    for p in periods:
        for k in residue_sets(p).half:
            b0, b1 = pair(p, k)
            if p <= 2:
                mag, phase = abs(b0), (0.0 if b0 >= 0 else np.pi)
            else:
                mag, phase = 2.0 * np.hypot(b0, b1), np.arctan2(-b1, b0)
            if mag >= min_magnitude:
                freq = 0.0 if p == 1 else k / p
                out.append((p, k, freq, None if fs is None else freq * fs,
                            float(mag), float(phase)))
    return out


def band_filter_loop(coeffs, fs, low_hz, high_hz):
    """Flat coefficients of `coeffs` with every column outside the band
    zeroed, deciding one column at a time from its address: the reference
    for `band_filter`. A column of subspace (p, k) has frequency
    min(k, p - k)/p * fs (0 for p = 1); a Ramanujan column of period p is
    kept when any line k/p * fs, k over the half residues, is in the band."""
    flat = np.array(coeffs.flat)
    lines = {}
    for i, (col, _) in zip(coeffs.column_order(), coeffs.items()):
        if col.kind == "ram":
            if col.p not in lines:
                lines[col.p] = [k / col.p for k in residue_sets(col.p).half] if col.p > 1 else [0.0]
            ratios = lines[col.p]
        else:
            ratios = [0.0 if col.p == 1 else min(col.k, col.p - col.k) / col.p]
        if not any(low_hz <= r * fs <= high_hz for r in ratios):
            flat[i] = 0.0
    return flat


def period_square_sums(coeffs):
    """Square sum of the coefficients of each divisor subspace, written from
    the flat layouts: packed slot K of an orthogonal set belongs to period
    N / gcd(K, N), and the other families run block by block, phi(p) columns
    per divisor p ascending. The reference for `period_strengths`."""
    N = coeffs.N
    if coeffs.family == "occpt":
        periods = [N // gcd(K, N) for K in range(N)]
    else:
        periods = [p for p in divisors(N) for _ in range(totient(p))]
    sums = dict.fromkeys(divisors(N), 0.0)
    for p, v in zip(periods, coeffs.flat.tolist()):
        sums[p] += abs(v) ** 2
    return sums


def strengths_by_comprehension(column_periods, b, periods):
    """{p: square sum of b over the columns of period p} for each of
    `periods`, as one dict comprehension over np.bincount(column_periods,
    |b|^2): the earlier strength expression, the bit-for-bit reference for
    the block plan's `_strengths`."""
    sums = np.bincount(column_periods, weights=np.abs(b) ** 2)
    return {p: float(sums[p]) for p in periods}


def period_report_by_generators(coeffs, threshold=0.2, normalized=False):
    """(strengths, significant, estimated period) of a divisor report from
    `strengths_by_comprehension` over divisors(N), with the significant set
    taken by a generator and sorted, and its lcm by `lcm_list`: the earlier
    `period_strengths` expressions, its bit-for-bit reference."""
    strengths = strengths_by_comprehension(column_layout(coeffs.family, coeffs.N).periods,
                                           coeffs.column_values(), divisors(coeffs.N))
    if normalized:
        strengths = {p: s / totient(p) for p, s in strengths.items()}
    peak = max(strengths.values())
    if peak <= 0.0:
        return strengths, (), 1
    significant = tuple(sorted(p for p, s in strengths.items() if s >= threshold * peak))
    return strengths, significant, lcm_list(significant)


def dictionary_significant_by_generators(strengths):
    """The significant periods of a dictionary solution's strengths, by a
    generator max over p >= 2 and a sorted generator: the earlier
    `DictionarySolution.significant_periods`, its bit-for-bit reference."""
    ref = max((s for p, s in strengths.items() if p >= 2), default=0.0)
    if ref <= 0.0:
        return (1,) if strengths.get(1, 0.0) > 0.0 else ()
    return tuple(sorted(p for p, s in strengths.items() if s >= 0.01 * ref))


def components_by_where(layout, values, fs=None, min_magnitude=1e-8):
    """Components of an orthogonal layout's real `values` (column order)
    with magnitude, phase and frequency each one full-length np.where over
    the degenerate periods 1 and 2, and the pairs read from the layout's
    kind and period arrays: the earlier `_components`, its bit-for-bit
    reference."""
    cos = np.flatnonzero(layout.kind == "cos")
    p, k = layout.periods[cos], layout.k[cos]
    b0 = values[cos]
    b1 = np.where(p >= 3, values[cos + (p >= 3)], 0)
    degenerate = p <= 2
    mag = np.where(degenerate, np.abs(b0), 2.0 * np.hypot(b0, b1))
    phase = np.where(degenerate, np.where(b0 >= 0, 0.0, np.pi), np.arctan2(-b1, b0))
    freq = np.where(p == 1, 0.0, k / p)
    i = np.flatnonzero(mag >= min_magnitude)
    freq_hz = [None] * len(i) if fs is None else (freq[i] * fs).tolist()
    return list(zip(p[i].tolist(), k[i].tolist(), freq[i].tolist(), freq_hz,
                    mag[i].tolist(), phase[i].tolist()))


def _slot_pairs(flat):
    """Cosine slots K and sine slots N-K, K = 1..(N-1)//2, entry i of both
    belonging to one subspace."""
    m = (len(flat) - 1) // 2
    return flat[1:m + 1], flat[len(flat) - m:][::-1]


def shift_by_trig(flat, m):
    """Flat coefficients of the signal delayed by m samples: slot K turns by
    the angle 2*pi/N times K*((-m) mod N) mod N, its cos and sin evaluated
    here."""
    N = len(flat)
    theta = (2 * np.pi / N) * ((np.arange(N // 2 + 1) * ((-m) % N)) % N)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    out = np.empty_like(flat)
    out[:N // 2 + 1] = cos_t * flat[:N // 2 + 1]
    b0, b1 = _slot_pairs(flat)
    lo, hi = _slot_pairs(out)
    cos_p, sin_p = cos_t[1:len(b0) + 1], sin_t[1:len(b0) + 1]
    lo[:] = cos_p * b0 + sin_p * b1
    hi[:] = cos_p * b1 - sin_p * b0
    return out


def dft_bridge_by_astype(flat):
    """DFT bins of flat orthogonal coefficients: N times a complex copy,
    then N*(b0 - j*b1) and N*(b0 + j*b1) for each slot pair."""
    N = len(flat)
    X = N * flat.astype(complex)
    b0, b1 = _slot_pairs(flat)
    lo, hi = _slot_pairs(X)
    lo[:] = N * (b0 - 1j * b1)
    hi[:] = N * (b0 + 1j * b1)
    return X


def _nums_by_element(values):
    if np.iscomplexobj(values):
        return [{"re": float(v.real), "im": float(v.imag)} for v in values]
    return [float(v) for v in values]


def coefficients_dict_by_columns(c):
    """coefficients_to_dict(c) with its rows read from layout.columns."""
    columns = column_layout(c.family, c.N).columns
    return {
        "N": c.N,
        "family": c.family,
        "flat": _nums_by_element(c.flat),
        "indexed": [
            {"p": idx.p, "k": idx.k, "kind": idx.kind, "shift": idx.shift, "value": v}
            for idx, v in zip(columns, _nums_by_element(c.column_values()))
        ],
    }


def matrix_metadata_by_columns(m):
    """matrix_metadata(m) with its rows read from layout.columns."""
    return {
        "N": m.N,
        "family": m.family,
        "columns": [
            {"p": c.p, "k": c.k, "kind": c.kind, "shift": c.shift} for c in m.layout.columns
        ],
    }

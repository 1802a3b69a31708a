"""The packed real-FFT core of the orthogonal transform, dft-npm, the
pair maps of ccpt1 and ccpt2 and the cyclotomic folds of rpt against the
brute-force oracles and dense solves, at sizes on both sides of the
dense-matrix cap.

Tolerances are absolute on the coefficient scale (1/N times the DFT), where
every orthogonal and dft-npm value here is O(1); DFT bins are compared after
dividing by N. The other bases are compared relative to their largest
coefficient.
"""

import numpy as np
import pytest

from ccpt.matrices import CCPT1, CCPT2, DFT_NPM, FAMILIES, OCCPT, RPT, build_matrix, column_layout
from ccpt.period import frequency_components, period_strengths
from ccpt.transform import (CoefficientSet, _rpt_plan, analyze, band_filter,
                            coefficients_to_dict, convolve_coefficients,
                            dft_from_occpt, occpt_analysis, occpt_synthesis,
                            parseval_energy, shift_coefficients, synthesize)

from oracles import (band_filter_loop, brute_circular_convolution, brute_dft,
                     direct_occpt_flat)

SIZES = (1, 2, 3, 4, 5, 12, 54, 64, 625, 1025, 4096, 5000)
TOL = 1e-12
# relative to the largest coefficient, for the non-orthogonal bases
RTOL = 1e-11


def _err(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))


def _circular_convolution(a, b):
    """Circular convolution by explicit summation; above 625 samples one
    output sample per dot product, as brute_circular_convolution is a pure
    Python double loop."""
    N = len(a)
    if N <= 625:
        return brute_circular_convolution(a, b)
    idx = np.arange(N)
    return np.array([np.dot(a, b[(n - idx) % N]) for n in range(N)])


@pytest.mark.parametrize("N", SIZES)
def test_packed_core_against_oracles(N):
    rng = np.random.default_rng(N)
    x, y = rng.standard_normal(N), rng.standard_normal(N)
    z = x + 1j * y

    c = occpt_analysis(x)
    assert _err(c.flat, direct_occpt_flat(x)) <= TOL
    assert _err(occpt_synthesis(c), x) <= TOL

    # complex input is transformed part by part, by every real family, and
    # complex coefficients are synthesized part by part
    cz = occpt_analysis(z)
    np.testing.assert_array_equal(cz.flat, c.flat + 1j * occpt_analysis(y).flat)
    for family in (OCCPT, RPT, CCPT1, CCPT2):
        a, ax, ay = (analyze(v, family) for v in (z, x, y))
        np.testing.assert_array_equal(a.flat, ax.flat + 1j * ay.flat, err_msg=family)
        np.testing.assert_array_equal(synthesize(a), synthesize(ax) + 1j * synthesize(ay),
                                      err_msg=family)
    assert _err(occpt_synthesis(cz), z) <= TOL
    # brute_dft evaluates N complex exponentials per bin; above 1025 samples
    # the bridge is checked against numpy's FFT instead
    if N <= 1025:
        assert _err(dft_from_occpt(cz) / N, brute_dft(z) / N) <= TOL
        assert _err(dft_from_occpt(c) / N, brute_dft(x) / N) <= TOL
    else:
        assert _err(dft_from_occpt(cz) / N, np.fft.fft(z) / N) <= TOL

    for m in (1, -3, N + 5, -(2 * N + 1)):
        want = np.roll(x, m)  # want[n] = x[(n - m) mod N]
        assert _err(occpt_synthesis(shift_coefficients(c, m)), want) <= TOL
        assert _err(occpt_synthesis(shift_coefficients(cz, m)), np.roll(z, m)) <= TOL
        if N <= 64:
            assert _err(shift_coefficients(c, m).flat, direct_occpt_flat(want)) <= TOL

    conv = _circular_convolution(x, y)
    cy = occpt_analysis(y)
    scale = max(1.0, float(np.max(np.abs(conv))))
    assert _err(occpt_synthesis(convolve_coefficients(c, cy)), conv) <= TOL * scale
    if N <= 64:
        assert _err(convolve_coefficients(c, cy).flat, direct_occpt_flat(conv)) <= TOL * scale
        w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        cc = _circular_convolution
        want = (cc(z.real, w.real) - cc(z.imag, w.imag)
                + 1j * (cc(z.real, w.imag) + cc(z.imag, w.real)))
        got = occpt_synthesis(convolve_coefficients(cz, occpt_analysis(w)))
        assert _err(got, want) <= TOL * max(1.0, float(np.max(np.abs(want))))

    energy = float(np.dot(x, x))
    assert abs(parseval_energy(c) - energy) <= TOL * max(1.0, energy)
    energy_z = float(np.sum(np.abs(z) ** 2))
    assert abs(parseval_energy(cz) - energy_z) <= TOL * max(1.0, energy_z)


@pytest.mark.parametrize("N", SIZES)
def test_canonical_column_order_matches_slot_addresses(N):
    c = occpt_analysis(np.random.default_rng(N + 1).standard_normal(N))
    columns = column_layout(OCCPT, N).columns
    # cosine of (p, k) at slot N*k/p (0 for p = 1), sine at N - N*k/p
    slots = [(N * col.k // col.p) % N if col.kind == "cos" else N - N * col.k // col.p
             for col in columns]
    assert sorted(slots) == list(range(N))
    assert [c.flat_index(col.p, col.k, col.kind) for col in columns] == slots
    np.testing.assert_array_equal(c.column_values(), c.flat[slots])
    p, k, b0, b1 = c.pairs()
    cos_cols = [col for col in columns if col.kind == "cos"]
    assert [(col.p, col.k) for col in cos_cols] == list(zip(p.tolist(), k.tolist()))
    for col, v0, v1 in zip(cos_cols, b0, b1):
        assert (v0, v1) == c.pair(col.p, col.k)


def test_occpt_lookup_rejects_addresses_that_are_not_columns():
    """At N = 8 the orthogonal columns are (1, 1), (2, 1), (4, 1), (8, 1)
    and (8, 3): a residue that is not coprime, one above p/2 and a period
    that does not divide N have no coefficient."""
    c = occpt_analysis(np.arange(8.0))
    for p, k in ((4, 2), (8, 5), (3, 1)):
        with pytest.raises(KeyError, match="no column"):
            c.pair(p, k)
        with pytest.raises(KeyError, match="no column"):
            c.value(p, k, "cos")
    with pytest.raises(KeyError, match="no column"):
        c.flat_index(2, 1, "sin")
    assert c.pair(8, 3) == (c.flat[3], c.flat[5])


def test_random_slots_at_65536_by_direct_summation():
    N = 2 ** 16
    rng = np.random.default_rng(65536)
    x = rng.standard_normal(N)
    c = occpt_analysis(x)
    n = np.arange(N, dtype=np.int64)
    for K in rng.choice(N, size=64, replace=False):
        angle = (2 * np.pi / N) * ((int(K) * n) % N)
        want = np.dot(x, np.cos(angle)) / N if K <= N // 2 else -np.dot(x, np.sin(angle)) / N
        assert abs(c.flat[K] - want) <= TOL
    assert _err(occpt_synthesis(c), x) <= TOL


@pytest.mark.parametrize("N, P", [(5000, 40), (2 ** 16, 64)])
def test_record_pipeline_beyond_the_dense_cap(N, P):
    """Every call of the divisor-period record pipeline runs past the 4096
    cap of the dense builders."""
    rng = np.random.default_rng(N)
    n = np.arange(N)
    tone = np.cos(2 * np.pi * n / P + 0.3)
    x = tone + 0.1 * rng.standard_normal(N)
    c = occpt_analysis(x)
    assert period_strengths(c).estimated_period == P
    comps = frequency_components(c, fs=1.0)
    top = max(comps, key=lambda comp: comp.magnitude)
    assert (top.p, top.k) == (P, 1)
    assert top.phase == pytest.approx(0.3, abs=0.05)
    X = dft_from_occpt(c)
    assert _err(X / N, np.fft.fft(x) / N) <= TOL
    assert _err(occpt_synthesis(shift_coefficients(c, 17)), np.roll(x, 17)) <= TOL
    assert parseval_energy(c) == pytest.approx(float(np.dot(x, x)), rel=TOL)
    kept = occpt_synthesis(band_filter(c, 1.0, 0.9 / P, 1.1 / P))
    assert _err(kept, tone) <= 0.05
    if N == 5000:
        d = coefficients_to_dict(c)
        assert len(d["indexed"]) == N
        assert [e["value"] for e in d["indexed"]] == c.column_values().tolist()


@pytest.mark.parametrize("N, P", [(4097, 17), (5000, 40)])
@pytest.mark.parametrize("family", (RPT, CCPT1, CCPT2))
def test_nonorthogonal_families_beyond_the_dense_cap(family, N, P):
    """rpt, ccpt1 and ccpt2 analysis has no size cap: a round trip, and the
    divisor estimate of a planted period."""
    rng = np.random.default_rng(N)
    x = rng.standard_normal(N)
    assert _err(synthesize(analyze(x, family)), x) <= RTOL
    tone = np.cos(2 * np.pi * np.arange(N) / P + 0.3)
    assert period_strengths(analyze(tone, family)).estimated_period == P


@pytest.mark.parametrize("N", (1, 2, 3, 6, 12, 54, 64, 360, 625, 2310))
def test_dft_npm_fft_path_matches_dense_solve(N):
    """Every family's fast path against a dense solve, real and complex
    input. The rpt, ccpt1 and ccpt2 coefficients are compared relative to
    their largest, as ccpt coefficients grow as 1/sin(2*pi*K/N); the dense
    rpt matrix is the worst conditioned at N = 2310, near 7e2."""
    rng = np.random.default_rng(N)
    x = rng.standard_normal(N)
    z = x + 1j * rng.standard_normal(N)
    j = int(rng.integers(N))
    for family in (DFT_NPM, RPT, CCPT1, CCPT2):
        F = build_matrix(family, N).entries
        if family == DFT_NPM:
            want = np.linalg.solve(F, np.column_stack([x, z])).T
        else:
            # a real basis solves the parts of z as two more right-hand sides
            r, zr, zi = np.linalg.solve(F, np.column_stack([x, z.real, z.imag])).T
            want = r, zr + 1j * zi
        for v, ref in zip((x, z), want):
            c = analyze(v, family)
            assert np.iscomplexobj(c.flat) == (family == DFT_NPM or np.iscomplexobj(v))
            if family == DFT_NPM:
                assert _err(c.flat, ref) <= TOL
                assert _err(synthesize(c), F @ c.flat) <= TOL * N
            else:
                scale = np.max(np.abs(ref))
                assert _err(c.flat, ref) <= RTOL * scale, family
                assert _err(synthesize(c), F @ c.flat) <= RTOL * scale, family
        # a unit coefficient on any column synthesizes that column
        e = np.zeros(N, dtype=F.dtype)
        e[j] = 1.0
        assert _err(synthesize(CoefficientSet(N=N, family=family, flat=e)), F[:, j]) <= TOL * N


def test_rpt_matches_dense_solve_at_every_size_to_128():
    """rpt analysis against a dense solve, real and complex, and the
    synthesis of a unit coefficient on each column against that column, at
    every N: a wrong cyclotomic polynomial, reduction table or Moebius
    weight at any divisor shows up here."""
    for N in range(1, 129):
        rng = np.random.default_rng(N)
        x = rng.standard_normal(N)
        z = x + 1j * rng.standard_normal(N)
        F = build_matrix(RPT, N).entries
        r, zr, zi = np.linalg.solve(F, np.column_stack([x, z.real, z.imag])).T
        for v, ref in ((x, r), (z, zr + 1j * zi)):
            c = analyze(v, RPT)
            assert _err(c.flat, ref) <= RTOL * np.max(np.abs(ref)), N
            assert _err(synthesize(c), v) <= RTOL * np.max(np.abs(v)), N
        for j in range(N):
            e = np.zeros(N)
            e[j] = 1.0
            assert _err(synthesize(CoefficientSet(N=N, family=RPT, flat=e)), F[:, j]) <= TOL * N, (N, j)


@pytest.mark.parametrize("N", (8191, 65537))
def test_rpt_at_prime_sizes(N):
    """At a prime N the period-N block has N - 1 columns: a round trip, and
    a planted period-N tone is estimated as period N."""
    x = np.random.default_rng(N).standard_normal(N)
    assert _err(synthesize(analyze(x, RPT)), x) <= RTOL
    tone = np.cos(2 * np.pi * np.arange(N) / N + 0.3)
    assert period_strengths(analyze(tone, RPT)).estimated_period == N


@pytest.mark.parametrize("N, limit_mb", [(4096, 2), (4097, 10)])
def test_rpt_plan_stays_small(N, limit_mb):
    """The cached rpt plan is index maps and small reduction tables, not
    phi(p)-square blocks and their inverses."""
    analyze(np.ones(N), RPT)
    assert sum(a.nbytes for a in _rpt_plan(N).arrays()) <= limit_mb * 1e6


def test_band_filter_occpt_mask_shares_pairs():
    """Each sine slot follows its cosine slot, and the mask equals the band
    test on k*fs/p per subspace."""
    N, fs = 60, 360.0
    c = occpt_analysis(np.random.default_rng(60).standard_normal(N))
    out = band_filter(c, fs, 30.0, 120.0)
    for col in column_layout(OCCPT, N).columns:
        f = (0.0 if col.p == 1 else col.k / col.p) * fs
        want = c.value(col.p, col.k, col.kind) if 30.0 <= f <= 120.0 else 0.0
        assert out.value(col.p, col.k, col.kind) == want


@pytest.mark.parametrize("family", FAMILIES)
def test_band_filter_matches_column_loop(family):
    """The vectorised mask of every family equals the per-column band test,
    bands with edges on component frequencies included."""
    bands = ((0.0, 0.0), (0.0, 0.5), (0.1, 0.25), (1 / 3, 0.5), (0.2, 0.2), (1 / 6, 1 / 3))
    for N in (*range(1, 41), 54, 60, 360, 625):
        c = analyze(np.random.default_rng(N).standard_normal(N), family)
        for fs in (1.0, 360.0, 1000.0):
            for lo, hi in bands:
                got = band_filter(c, fs, lo * fs, hi * fs).flat
                np.testing.assert_array_equal(got, band_filter_loop(c, fs, lo * fs, hi * fs),
                                              err_msg=f"N={N} fs={fs} band=({lo}, {hi})")

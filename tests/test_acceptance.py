"""Acceptance suite: one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import numpy as np
import pytest

from ccpt.ccps import COS, SIN, CcpsSpec, ccps1, ccps2, ccps_inner_product
from ccpt.cli import band_filter
from ccpt.foccpt import OpCounter, complexity_table, foccpt, predicted_counts
from ccpt.matrices import (CCPT1, CCPT2, DFT_NPM, FAMILIES, OCCPT, RPT,
                           build_matrix, build_occpt, validate_npm)
from ccpt.numtheory import residue_sets, totient
from ccpt.period import (build_dictionary, candidate_matrix_solve,
                         dictionary_solve, min_data_length, period_strengths)
from ccpt.signals import make_x1, make_x2, synthetic_ecg
from ccpt.transform import (coefficient_period_check, convolve_coefficients,
                            dft_from_occpt, occpt_analysis, occpt_synthesis,
                            parseval_energy, shift_coefficients, synthesize)

from oracles import (brute_circular_convolution, brute_dft, direct_occpt_flat,
                     shifted_inner_products)


def _report(n, text):
    print(f"ACCEPTANCE {n:>2}: PASS — {text}")


def test_criterion_01_occpt_orthogonality():
    worst = 0.0
    for N in range(1, 65):
        m = build_occpt(N)
        gram = m.entries.T @ m.entries
        expected = np.diag(2 * N * m.scales())
        err = np.max(np.abs(gram - expected))
        assert err <= 1e-9 * N, N
        worst = max(worst, err / N)
    _report(1, f"E^T E = 2NM I for N <= 64 (worst scaled error {worst:.2e})")


def test_criterion_02_npm_axioms():
    sizes = list(range(1, 33)) + [48, 54, 64]
    for family in FAMILIES:
        for N in sizes:
            report = validate_npm(build_matrix(family, N))
            assert report.passed, (family, N)
    _report(2, f"NPM axioms hold for {len(FAMILIES)} families x {len(sizes)} sizes")


def test_criterion_03_inner_product_closed_forms():
    specs = []
    for L in range(1, 25):
        for k in residue_sets(L).half:
            specs.append(CcpsSpec(L, k, COS))
            specs.append(CcpsSpec(L, k, SIN))
    base = {s: s.sequence(s.L) for s in specs}
    worst = 0.0
    for sa in specs:
        for sb in specs:
            direct = shifted_inner_products(base[sa], base[sb])
            for la in range(5):
                for lb in range(5):
                    worst = max(worst, abs(direct[la, lb] - ccps_inner_product(sa, la, sb, lb)))
    assert worst <= 1e-10
    _report(3, f"orthogonality closed forms vs direct sums, L <= 24 (worst {worst:.2e})")


def test_criterion_04_foccpt_equivalence_and_exact_counts():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for v in range(1, 13):
        N = 2 ** v
        x = rng.standard_normal(N)
        coeffs, ctr = foccpt(x)
        err = np.max(np.abs(coeffs.flat - direct_occpt_flat(x)))
        assert err <= 1e-9, N
        worst = max(worst, err)
        assert ctr == predicted_counts(N, "real"), N
        assert ctr == OpCounter(N * v - N + 1, 2 * N * v - 7 * N // 2 + 5), N
    assert predicted_counts(8, "real") == OpCounter(17, 25)
    _report(4, f"fast transform matches direct sums (worst {worst:.2e}) "
               "with exact counters for v <= 12; N=8 gives (17, 25)")


def test_criterion_05_complexity_table():
    def table_one(N, pow2):
        direct = {"ccpt1": (2 * N * N, 2 * N * N - 2 * N),
                  "ccpt2": (2 * N * N, 2 * N * N - 2 * N),
                  "rpt": (2 * N * N, 2 * N * N - 2 * N)}
        if pow2:
            v = N.bit_length() - 1
            direct["occpt"] = (2 * N * v - 2 * N + 2, 4 * N * v - 7 * N + 10)
            direct["dft-npm"] = (2 * N * v, 3 * N * v)
        else:
            direct["occpt"] = (2 * N * N, 2 * N * N - 2 * N)
            direct["dft-npm"] = (4 * N * N, 4 * N * N - 2 * N)
        return direct

    for N, pow2 in ((7, False), (8, True), (15, False), (16, True)):
        expected = table_one(N, pow2)
        got = {r["transform"]: (r["mults"], r["adds"]) for r in complexity_table(N)}
        assert got == expected, N
    for N in (7, 15):
        got = {r["transform"]: r for r in complexity_table(N)}
        ratio_m = got["occpt"]["mults"] / got["dft-npm"]["mults"]
        ratio_a = got["occpt"]["adds"] / got["dft-npm"]["adds"]
        assert ratio_m == pytest.approx(0.5, abs=1e-12)
        assert ratio_a == pytest.approx(0.5, abs=0.05)
    _report(5, "complexity table cells reproduced at N in {7, 8, 15, 16}; "
               "direct-method cost is 50% of the DFT's")


def test_criterion_06_dft_bridge():
    rng = np.random.default_rng(6)
    worst = 0.0
    count = 0
    for N in (6, 12, 54):
        for _ in range(17):
            x = rng.standard_normal(N)
            err = np.max(np.abs(dft_from_occpt(occpt_analysis(x)) - brute_dft(x)))
            worst = max(worst, err)
            z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
            errz = np.max(np.abs(dft_from_occpt(occpt_analysis(z)) - brute_dft(z)))
            worst = max(worst, errz)
            count += 2
    assert worst <= 1e-9
    _report(6, f"DFT bridge vs brute-force DFT on {count} signals (worst {worst:.2e})")


def test_criterion_07_transform_properties():
    rng = np.random.default_rng(7)
    checked = 0
    for N in (8, 16, 54):
        for _ in range(17):
            x = rng.standard_normal(N)
            c = occpt_analysis(x)
            m = int(rng.integers(0, 3 * N))
            shifted = occpt_analysis(np.roll(x, m))
            assert np.max(np.abs(shift_coefficients(c, m).flat - shifted.flat)) <= 1e-8
            y = rng.standard_normal(N)
            conv = convolve_coefficients(c, occpt_analysis(y))
            direct = occpt_analysis(brute_circular_convolution(x, y))
            assert np.max(np.abs(conv.flat - direct.flat)) <= 1e-8
            assert abs(parseval_energy(c) - np.sum(x ** 2)) <= 1e-8 * max(1.0, np.sum(x ** 2))
            assert coefficient_period_check(c)
            checked += 1
    _report(7, f"shift rotation, convolution, energy and residue periodicity "
               f"on {checked} random signals")


X1_SNR_SETS = {3, 9, 18}


def _x1_trial(seed, snr_db):
    x = make_x1(noise_seed=seed, snr_db=snr_db)
    c = occpt_analysis(x.samples)
    report = period_strengths(c)
    b0, b1 = c.pair(18, 5)
    return set(report.significant), float(np.arctan2(-b1, b0)), 2 * float(np.hypot(b0, b1))


def test_criterion_08_divisor_period_reproduction():
    sets_ok = 0
    phases, mags = [], []
    for seed in range(20):
        sig_set, phase, mag = _x1_trial(seed, 6.0)
        if sig_set == X1_SNR_SETS:
            sets_ok += 1
        phases.append(phase)
        mags.append(mag)
    med_phase = float(np.median(phases))
    med_mag = float(np.median(mags))
    assert sets_ok >= 18, f"significant set {{3,9,18}} in only {sets_ok}/20 seeds"
    assert abs(med_phase - np.pi / 3) <= 0.05
    assert abs(med_mag - 0.6) <= 0.06
    _report(8, f"significant set {{3,9,18}} in {sets_ok}/20 seeds; median phase "
               f"{med_phase:.3f} (pi/3 = {np.pi/3:.3f}), median magnitude {med_mag:.3f}")


def test_criterion_09_noise_table_reproduction():
    from collections import Counter
    modal = {}
    for snr in (6.0, 3.0, 0.0, -3.0, -6.0):
        counts = Counter(frozenset(_x1_trial(seed, snr)[0]) for seed in range(20))
        mode = counts.most_common(1)[0][0]
        modal[snr] = sorted(mode)
        assert set(mode) == X1_SNR_SETS, (snr, sorted(mode))
    spurious = {}
    for snr in (-9.0, -12.0):
        counts = Counter(frozenset(_x1_trial(seed, snr)[0]) for seed in range(20))
        mode = counts.most_common(1)[0][0]
        spurious[snr] = sorted(mode)
        assert set(mode) >= X1_SNR_SETS, (snr, sorted(mode))
    _report(9, f"modal set {{3,9,18}} down to -6 dB; at -9/-12 dB modal sets "
               f"{spurious[-9.0]} / {spurious[-12.0]}")


def test_criterion_10_dictionary_reproduction():
    x = make_x2()
    d = build_dictionary(54, 50, family=OCCPT, penalty="p2")
    sol = dictionary_solve(x.samples, d)
    assert sol.top_periods(2) == (5, 8)
    assert sol.estimated_period() == 40
    b0, b1 = sol.pair(8, 1)
    phase = float(np.arctan2(-b1, b0))
    assert abs(phase - np.pi / 4) <= 0.1
    _report(10, f"dictionary dominant periods {{5,8}} -> lcm 40; phase at (8,1) "
                f"{phase:.3f} (pi/4 = {np.pi/4:.3f}), pair ({b0:.4f}, {b1:.4f})")


def test_criterion_11_minimum_data_length():
    assert min_data_length([6, 8]) == 12
    rng = np.random.default_rng(11)
    from oracles import tile_to
    hits = 0
    for trial in range(20):
        planted = 6 if trial % 2 == 0 else 8
        ks = residue_sets(planted).half
        x = np.zeros(12)
        for k in ks:
            x += rng.standard_normal() * tile_to(ccps1(planted, k, planted), 12)
            x += rng.standard_normal() * tile_to(ccps2(planted, k, planted), 12)
        report = candidate_matrix_solve(x, [6, 8])
        assert report.full_rank and report.rank == 12
        if max(report.candidate_strengths, key=report.candidate_strengths.get) == planted:
            hits += 1
    assert hits == 20
    _report(11, "N_min({6,8}) = 12; candidate basis full rank; planted period "
                "identified in 20/20 trials")


def test_criterion_12_band_filter_workflow():
    ecg = synthetic_ecg()
    fs = ecg.sample_rate
    N = len(ecg)
    filtered = synthesize(band_filter(occpt_analysis(ecg.samples), fs, 8.0, 20.0))

    spectrum = np.abs(np.fft.fft(filtered)) ** 2
    freqs = np.minimum(np.arange(N), N - np.arange(N)) / N * fs
    in_band = (freqs >= 8.0) & (freqs <= 20.0)
    mass = float(np.sum(spectrum[in_band]) / np.sum(spectrum))
    assert mass >= 0.95

    X = np.fft.fft(ecg.samples)
    dft_filtered = np.real(np.fft.ifft(np.where(in_band, X, 0.0)))
    err = float(np.max(np.abs(filtered - dft_filtered)))
    assert err <= 1e-8
    _report(12, f"8-20 Hz reconstruction holds {100*mass:.2f}% of spectral mass "
                f"in band and matches the DFT filter (max err {err:.2e})")

import json
import re
from functools import partial

import numpy as np
import pytest

from ccpt.ccps import COS, SIN, _pair_sums, ccps1, ccps2, pair_scale
from ccpt.matrices import (CCPT1, CCPT2, DFT_NPM, FAMILIES, OCCPT, RPT, build_columns,
                           column_layout)
from ccpt.numtheory import divisors, positive_int, residue_sets
from ccpt.period import frequency_components, period_strengths
from ccpt.signals import Signal, tone
from ccpt.transform import (CoefficientSet, analyze, band_filter, coefficient_period_check,
                            coefficients_to_dict, convolve_coefficients,
                            dft_from_occpt, occpt_analysis, occpt_synthesis,
                            parseval_energy, shift_coefficients, synthesize)

from oracles import (brute_circular_convolution, brute_dft, coefficients_dict_by_columns,
                     tile_to)


def test_occpt_analysis_dc():
    c = occpt_analysis(np.ones(8))
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(c.flat, expected, atol=1e-12)


def test_occpt_analysis_single_cosine():
    x = np.cos(2 * np.pi * np.arange(8) / 8)
    c = occpt_analysis(x)
    expected = np.zeros(8)
    expected[1] = 0.5
    np.testing.assert_allclose(c.flat, expected, atol=1e-12)


def test_occpt_analysis_published_tone_pair():
    # 100 Hz cosine at fs=360 over 54 samples lands in subspace (18, 5);
    # clean values are (0.1500, -0.2598), the published noisy draw rounds to
    # (0.149, -0.261)
    x = tone(0.6, 100.0, 360.0, 54, np.pi / 3)
    c = occpt_analysis(x)
    b0, b1 = c.pair(18, 5)
    assert b0 == pytest.approx(0.149, abs=2e-3)
    assert b1 == pytest.approx(-0.261, abs=2e-3)
    assert b0 == pytest.approx(0.3 * np.cos(np.pi / 3), abs=1e-12)
    assert b1 == pytest.approx(-0.3 * np.sin(np.pi / 3), abs=1e-12)


def test_occpt_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.standard_normal(54)
        err = np.max(np.abs(occpt_synthesis(occpt_analysis(x)) - x))
        assert err <= 1e-10


def test_occpt_synthesis_examples():
    flat = np.zeros(6)
    flat[0] = 1.0
    np.testing.assert_allclose(
        occpt_synthesis(CoefficientSet(N=6, family=OCCPT, flat=flat)), np.ones(6), atol=1e-12)
    flat = np.zeros(8)
    flat[1] = 0.5
    np.testing.assert_allclose(
        occpt_synthesis(CoefficientSet(N=8, family=OCCPT, flat=flat)),
        np.cos(2 * np.pi * np.arange(8) / 8), atol=1e-12)


def test_ccpt1_basis_vector():
    x = tile_to(ccps1(3, 1, 3), 6)
    c = analyze(x, CCPT1)
    expected = np.zeros(6)
    expected[c.flat_index(3, 1, COS, 0)] = 1.0
    np.testing.assert_allclose(c.flat, expected, atol=1e-10)


def test_ccpt2_shifted_basis_vector():
    pattern = ccps2(4, 1, 4)
    x = tile_to(pattern[(np.arange(4) - 1) % 4], 8)
    c = analyze(x, CCPT2)
    expected = np.zeros(8)
    expected[c.flat_index(4, 1, SIN, 1)] = 1.0
    np.testing.assert_allclose(c.flat, expected, atol=1e-10)


def test_ccpt_roundtrip_n18():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(18)
        for family in (CCPT1, CCPT2):
            c = analyze(x, family)
            assert np.max(np.abs(synthesize(c) - x)) <= 1e-9


@pytest.mark.parametrize("family", FAMILIES)
def test_all_family_roundtrips_real_and_complex(family):
    rng = np.random.default_rng(11)
    for N in range(1, 65):
        x = rng.standard_normal(N)
        c = analyze(x, family)
        rel = np.max(np.abs(synthesize(c) - x)) / max(1.0, np.max(np.abs(x)))
        assert rel <= 1e-9, (family, N)
        z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        cz = analyze(z, family)
        rel = np.max(np.abs(synthesize(cz) - z)) / max(1.0, np.max(np.abs(z)))
        assert rel <= 1e-9, (family, N)


def test_linearity():
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal(54), rng.standard_normal(54)
    a, b = 1.7, -0.3
    for family in (OCCPT, CCPT1, CCPT2):
        lhs = analyze(a * x + b * y, family).flat
        rhs = a * analyze(x, family).flat + b * analyze(y, family).flat
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_flat_pair_bridge_is_same_memory():
    rng = np.random.default_rng(9)
    c = occpt_analysis(rng.standard_normal(54))
    for p in divisors(54):
        for k in residue_sets(p).half:
            b0, b1 = c.pair(p, k)
            assert b0 == c.flat[(54 * k // p) % 54]
            if p >= 3:
                assert b1 == c.flat[54 - 54 * k // p]


def test_real_input_gives_real_flat():
    c = occpt_analysis(np.random.default_rng(1).standard_normal(16))
    assert not c.is_complex
    # one cosine/sine pair per conjugate subspace: N real numbers in total
    assert len(c.flat) == 16


def test_signal_wrapper_accepted():
    x = np.random.default_rng(2).standard_normal(12)
    np.testing.assert_array_equal(occpt_analysis(Signal(x, 100.0)).flat,
                                  occpt_analysis(x).flat)


def test_dft_bridge_all_ones():
    X = dft_from_occpt(occpt_analysis(np.ones(4)))
    np.testing.assert_allclose(X, [4, 0, 0, 0], atol=1e-12)


def test_dft_bridge_matches_brute_dft():
    rng = np.random.default_rng(13)
    for N in (6, 12, 54):
        x = rng.standard_normal(N)
        X = dft_from_occpt(occpt_analysis(x))
        np.testing.assert_allclose(X, brute_dft(x), atol=1e-9)
        z = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        Xz = dft_from_occpt(occpt_analysis(z))
        np.testing.assert_allclose(Xz, brute_dft(z), atol=1e-9)


def test_dft_bridge_conjugate_symmetry():
    x = np.random.default_rng(17).standard_normal(12)
    X = dft_from_occpt(occpt_analysis(x))
    for k in range(1, 12):
        assert X[12 - k] == pytest.approx(np.conj(X[k]), abs=1e-10)


def test_shift_identity_cases():
    c = occpt_analysis(np.random.default_rng(19).standard_normal(24))
    np.testing.assert_allclose(shift_coefficients(c, 0).flat, c.flat, atol=1e-12)
    np.testing.assert_allclose(shift_coefficients(c, 24).flat, c.flat, atol=1e-10)


def test_shift_takes_integers_only():
    x = np.random.default_rng(19).standard_normal(24)
    c = occpt_analysis(x)
    shifted = shift_coefficients(c, 5).flat
    np.testing.assert_array_equal(shift_coefficients(c, np.int64(5)).flat, shifted)
    np.testing.assert_allclose(occpt_synthesis(shift_coefficients(c, 5)), np.roll(x, 5),
                               atol=1e-12)
    for m in (1.5, 2.0, np.float64(3.0), "1"):
        with pytest.raises(ValueError, match="shift m must be an integer"):
            shift_coefficients(c, m)


def test_shift_matches_reanalysis():
    rng = np.random.default_rng(23)
    x = rng.standard_normal(24)
    c = occpt_analysis(x)
    for m in (1, 5, 23):
        shifted = occpt_analysis(np.roll(x, m))  # roll(x, m)[n] = x[(n-m) mod N]
        np.testing.assert_allclose(shift_coefficients(c, m).flat, shifted.flat, atol=1e-9)


def test_convolution_matches_oracle():
    rng = np.random.default_rng(29)
    a, b = rng.standard_normal(16), rng.standard_normal(16)
    direct = occpt_analysis(brute_circular_convolution(a, b))
    combined = convolve_coefficients(occpt_analysis(a), occpt_analysis(b))
    np.testing.assert_allclose(combined.flat, direct.flat, atol=1e-8)


def test_convolution_impulse_and_commutativity():
    rng = np.random.default_rng(31)
    a = rng.standard_normal(16)
    e = np.zeros(16)
    e[0] = 1.0
    via_pair = convolve_coefficients(occpt_analysis(a), occpt_analysis(e))
    direct = occpt_analysis(brute_circular_convolution(a, e))
    np.testing.assert_allclose(via_pair.flat, direct.flat, atol=1e-10)
    ab = convolve_coefficients(occpt_analysis(a), occpt_analysis(e))
    ba = convolve_coefficients(occpt_analysis(e), occpt_analysis(a))
    np.testing.assert_allclose(ab.flat, ba.flat, atol=1e-12)


def test_parseval():
    rng = np.random.default_rng(37)
    for _ in range(5):
        x = rng.standard_normal(54)
        assert parseval_energy(occpt_analysis(x)) == pytest.approx(np.sum(x ** 2), abs=1e-8)
    assert parseval_energy(occpt_analysis(np.ones(8))) == pytest.approx(8.0, abs=1e-10)
    x = np.cos(2 * np.pi * np.arange(8) / 8)
    assert parseval_energy(occpt_analysis(x)) == pytest.approx(4.0, abs=1e-10)


def test_coefficient_periodicity():
    c = occpt_analysis(np.random.default_rng(41).standard_normal(12))
    assert coefficient_period_check(c, k_multiple=1)
    assert coefficient_period_check(c, k_multiple=2)
    assert coefficient_period_check(c, k_multiple=-1)
    assert coefficient_period_check(c, k_multiple=np.int64(-3))
    with pytest.raises(ValueError, match="k_multiple must be an integer"):
        coefficient_period_check(c, k_multiple=1.5)
    with pytest.raises(ValueError, match="signal length 11 does not match"):
        coefficient_period_check(c, x=np.zeros(11))


@pytest.mark.parametrize("family", [OCCPT, CCPT1, CCPT2])
@pytest.mark.parametrize("N", [1, 2, 7, 12, 54])
def test_pair_sum_columns_are_periodic_in_the_residue(family, N):
    """k*n is reduced mod p before scaling, so the pair sums at residue
    k + m*N, sample n minus the column's downshift, are the built columns
    bit for bit: what coefficient_period_check compares is the set against
    the pair sums of x, at any k_multiple."""
    layout = column_layout(family, N)
    want = build_columns(layout, N)
    p, n = layout.periods, np.arange(N)[:, None] - layout.shift
    for m in (-3, -1, 1, 2, 5):
        k = layout.k + m * N
        got = np.where(layout.kind == SIN, _pair_sums(p, k, n, SIN), _pair_sums(p, k, n, COS))
        np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("address", [(3, 1, COS), (4, 1, SIN), (2, 1, COS)],
                         ids=["cosine", "sine", "period-2"])
def test_coefficient_period_check_catches_a_changed_coefficient(address):
    x = np.random.default_rng(41).standard_normal(12)
    c = occpt_analysis(x)
    assert coefficient_period_check(c, x=x)
    assert coefficient_period_check(c, k_multiple=-2, x=x)
    flat = np.array(c.flat)
    flat[c.flat_index(*address)] += 1e-9
    moved = CoefficientSet(N=12, family=OCCPT, flat=flat)
    # every real coefficient set is the analysis of its own synthesis, so
    # only the signal tells the moved set apart
    assert coefficient_period_check(moved)
    assert not coefficient_period_check(moved, x=x)
    assert not coefficient_period_check(moved, k_multiple=-2, x=x)


def test_appendix_shift_identities_pointwise():
    """The product expansions behind the shift rotation, for p >= 3.

    Stated with the signal-length modulus N (a multiple of p); testing over
    N = 3p per period keeps the reduction (-m) mod N == (-m) mod p honest.
    """
    for p in range(3, 17):
        N = 3 * p
        n = np.arange(N)
        M = pair_scale(p)
        for k in residue_sets(p).half:
            c1 = ccps1(p, k, N)
            c2 = ccps2(p, k, N)
            for m in (1, 2, 5):
                c1m = c1[(-m) % N]
                c2m = c2[(-m) % N]
                lhs1 = c1[(n - m) % N]
                rhs1 = c1 * c1m / (2 * M) - (M / 2) * c2 * c2m
                np.testing.assert_allclose(lhs1, rhs1, atol=1e-10)
                lhs2 = c2[(n - m) % N]
                rhs2 = (c2 * c1m + c1 * c2m) / (2 * M)
                np.testing.assert_allclose(lhs2, rhs2, atol=1e-10)


def test_family_guards():
    c = analyze(np.ones(6), CCPT1)
    a = occpt_analysis(np.ones(6))
    b = occpt_analysis(np.ones(8))
    # every entry point that reads the packed orthogonal layout, by the name
    # its error gives
    guarded = [
        ("occpt_synthesis", lambda: occpt_synthesis(c)),
        ("dft_from_occpt", lambda: dft_from_occpt(c)),
        ("shift_coefficients", lambda: shift_coefficients(c, 1)),
        ("convolve_coefficients", lambda: convolve_coefficients(c, a)),
        ("convolve_coefficients", lambda: convolve_coefficients(a, c)),
        ("parseval_energy", lambda: parseval_energy(c)),
        ("coefficient_period_check", lambda: coefficient_period_check(c)),
        ("pair", lambda: c.pair(3, 1)),
        ("frequency_components", lambda: frequency_components(c)),
    ]
    for what, call in guarded:
        with pytest.raises(ValueError, match=f"^{what} requires orthogonal-family coefficients$"):
            call()
    with pytest.raises(ValueError, match="size mismatch"):
        convolve_coefficients(a, b)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, "1", None],
                         ids=["nan", "inf", "-1", "str", "none"])
def test_number_arguments_follow_one_rule(bad):
    """Rates, band edges and tolerances are finite real numbers in a range:
    a NaN tolerance used to pass every comparison as False, and a string
    one or a string band edge raised TypeError."""
    c = occpt_analysis(np.random.default_rng(5).standard_normal(12))
    with pytest.raises(ValueError, match="^tol must be finite and >= 0, got "):
        coefficient_period_check(c, tol=bad)
    with pytest.raises(ValueError, match=r"^band edge low_hz must be finite and in \[0, 20\], got "):
        band_filter(c, 360.0, bad, 20.0)
    with pytest.raises(ValueError, match=r"^band edge high_hz must be finite and in \[0, 180\], got "):
        band_filter(c, 360.0, 1.0, bad)
    with pytest.raises(ValueError, match="^sample rate fs must be finite and > 0, got "):
        band_filter(c, bad, 1.0, 20.0)
    # a low edge above the high one, and a high edge above Nyquist
    with pytest.raises(ValueError, match=r"low_hz must be finite and in \[0, 20\], got 30"):
        band_filter(c, 360.0, 30.0, 20.0)
    with pytest.raises(ValueError, match=r"high_hz must be finite and in \[0, 180\], got 181"):
        band_filter(c, 360.0, 1.0, 181.0)
    assert coefficient_period_check(c, tol=1e-9)
    assert np.array_equal(band_filter(c, 360.0, 0, 180).flat, c.flat)


def _boolean_sites():
    """(call, message) of the integer rule and of entry points that take a
    number through the number rule; call(v) passes v as that argument."""
    c = occpt_analysis(np.random.default_rng(5).standard_normal(12))
    return {
        "positive_int": (lambda v: positive_int(v, "n"), "n must be an integer >= 1"),
        "Signal": (lambda v: Signal([1.0, 2.0], v), "sample rate fs must be finite and > 0"),
        "threshold": (lambda v: period_strengths(c, threshold=v),
                      r"threshold must be finite and in \(0, 1\]"),
        "tol": (lambda v: coefficient_period_check(c, tol=v), "tol must be finite and >= 0"),
        "min_magnitude": (lambda v: frequency_components(c, min_magnitude=v),
                          "min_magnitude must be finite and >= 0"),
    }


@pytest.mark.parametrize("bad", [True, False, np.True_, np.False_],
                         ids=["True", "False", "np.True_", "np.False_"])
@pytest.mark.parametrize("site", ["positive_int", "Signal", "threshold", "tol", "min_magnitude"])
def test_booleans_are_neither_integers_nor_numbers(site, bad):
    """positive_int(True, "n") used to return 1, and a True sample rate,
    threshold, tolerance or floor read as 1.0."""
    call, message = _boolean_sites()[site]
    with pytest.raises(ValueError, match=f"^{message}, got {re.escape(repr(bad))}$"):
        call(bad)


def test_period_check_requires_real_coefficients():
    c = occpt_analysis(np.arange(6.0) + 1j)
    with pytest.raises(ValueError, match="^coefficient_period_check requires real coefficients$"):
        coefficient_period_check(c)

def test_coefficients_to_dict_views_agree():
    x = np.random.default_rng(43).standard_normal(12)
    c = occpt_analysis(x)
    d = coefficients_to_dict(c)
    assert d["N"] == 12 and d["family"] == OCCPT
    assert len(d["flat"]) == 12 and len(d["indexed"]) == 12
    for entry in d["indexed"]:
        assert entry["value"] == pytest.approx(
            float(c.value(entry["p"], entry["k"], entry["kind"], entry["shift"])))


@pytest.mark.parametrize("N", [1, 2, 12, 54, 625])
@pytest.mark.parametrize("family", FAMILIES)
def test_coefficients_to_dict_rows_match_the_column_objects(family, N):
    """The rows built from the layout's arrays equal those read from one
    SubspaceIndex per column, key order included, real and complex."""
    rng = np.random.default_rng(N)
    x = rng.standard_normal(N)
    for signal in (x, x + 1j * rng.standard_normal(N)):
        c = analyze(signal, family)
        got, want = coefficients_to_dict(c), coefficients_dict_by_columns(c)
        assert got == want
        assert json.dumps(got) == json.dumps(want)


def test_coefficient_set_keeps_a_read_only_view():
    a = np.arange(8.0)
    c = CoefficientSet(N=8, family=RPT, flat=a)
    assert a.flags.writeable
    assert not c.flat.flags.writeable
    assert np.shares_memory(c.flat, a)
    a[0] = 5.0
    assert c.flat[0] == 5.0
    with pytest.raises(ValueError):
        c.flat[0] = 1.0


@pytest.mark.parametrize("flat", [np.ones(5), np.ones((2, 4))], ids=["length-5", "2x4"])
def test_coefficient_set_rejects_wrong_shape(flat):
    with pytest.raises(ValueError, match="1-D of length N=8"):
        CoefficientSet(N=8, family=RPT, flat=flat)


@pytest.mark.parametrize("N, family, match", [
    (12, "bogus", "unknown family 'bogus'"),
    (0, OCCPT, "N must be an integer >= 1, got 0"),
    (-3, RPT, "N must be an integer >= 1, got -3"),
    (12.0, OCCPT, "N must be an integer >= 1, got 12.0"),
], ids=["bogus-family", "N=0", "N=-3", "N=12.0"])
def test_coefficient_set_rejects_unknown_family_and_bad_size(N, family, match):
    flat = np.ones(max(int(N), 0))
    with pytest.raises(ValueError, match=match):
        CoefficientSet(N=N, family=family, flat=flat)


@pytest.mark.parametrize("flat", [np.array(["a", "b", "c", "d"]), np.array([None] * 4)],
                         ids=["strings", "objects"])
def test_coefficient_set_rejects_non_numeric_flat(flat):
    with pytest.raises(ValueError, match="CoefficientSet flat needs numeric samples"):
        CoefficientSet(N=4, family=OCCPT, flat=flat)


def test_coefficient_set_takes_numpy_integer_size():
    c = CoefficientSet(N=np.int64(6), family=OCCPT, flat=np.ones(6))
    assert c.N == 6 and type(c.N) is int
    np.testing.assert_allclose(analyze(synthesize(c), OCCPT).flat, np.ones(6), atol=1e-12)


@pytest.mark.parametrize("x, match", [
    (np.ones((4, 4)), "1-D signal"),
    (np.ones((8, 1)), "1-D signal"),
    (np.array([1.0, np.nan, 2.0, 3.0]), "finite samples"),
    (np.array([1.0, 2.0, np.inf, 3.0, 0.0, 0.0, 0.0, -np.inf]), "finite samples"),
    (np.array([1.0, 2.0j, complex(np.nan, 0.0), 3.0]), "finite samples"),
    (np.array([]), "at least one sample"),
    (["a", "b"], "numeric samples"),
], ids=["4x4", "8x1", "nan", "inf", "complex-nan", "empty", "strings"])
@pytest.mark.parametrize("analysis", [
    occpt_analysis, *(partial(analyze, family=f) for f in FAMILIES),
], ids=["occpt_analysis", *(f"analyze-{f}" for f in FAMILIES)])
def test_analysis_rejects_non_signal_input(analysis, x, match):
    with pytest.raises(ValueError, match=match):
        analysis(x)


def test_analyze_checks_input_once(monkeypatch):
    import ccpt.transform as tr
    calls = []
    check = tr._checked_samples

    def counting_check(x, caller):
        calls.append(caller)
        return check(x, caller)

    monkeypatch.setattr(tr, "_checked_samples", counting_check)
    analyze(np.ones(8), OCCPT)
    assert calls == ["analyze"]

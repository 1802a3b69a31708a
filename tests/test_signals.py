import warnings

import numpy as np
import pytest

from ccpt.signals import (Signal, hidden_periodic_component, line_noise_sigma,
                          make_x1, make_x2, samples_of, synthetic_ecg, tone,
                          x1_clean, x2_clean)
from ccpt.transform import CoefficientSet


def test_signal_container():
    s = Signal([1.0, 2.0], 10.0)
    assert len(s) == 2 and s.sample_rate == 10.0
    with pytest.raises(ValueError):
        Signal(np.zeros((2, 2)))
    np.testing.assert_array_equal(samples_of([1, 2, 3]), [1, 2, 3])


@pytest.mark.parametrize("bad,match", [
    ([1.0, np.nan], "Signal needs finite samples"),
    ([np.inf, 1.0], "Signal needs finite samples"),
    ([1.0, complex(0.0, np.nan)], "Signal needs finite samples"),
    ([], "Signal needs at least one sample"),
    (np.zeros((2, 2)), "Signal needs a 1-D signal"),
    (["a", "b"], "Signal needs numeric samples"),
    # beyond the float64 range: inf in the working precision
    (np.array([1.0, np.longdouble("1e400")], dtype=np.longdouble), "Signal needs finite samples"),
])
def test_signal_rejects_non_signal_samples(bad, match):
    with pytest.raises(ValueError, match=match):
        Signal(bad, 360.0)


@pytest.mark.parametrize("rate", [-5.0, np.nan, 0.0, "abc"], ids=["-5", "nan", "0", "abc"])
def test_signal_rejects_bad_sample_rate(rate):
    with pytest.raises(ValueError, match="sample rate fs must be finite and > 0"):
        Signal([1.0, 2.0], rate)


def test_hidden_component_is_periodic_and_seeded():
    a = hidden_periodic_component(9, 54, 99)
    b = hidden_periodic_component(9, 54, 99)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a[:9], a[9:18])
    assert len(hidden_periodic_component(5, 54, 1)) == 54


@pytest.mark.parametrize("call,match", [
    (lambda: hidden_periodic_component(0, 10, 1), "^period must be an integer >= 1, got 0$"),
    (lambda: hidden_periodic_component(5, -3, 1), "^length must be an integer >= 1, got -3$"),
    (lambda: hidden_periodic_component(5, 2.5, 1), "^length must be an integer >= 1, got 2.5$"),
    (lambda: hidden_periodic_component(5, True, 1), "^length must be an integer >= 1, got True$"),
    (lambda: tone(1.0, 1.0, 0.0, 4), r"^sample rate fs must be finite and > 0, got 0.0$"),
    (lambda: tone(1.0, 1.0, np.inf, 4), r"^sample rate fs must be finite and > 0, got inf$"),
    (lambda: tone(1.0, 1.0, 8.0, -1), "^length must be an integer >= 1, got -1$"),
    (lambda: tone(1.0, 1.0, 8.0, 0), "^length must be an integer >= 1, got 0$"),
    (lambda: tone(np.nan, 1.0, 8.0, 4), "^amplitude must be finite, got nan$"),
    (lambda: tone(1.0, np.inf, 8.0, 4), "^freq_hz must be finite, got inf$"),
    (lambda: tone(1.0, 1.0, 8.0, 4, "0"), "^phase must be finite, got '0'$"),
    (lambda: synthetic_ecg(length=-5), "^length must be an integer >= 1, got -5$"),
    (lambda: synthetic_ecg(fs=0.0), r"^sample rate fs must be finite and > 0, got 0.0$"),
    (lambda: line_noise_sigma(np.nan, 3.0), "^amplitude must be finite and >= 0, got nan$"),
    (lambda: line_noise_sigma(-0.6, 3.0), "^amplitude must be finite and >= 0, got -0.6$"),
    (lambda: line_noise_sigma(0.6, np.inf), "^snr_db must be finite, got inf$"),
], ids=["period-0", "length-negative", "length-float", "length-bool", "tone-fs-0", "tone-fs-inf",
        "tone-length-negative", "tone-length-0", "tone-amplitude-nan", "tone-freq-inf",
        "tone-phase-str", "ecg-length-negative", "ecg-fs-0", "sigma-amplitude-nan",
        "sigma-amplitude-negative", "sigma-snr-inf"])
def test_generators_reject_bad_arguments(call, match):
    """Each generator raises a ValueError naming the bad argument, with no
    NumPy warning on the way, where it returned NaN or empty samples or
    failed inside NumPy."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


def test_generators_take_numpy_integers_and_reals():
    """NumPy integers and reals are valid arguments and give the samples of
    the same Python values."""
    np.testing.assert_array_equal(hidden_periodic_component(np.int64(5), np.int32(12), 3),
                                  hidden_periodic_component(5, 12, 3))
    np.testing.assert_array_equal(tone(np.float64(0.6), np.int64(2), np.int64(8), np.uint8(9)),
                                  tone(0.6, 2.0, 8.0, 9))
    np.testing.assert_array_equal(synthetic_ecg(length=np.int64(100)).samples,
                                  synthetic_ecg(length=100).samples)
    assert line_noise_sigma(np.float64(0.6), np.int64(6)) == line_noise_sigma(0.6, 6.0)


def test_line_noise_sigma():
    # 6 dB below the (a/2)^2 line power
    assert line_noise_sigma(0.6, 6.0) == pytest.approx(0.3 * 10 ** -0.3)
    assert line_noise_sigma(0.6, 0.0) == pytest.approx(0.3)


def test_x1_recipe_shape():
    s = x1_clean()
    assert len(s) == 54 and s.sample_rate == 360.0
    probe = tone(0.6, 100.0, 360.0, 54, np.pi / 3)
    hidden = s.samples - probe
    np.testing.assert_allclose(hidden[:9], hidden[9:18], atol=1e-12)


def test_x2_recipe_shape():
    s = x2_clean()
    assert len(s) == 54
    hidden = s.samples - tone(0.3, 45.0, 360.0, 54, np.pi / 4)
    np.testing.assert_allclose(hidden[:5], hidden[5:10], atol=1e-12)


def test_noisy_fixtures_deterministic():
    np.testing.assert_array_equal(make_x1().samples, make_x1().samples)
    np.testing.assert_array_equal(make_x2(noise_seed=4).samples, make_x2(noise_seed=4).samples)
    assert not np.array_equal(make_x1(noise_seed=1).samples, make_x1(noise_seed=2).samples)


def test_noise_level_tracks_snr():
    clean = x1_clean().samples
    noisy = make_x1(noise_seed=3, snr_db=6.0).samples
    resid = noisy - clean
    sigma = line_noise_sigma(0.6, 6.0)
    assert np.std(resid) == pytest.approx(sigma, rel=0.5)


def test_synthetic_ecg():
    s = synthetic_ecg()
    assert len(s) == 625 and s.sample_rate == 62.5
    assert np.max(s.samples) > 0.5          # R spikes present
    np.testing.assert_array_equal(s.samples, synthetic_ecg().samples)


def test_samples_and_coefficients_are_double():
    """Samples and coefficients are kept in the working precision, float64
    or complex128, whatever their dtype; float64 and complex128 arrays are
    kept as they are, without a copy."""
    for values, want in (([True, False], np.float64), (np.arange(3, dtype=np.int32), np.float64),
                         (np.ones(3, np.float16), np.float64),
                         (np.ones(3, np.longdouble), np.float64),
                         (np.ones(3, np.complex64), np.complex128),
                         (np.ones(3, np.clongdouble), np.complex128)):
        assert Signal(values).samples.dtype == want
        assert CoefficientSet(N=len(values), family="occpt", flat=values).flat.dtype == want
    for values in (np.ones(3), np.ones(3, complex)):
        assert np.shares_memory(Signal(values).samples, values)
        assert np.shares_memory(CoefficientSet(N=3, family="rpt", flat=values).flat, values)

"""Signal container and the bundled reference signal generators.

The two mixture recipes reproduce the package's period-estimation test
signals: a hidden random periodic component plus a probe cosine, with
additive white Gaussian noise. The hidden components are pinned by
documented component seeds (they are part of the fixture, exactly as a
recorded signal would be); the noise seed varies per trial.

Noise convention: `snr_db` is referenced to the probe tone's per-line power
(a/2)^2, i.e. the power of each complex exponential in its conjugate pair,
so sigma^2 = (a/2)^2 * 10^(-snr_db/10). Referencing total signal power makes
the published coefficient perturbations and significance tables
irreproducible; see the repository notes for the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

__all__ = [
    "Signal", "samples_of",
    "X1_COMPONENT_SEED", "X1_NOISE_SEED", "X2_COMPONENT_SEED", "X2_NOISE_SEED",
    "hidden_periodic_component", "line_noise_sigma", "tone",
    "x1_clean", "x2_clean", "make_x1", "make_x2",
    "synthetic_ecg",
]

X1_COMPONENT_SEED = 99
X1_NOISE_SEED = 0
X2_COMPONENT_SEED = 10
X2_NOISE_SEED = 10010

ECG_SEED = 625

# the working precision (`_double`), as dtypes: comparing with a type
# converts it to a dtype on every call
_FLOAT64, _COMPLEX128 = np.dtype(np.float64), np.dtype(np.complex128)


@dataclass(frozen=True, eq=False)
class Signal:
    """A finite sample sequence with an optional sample rate in Hz."""

    samples: np.ndarray
    sample_rate: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples", _checked_samples(self.samples, "Signal"))
        if self.sample_rate is not None:
            fs = _checked_real(self.sample_rate, "sample rate fs", open_low=True)
            object.__setattr__(self, "sample_rate", fs)

    def __len__(self) -> int:
        return len(self.samples)


def samples_of(x) -> np.ndarray:
    """Accept a Signal or any array-like and return the sample array."""
    if isinstance(x, Signal):
        return x.samples
    return np.asarray(x)


def _checked_samples(x, caller: str) -> np.ndarray:
    """samples_of(x), required to be a nonempty, finite, numeric 1-D
    sequence, in the working precision (`_double`); the error names the
    caller. A longdouble beyond the float64 range becomes inf, so it is
    rejected as non-finite."""
    x = samples_of(x)
    if x.ndim != 1:
        raise ValueError(f"{caller} needs a 1-D signal, got shape {x.shape}")
    if x.size == 0:
        raise ValueError(f"{caller} needs at least one sample")
    x = _double(x, caller)
    if not np.isfinite(x).all():
        raise ValueError(f"{caller} needs finite samples; the signal has NaN or inf")
    return x


def _double(x: np.ndarray, caller: str) -> np.ndarray:
    """x as complex128 when it is complex and float64 otherwise, copied only
    when its dtype differs: the package's one working precision, so every
    path computes in double whatever the input dtype. x must have a
    boolean, integer, real or complex dtype; the error names the caller."""
    kind = x.dtype.kind
    if kind not in "biufc":
        raise ValueError(f"{caller} needs numeric samples, got dtype {x.dtype}")
    double = _COMPLEX128 if kind == "c" else _FLOAT64
    if x.dtype != double:
        # a longdouble beyond the float64 range becomes inf without a warning
        with np.errstate(over="ignore"):
            x = x.astype(double)
    return x


def _checked_real(value, name: str, low: float = 0.0, high: float = inf, *,
                  open_low: bool = False) -> float:
    """value as a float, required to be a finite real number, not a boolean,
    from low (excluded when open_low) to high: the one number rule of sample
    rates, thresholds, floors, tolerances and band edges."""
    try:
        valid = (not isinstance(value, (bool, np.bool_)) and isfinite(value)
                 and (low < value if open_low else low <= value) and value <= high)
    except (TypeError, OverflowError):
        valid = False
    if not valid:
        bound = (f"{'>' if open_low else '>='} {low:g}" if high == inf
                 else f"in {'(' if open_low else '['}{low:g}, {high:g}]")
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")
    return float(value)


def hidden_periodic_component(period: int, length: int, seed: int) -> np.ndarray:
    """One period of standard-normal data, tiled (and truncated) to length."""
    one = np.random.default_rng(seed).standard_normal(period)
    reps = -(-length // period)
    return np.tile(one, reps)[:length]


def tone(amplitude: float, freq_hz: float, fs: float, length: int, phase: float = 0.0) -> np.ndarray:
    n = np.arange(length)
    return amplitude * np.cos(2 * np.pi * freq_hz * n / fs + phase)


def line_noise_sigma(amplitude: float, snr_db: float) -> float:
    """Noise standard deviation for the line-power SNR convention."""
    return float((amplitude / 2.0) * 10 ** (-snr_db / 20.0))


def x1_clean(component_seed: int = X1_COMPONENT_SEED) -> Signal:
    """Noiseless mixture: hidden 9-periodic random component plus a
    0.6-amplitude 100 Hz cosine (phase pi/3) sampled at 360 Hz, 54 samples.
    Overall period 18."""
    x = hidden_periodic_component(9, 54, component_seed) + tone(0.6, 100.0, 360.0, 54, np.pi / 3)
    return Signal(x, sample_rate=360.0)


def x2_clean(component_seed: int = X2_COMPONENT_SEED) -> Signal:
    """Noiseless mixture: hidden 5-periodic random component plus a
    0.3-amplitude 45 Hz cosine (phase pi/4) sampled at 360 Hz, 54 samples.
    Overall period 40, not a divisor of 54."""
    x = hidden_periodic_component(5, 54, component_seed) + tone(0.3, 45.0, 360.0, 54, np.pi / 4)
    return Signal(x, sample_rate=360.0)


def _noisy(clean: Signal, amplitude: float, snr_db: float, noise_seed: int) -> Signal:
    """clean plus seeded noise at snr_db for a probe tone of this amplitude."""
    sigma = line_noise_sigma(amplitude, snr_db)
    noise = np.random.default_rng(noise_seed).normal(0.0, sigma, len(clean))
    return Signal(clean.samples + noise, sample_rate=clean.sample_rate)


def make_x1(noise_seed: int = X1_NOISE_SEED, snr_db: float = 6.0,
            component_seed: int = X1_COMPONENT_SEED) -> Signal:
    return _noisy(x1_clean(component_seed), 0.6, snr_db, noise_seed)


def make_x2(noise_seed: int = X2_NOISE_SEED, snr_db: float = 6.0,
            component_seed: int = X2_COMPONENT_SEED) -> Signal:
    return _noisy(x2_clean(component_seed), 0.3, snr_db, noise_seed)


def synthetic_ecg(seed: int = ECG_SEED, length: int = 625, fs: float = 62.5) -> Signal:
    """ECG-like fixture: QRS-shaped spikes every 48 samples plus P/T bumps,
    slow baseline wander and a little noise. Stands in for a recorded lead
    in the band-filter workflow tests."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    x = 0.15 * np.sin(2 * np.pi * 0.35 * t / fs) + 0.05 * np.sin(2 * np.pi * 0.12 * t / fs + 1.0)

    def bump(center, width, amp):
        return amp * np.exp(-0.5 * ((t - center) / width) ** 2)

    beat = 10.0
    while beat < length + 24:
        jitter = rng.normal(0.0, 0.4)
        c = beat + jitter
        x += bump(c - 6.0, 2.2, -0.12)          # Q dip
        x += bump(c, 1.3, 1.0)                  # R spike
        x += bump(c + 5.0, 2.0, -0.18)          # S dip
        x += bump(c - 12.0, 3.0, 0.12)          # P wave
        x += bump(c + 16.0, 4.5, 0.25)          # T wave
        beat += 48.0
    x += rng.normal(0.0, 0.02, length)
    return Signal(x, sample_rate=fs)

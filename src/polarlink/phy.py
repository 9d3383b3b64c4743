"""FFT-bin model of a chirp backscatter symbol and power-free LLR metrics.

A tag symbol is observed as a vector of complex FFT bins.  Bit 0 leaves the
excitation peak at its reference bin s; bit 1 moves it half the band away to
s_bar = (s + n_fft/2) mod n_fft, with the peak power optionally split across
s_bar and its two neighbors to model the spectrum leakage caused by the
amplitude step between the tag's antennas.

The proposed LLR metrics score the two candidate bins by how *noise-like*
they are: under Gaussian noise a signal-free bin magnitude is Rayleigh, so
the log-ratio of the two Rayleigh densities needs only the noise variance,
never the received signal power.  A conventional power-based baseline
(Rician vs Rayleigh with an estimated peak amplitude) is included for
comparison.

Symbols are made and scored in batches: ``synthesize_symbols`` returns an
(M, n_fft) bin array for M (bit, peak) pairs, and ``llr_basic_many``,
``llr_leakage_many`` and ``llr_conventional_many`` score its rows against
the same peaks.  ``llr_basic`` and ``llr_leakage`` score one symbol, given
as 1-D bins and its peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAG_FLOOR",
    "check_n_fft",
    "NoiseModel",
    "LeakageModel",
    "synthesize_symbols",
    "llr_basic",
    "llr_basic_many",
    "llr_leakage",
    "llr_leakage_many",
    "llr_conventional_many",
]

# Magnitudes are clamped here before any log so synthetic zero bins stay finite.
MAG_FLOOR = 1e-30


def check_n_fft(n_fft) -> None:
    """Raise ValueError unless n_fft is an integer power of two >= 4."""
    if not (isinstance(n_fft, (int, np.integer)) and n_fft >= 4 and (n_fft & (n_fft - 1)) == 0):
        raise ValueError(f"n_fft must be a power of two >= 4, got {n_fft!r}")


def _check_peaks(peaks, m: int, n_fft: int) -> np.ndarray:
    """One integer excitation peak in [0, n_fft) per symbol, as int64."""
    peaks = np.asarray(peaks)
    if peaks.shape != (m,):
        raise ValueError(f"need one peak per symbol: {m} symbols, peaks of shape {peaks.shape}")
    if m and (peaks.dtype.kind not in "iu" or peaks.min() < 0 or peaks.max() >= n_fft):
        raise ValueError(f"peaks must be integers in [0, {n_fft})")
    return peaks.astype(np.int64, copy=False)


@dataclass(frozen=True)
class NoiseModel:
    """Per-component Gaussian noise variance and true peak power.

    signal_power feeds only the synthesizer and the conventional baseline;
    the proposed LLR metrics never see it.
    """

    sigma2: float
    signal_power: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")
        if not (np.isfinite(self.signal_power) and self.signal_power >= 0):
            raise ValueError(f"signal_power must be finite and >= 0, got {self.signal_power!r}")


@dataclass(frozen=True)
class LeakageModel:
    """Power split (below, center, above) of a bit-1 peak across adjacent bins."""

    fractions: tuple[float, float, float] = (0.25, 0.5, 0.25)

    def __post_init__(self):
        lo, mid, hi = self.fractions
        if not np.all(np.isfinite(self.fractions)):
            raise ValueError(f"leakage fractions must be finite, got {self.fractions!r}")
        if min(self.fractions) < 0:
            raise ValueError("leakage fractions must be >= 0")
        if abs(lo + mid + hi - 1.0) > 1e-12:
            raise ValueError("leakage fractions must sum to 1")
        if mid < max(lo, hi):
            raise ValueError("center bin must keep the largest share")


NO_LEAKAGE = LeakageModel((0.0, 1.0, 0.0))


def _bit1_peak(s, n_fft):
    """The bit-1 peak bin s_bar = (s + n_fft/2) mod n_fft, for a bin or an array of them."""
    return (s + n_fft // 2) % n_fft


def synthesize_symbols(bits, peaks, noise: NoiseModel, leak: LeakageModel,
                       n_fft: int, rng) -> np.ndarray:
    """Vectorized synthesis of many symbols; returns an (M, n_fft) bin array.

    ``bits`` is 1-D, each 0 or 1, and ``peaks`` gives the excitation peak
    per symbol, an integer in [0, n_fft); anything else raises ValueError.
    Consumes the generator's stream in one block so the result is a pure
    function of the generator state.
    """
    check_n_fft(n_fft)
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError(f"bits must be 1-D, got shape {bits.shape}")
    m = bits.size
    if m and (bits.dtype.kind not in "biu" or bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0 or 1")
    peaks = _check_peaks(peaks, m, n_fft)
    g = rng.standard_normal((m, n_fft, 2))
    g *= np.sqrt(noise.sigma2)
    bins = g.view(np.complex128).reshape(m, n_fft)   # (re, im) pairs as one complex
    if noise.signal_power > 0 and m:
        rows = np.arange(m)
        zero = bits == 0
        bins[rows[zero], peaks[zero]] += np.sqrt(noise.signal_power)
        ones = rows[~zero]
        if ones.size:
            s_bar = _bit1_peak(peaks[~zero], n_fft)
            for off, frac in zip((-1, 0, 1), leak.fractions):
                if frac > 0:
                    bins[ones, (s_bar + off) % n_fft] += np.sqrt(frac * noise.signal_power)
    return bins


def _mags(bins):
    return np.maximum(np.abs(bins), MAG_FLOOR)


def _candidates(bins, peaks, sigma2):
    """Validate a batch and locate its candidates: (bins, rows, s_bar, |f_s|).

    bins is (M, n_fft) with n_fft a power of two >= 4, and peaks holds one
    integer in [0, n_fft) per row.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    bins = np.asarray(bins)
    if bins.ndim != 2:
        raise ValueError(f"bins must be 2-D (symbols, n_fft), got shape {bins.shape}")
    check_n_fft(bins.shape[1])
    peaks = _check_peaks(peaks, bins.shape[0], bins.shape[1])
    rows = np.arange(bins.shape[0])
    s_bar = _bit1_peak(peaks, bins.shape[1])
    return bins, rows, s_bar, _mags(bins[rows, peaks])


def llr_basic_many(bins, peaks, sigma2: float) -> np.ndarray:
    """Rayleigh-density log-ratio of the two candidate bins, batched.

    L = ln(|f_sbar| / |f_s|) + (|f_s|^2 - |f_sbar|^2) / (2 sigma^2); positive
    favors bit 0.  Needs only the noise variance.
    """
    bins, rows, s_bar, ms = _candidates(bins, peaks, sigma2)
    mb = _mags(bins[rows, s_bar])
    return np.log(mb / ms) + (ms**2 - mb**2) / (2.0 * sigma2)


def _one_symbol(bins) -> np.ndarray:
    """One symbol's 1-D bins as a one-row batch."""
    bins = np.asarray(bins)
    if bins.ndim != 1:
        raise ValueError(f"one symbol's bins must be 1-D, got shape {bins.shape}")
    return bins[None, :]


def llr_basic(bins, peak: int, sigma2: float) -> float:
    """llr_basic_many for one symbol: 1-D bins and its excitation peak."""
    return float(llr_basic_many(_one_symbol(bins), [peak], sigma2)[0])


def llr_leakage_many(bins, peaks, sigma2: float) -> np.ndarray:
    """Leakage-corrected LLR: the bit-1 hypothesis pools the shifted bin and
    its two cyclic neighbors, since the antenna step spills peak power there."""
    bins, rows, s_bar, ms = _candidates(bins, peaks, sigma2)
    n_fft = bins.shape[1]
    pooled = np.zeros_like(ms)
    for off in (-1, 0, 1):
        pooled += _mags(bins[rows, (s_bar + off) % n_fft]) ** 2
    root = np.sqrt(pooled)
    return np.log(root / ms) + (ms**2 - pooled) / (2.0 * sigma2)


def llr_leakage(bins, peak: int, sigma2: float) -> float:
    """llr_leakage_many for one symbol: 1-D bins and its excitation peak."""
    return float(llr_leakage_many(_one_symbol(bins), [peak], sigma2)[0])


def llr_conventional_many(bins, peaks, sigma2: float, p_hat: float) -> np.ndarray:
    """Power-based baseline: Rician-vs-Rayleigh log-ratio at estimated power.

    L = ln I0(|f_s| sqrt(p_hat) / sigma^2) - ln I0(|f_sbar| sqrt(p_hat) / sigma^2).
    Collapses to 0 when p_hat = 0 and degrades as p_hat drifts from the true
    power the estimator cannot observe.
    """
    from scipy.special import i0e  # imported here: no other path needs scipy

    bins, rows, s_bar, ms = _candidates(bins, peaks, sigma2)
    if not 0 <= p_hat < np.inf:
        raise ValueError(f"p_hat must be finite and >= 0, got {p_hat}")
    nu = np.sqrt(p_hat)
    xs = ms * nu / sigma2
    xb = _mags(bins[rows, s_bar]) * nu / sigma2
    # ln I0(x) = ln(i0e(x)) + x, stable for large arguments
    return (np.log(i0e(xs)) + xs) - (np.log(i0e(xb)) + xb)

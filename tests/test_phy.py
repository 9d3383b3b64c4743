"""PHY: peak mapping, symbol synthesis, LLR metric properties."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import polarlink
from polarlink.phy import (
    NO_LEAKAGE,
    LeakageModel,
    NoiseModel,
    check_n_fft,
    llr_basic,
    llr_basic_many,
    llr_conventional_many,
    llr_leakage,
    llr_leakage_many,
    synthesize_symbols,
)
from polarlink.simulate import snr_to_power


def _noiseless_peak(bit, s, n_fft):
    """The bin holding the tag peak of one noiseless symbol."""
    noise = NoiseModel(sigma2=1e-12, signal_power=4.0)
    bins = synthesize_symbols([bit], [s], noise, NO_LEAKAGE, n_fft, np.random.default_rng(0))
    return int(np.argmax(np.abs(bins[0])))


class TestTagPeakPosition:
    def test_bit_zero_identity(self):
        assert _noiseless_peak(0, 10, 128) == 10

    def test_bit_one_half_band(self):
        assert _noiseless_peak(1, 10, 128) == 74

    def test_wraparound(self):
        assert _noiseless_peak(1, 100, 128) == 36

    def test_synthesis_and_metrics_use_the_same_peak(self):
        # noiseless bit-1 symbols at every reference bin: synthesis puts the
        # peak at s_bar = (s + n_fft/2) mod n_fft, wrapping for s >= 8, and
        # the metrics read it there, so every LLR favors bit 1
        n_fft = 16
        peaks = np.arange(n_fft)
        noise = NoiseModel(sigma2=1e-12, signal_power=4.0)
        bins = synthesize_symbols(np.ones(n_fft, dtype=np.uint8), peaks, noise, NO_LEAKAGE,
                                  n_fft, np.random.default_rng(5))
        assert np.argmax(np.abs(bins), axis=1).tolist() == \
            [8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7]
        assert np.all(llr_basic_many(bins, peaks, noise.sigma2) < 0)
        assert np.all(llr_leakage_many(bins, peaks, noise.sigma2) < 0)


class TestModels:
    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma2=0.0)
        with pytest.raises(ValueError):
            NoiseModel(sigma2=1.0, signal_power=-1.0)

    @pytest.mark.parametrize("kwargs", [dict(sigma2=float("nan")), dict(sigma2=float("inf")),
                                        dict(sigma2=1.0, signal_power=float("nan")),
                                        dict(sigma2=1.0, signal_power=float("inf"))])
    def test_noise_model_refuses_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(**kwargs)

    @pytest.mark.parametrize("fractions", [(float("nan"), 1.0, 0.0), (0.0, float("nan"), 0.0),
                                           (0.25, 0.5, float("inf"))])
    def test_leakage_model_refuses_non_finite(self, fractions):
        with pytest.raises(ValueError, match="finite"):
            LeakageModel(fractions)

    @pytest.mark.parametrize("model, args, match", [
        (NoiseModel, ("1",), "sigma2"), (NoiseModel, (True,), "sigma2"),
        (NoiseModel, (1.0, None), "signal_power"), (LeakageModel, ((0.5, 0.5),), "leakage"),
        (LeakageModel, ("abc",), "leakage"), (LeakageModel, ((0.25, "0.5", 0.25),), "leakage")])
    def test_models_refuse_non_numbers(self, model, args, match):
        with pytest.raises(ValueError, match=match):
            model(*args)

    def test_leakage_validation(self):
        LeakageModel((0.25, 0.5, 0.25))
        with pytest.raises(ValueError):
            LeakageModel((0.5, 0.2, 0.3))  # center not the largest
        with pytest.raises(ValueError):
            LeakageModel((0.3, 0.5, 0.3))  # does not sum to 1


def scalar_observation_oracle(bit, s_i, noise, leak, n_fft, seed):
    """The per-symbol synthesis loop, written out independently of the batch."""
    g = np.random.default_rng(seed).standard_normal((n_fft, 2))
    bins = np.sqrt(noise.sigma2) * (g[:, 0] + 1j * g[:, 1])
    if noise.signal_power > 0:
        if bit == 0:
            bins[s_i] += np.sqrt(noise.signal_power)
        else:
            for off, frac in zip((-1, 0, 1), leak.fractions):
                bins[(s_i + n_fft // 2 + off) % n_fft] += np.sqrt(frac * noise.signal_power)
    return bins


def _one_symbol(bit, s_i, noise, leak, n_fft, seed):
    return synthesize_symbols([bit], [s_i], noise, leak, n_fft, np.random.default_rng(seed))[0]


class TestSynthesize:
    def test_zero_power_pure_noise(self):
        noise = NoiseModel(sigma2=1.0, signal_power=0.0)
        bins = _one_symbol(0, 5, noise, NO_LEAKAGE, 64, 3)
        # no bin is special
        assert np.abs(bins).max() < 6.0

    def test_noiseless_limit_bit0(self):
        noise = NoiseModel(sigma2=1e-12, signal_power=4.0)
        bins = _one_symbol(0, 9, noise, NO_LEAKAGE, 64, 4)
        assert np.abs(bins[9]) == pytest.approx(2.0, abs=1e-4)
        others = np.delete(np.abs(bins), 9)
        assert others.max() < 1e-4

    def test_noiseless_limit_bit1_leakage_split(self):
        leak = LeakageModel((0.25, 0.5, 0.25))
        noise = NoiseModel(sigma2=1e-12, signal_power=4.0)
        bins = _one_symbol(1, 9, noise, leak, 64, 4)
        s_bar = (9 + 32) % 64
        assert np.abs(bins[s_bar]) == pytest.approx(np.sqrt(2.0), abs=1e-4)
        assert np.abs(bins[s_bar - 1]) == pytest.approx(1.0, abs=1e-4)
        assert np.abs(bins[s_bar + 1]) == pytest.approx(1.0, abs=1e-4)
        # total peak power is conserved across the split
        power = np.sum(np.abs(bins[s_bar - 1:s_bar + 2]) ** 2)
        assert power == pytest.approx(4.0, rel=1e-3)

    def test_seed_reproducibility(self):
        noise = NoiseModel(sigma2=2.0, signal_power=1.0)
        a = _one_symbol(1, 17, noise, NO_LEAKAGE, 128, 99)
        b = _one_symbol(1, 17, noise, NO_LEAKAGE, 128, 99)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("leak", [NO_LEAKAGE, LeakageModel((0.25, 0.5, 0.25)),
                                      LeakageModel((0.0, 0.6, 0.4))])
    def test_observation_is_one_row_of_the_batch(self, leak):
        # a one-symbol batch is the scalar loop, bit for bit
        for seed in range(20):
            for bit in (0, 1):
                noise = NoiseModel(sigma2=1.5, signal_power=[0.0, 0.3, 40.0][seed % 3])
                s_i = (7 * seed) % 64
                row = _one_symbol(bit, s_i, noise, leak, 64, seed)
                ref = scalar_observation_oracle(bit, s_i, noise, leak, 64, seed)
                assert row.tobytes() == ref.tobytes()

    def test_bins_equal_the_complex_sum_expression(self):
        # the batch synthesizer views its scaled (re, im) draws as complex;
        # the reference builds the bins as sqrt(sigma2) * (re + 1j * im)
        def reference(bits, peaks, noise, leak, n_fft, rng):
            m = bits.size
            g = rng.standard_normal((m, n_fft, 2))
            bins = np.sqrt(noise.sigma2) * (g[..., 0] + 1j * g[..., 1])
            for row in range(m):
                if noise.signal_power > 0 and bits[row] == 0:
                    bins[row, peaks[row]] += np.sqrt(noise.signal_power)
                elif noise.signal_power > 0:
                    s_bar = (peaks[row] + n_fft // 2) % n_fft
                    for off, frac in zip((-1, 0, 1), leak.fractions):
                        if frac > 0:
                            bins[row, (s_bar + off) % n_fft] += np.sqrt(frac * noise.signal_power)
            return bins

        rng = np.random.default_rng(12)
        for case in range(200):
            m = int(rng.integers(0, 40))
            n_fft = 1 << int(rng.integers(2, 9))
            sigma2 = float(rng.choice([1e-12, 0.37, 1.0, 2.5, 1e6]))
            power = 0.0 if case % 5 == 0 else snr_to_power(rng.uniform(-30.0, 30.0), sigma2)
            noise = NoiseModel(sigma2=sigma2, signal_power=power)
            leak = (NO_LEAKAGE, LEAK)[case % 2]
            bits = rng.integers(0, 2, m)
            peaks = rng.integers(0, n_fft, m)
            got = synthesize_symbols(bits, peaks, noise, leak, n_fft, np.random.default_rng(case))
            ref = reference(bits, peaks, noise, leak, n_fft, np.random.default_rng(case))
            assert got.shape == ref.shape == (m, n_fft)
            assert got.dtype == ref.dtype == np.complex128
            assert got.tobytes() == ref.tobytes()

    def test_batch_matches_scalar_distribution_contract(self):
        noise = NoiseModel(sigma2=1.0, signal_power=9.0)
        rng = np.random.default_rng(11)
        bits = np.array([0, 1, 0, 1])
        peaks = np.array([3, 3, 60, 60])
        bins = synthesize_symbols(bits, peaks, noise, NO_LEAKAGE, 64, rng)
        assert bins.shape == (4, 64)
        # the signal lands where the bit says it should
        assert np.abs(bins[0, 3]) > 1.5
        assert np.abs(bins[1, (3 + 32) % 64]) > 1.5


NOISE = NoiseModel(sigma2=1.0, signal_power=4.0)
LEAK = LeakageModel((0.25, 0.5, 0.25))
METRICS = (llr_basic_many, llr_leakage_many,
           lambda bins, peaks, sigma2: llr_conventional_many(bins, peaks, sigma2, 1.0))


def _synth(bits, peaks, n_fft=128):
    return synthesize_symbols(bits, peaks, NOISE, LEAK, n_fft, np.random.default_rng(0))


# The boundary rule written out independently of phy.py, and batches for the
# properties: a valid batch with at most one part replaced by an arbitrary one.

_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=8)


def _n_fft_ok(n_fft):
    return n_fft >= 4 and bin(n_fft).count("1") == 1


def _peaks_ok(peaks, m, n_fft):
    return peaks.shape == (m,) and (m == 0 or (
        peaks.dtype.kind in "iu" and all(0 <= p < n_fft for p in peaks.tolist())))


def _ints(draw, values, shape):
    n = int(np.prod(shape))
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.int64).reshape(shape)


@st.composite
def _any_ints(draw, hi, shape):
    """Integers in [0, hi), or reaching -1 or hi, of ``shape`` or any small
    one, cast to one of several dtypes."""
    shape = draw(st.one_of(st.just(shape), _shapes))
    values = st.integers(draw(st.sampled_from([0, -1])), hi - draw(st.sampled_from([1, 0])))
    dtype = draw(st.sampled_from([np.int64, np.uint8, np.float64, np.bool_]))
    return _ints(draw, values, shape).astype(dtype)


@st.composite
def _symbol_batches(draw):
    n_fft, m = draw(st.sampled_from([4, 8, 64])), draw(st.integers(0, 6))
    bits = _ints(draw, st.integers(0, 1), (m,)).astype(np.uint8)
    peaks = _ints(draw, st.integers(0, n_fft - 1), (m,))
    part = draw(st.sampled_from(["none", "bits", "peaks", "n_fft"]))
    if part == "bits":
        bits = draw(_any_ints(2, (m,)))
    elif part == "peaks":
        peaks = draw(_any_ints(n_fft, (m,)))
    elif part == "n_fft":
        n_fft = draw(st.integers(-4, 70))
    return bits, peaks, n_fft


@st.composite
def _bin_batches(draw):
    n_fft, m = draw(st.sampled_from([4, 8, 16])), draw(st.integers(0, 4))
    peaks = _ints(draw, st.integers(0, n_fft - 1), (m,))
    shape = (m, n_fft)
    part = draw(st.sampled_from(["none", "bins", "peaks"]))
    if part == "bins":
        shape = draw(st.one_of(st.tuples(st.just(m), st.integers(0, 9)), _shapes))
    elif part == "peaks":
        peaks = draw(_any_ints(n_fft, (m,)))
    bins = draw(hnp.arrays(np.complex128, shape, elements=st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False)))
    return bins, peaks


class TestBatchBoundary:
    @pytest.mark.parametrize("n_fft", [4, 8, 128, np.int64(64)])
    def test_n_fft_accepts_powers_of_two(self, n_fft):
        check_n_fft(n_fft)

    @pytest.mark.parametrize("n_fft", [-4, 0, 1, 2, 6, 100, 128.0, "128", None])
    def test_n_fft_rejects_the_rest(self, n_fft):
        with pytest.raises(ValueError):
            check_n_fft(n_fft)

    @pytest.mark.parametrize("call", [
        lambda: _synth([0, 1], [5, -1]),
        lambda: _synth([0, 2], [5, 6]),
        lambda: _synth([0, 1], [5, 128]),
        lambda: _synth([0, 1, 1], [5, 6]),
        lambda: _synth([[0, 1]], [5, 6]),
        lambda: _synth([0.0, 1.0], [5, 6]),
        lambda: _synth([0, 1], [5.0, 6.0]),
        lambda: _synth([0, 1], [5, 6], n_fft=6),
        lambda: llr_basic_many(np.ones((2, 128)), [5, -1], 1.0),
        lambda: llr_leakage_many(np.ones((2, 128)), [5, 128], 1.0),
        lambda: llr_basic_many(np.ones((2, 128)), [5], 1.0),
        lambda: llr_basic_many(np.ones((2, 6)), [1, 2], 1.0),
        lambda: llr_basic_many(np.ones(128), [5], 1.0),
        lambda: llr_conventional_many(np.ones((1, 128)), [[5]], 1.0, 1.0),
        lambda: llr_basic(np.ones((1, 128)), 5, 1.0),
        lambda: llr_leakage(np.ones(6), 1, 1.0),
        lambda: llr_leakage(np.ones(128), 128, 1.0),
    ], ids=["peak_negative", "bit_2", "peak_n_fft", "length_mismatch", "bits_2d",
            "float_bits", "float_peaks", "synth_n_fft_6", "llr_peak_negative",
            "llr_peak_n_fft", "llr_length_mismatch", "llr_6_bins", "llr_1d_bins",
            "llr_2d_peaks", "one_symbol_2d_bins", "one_symbol_6_bins",
            "one_symbol_peak_n_fft"])
    def test_shown_defects_raise_value_error(self, call):
        with pytest.raises(ValueError):
            call()

    @settings(max_examples=300, deadline=None)
    @given(batch=_symbol_batches())
    def test_synthesis_raises_only_value_error(self, batch):
        bits, peaks, n_fft = batch
        valid = (_n_fft_ok(n_fft) and bits.ndim == 1 and _peaks_ok(peaks, bits.size, n_fft)
                 and (bits.size == 0 or (bits.dtype.kind in "biu"
                                         and set(bits.tolist()) <= {0, 1})))
        if valid:
            assert _synth(bits, peaks, n_fft).shape == (bits.size, n_fft)
        else:
            with pytest.raises(ValueError):
                _synth(bits, peaks, n_fft)

    @settings(max_examples=300, deadline=None)
    @given(batch=_bin_batches())
    def test_llrs_raise_only_value_error(self, batch):
        bins, peaks = batch
        valid = (bins.ndim == 2 and _n_fft_ok(bins.shape[1])
                 and _peaks_ok(peaks, bins.shape[0], bins.shape[1]))
        for metric in METRICS:
            if valid:
                assert metric(bins, peaks, 1.0).shape == (bins.shape[0],)
            else:
                with pytest.raises(ValueError):
                    metric(bins, peaks, 1.0)


class TestLlrBasic:
    def test_equal_magnitudes_zero(self):
        bins = np.ones(64, dtype=complex)
        assert llr_basic(bins, 4, 1.0) == pytest.approx(0.0)

    def test_closed_form_value(self):
        bins = np.zeros(64, dtype=complex)
        bins[4] = 2.0
        bins[36] = 1.0
        assert llr_basic(bins, 4, 1.0) == pytest.approx(np.log(0.5) + 1.5)

    def test_antisymmetry_under_swap(self):
        rng = np.random.default_rng(12)
        bins = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        swapped = bins.copy()
        swapped[10], swapped[42] = swapped[42], swapped[10]
        assert llr_basic(bins, 10, 1.0) == pytest.approx(-llr_basic(swapped, 10, 1.0))

    def test_scale_covariance(self):
        rng = np.random.default_rng(13)
        bins = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        base = llr_basic(bins, 1, 1.7)
        for c in (0.5, 3.0):
            assert llr_basic(c * bins, 1, c * c * 1.7) == pytest.approx(base, rel=1e-12)

    def test_sign_recovers_bit_and_improves_with_power(self):
        rng = np.random.default_rng(14)
        acc = []
        for snr in (-2.0, 2.0, 6.0):
            noise = NoiseModel(sigma2=1.0, signal_power=snr_to_power(snr, 1.0))
            bits = rng.integers(0, 2, 4000)
            peaks = rng.integers(0, 64, 4000)
            bins = synthesize_symbols(bits, peaks, noise, NO_LEAKAGE, 64, rng)
            llrs = llr_basic_many(bins, peaks, 1.0)
            acc.append(((llrs < 0).astype(int) == bits).mean())
        assert acc[0] > 0.5
        assert acc[0] < acc[1] < acc[2]

    def test_power_free_interfaces(self):
        # the central interface guarantee: no signal-power argument exists
        assert "p_hat" not in inspect.signature(llr_basic).parameters
        assert "p_hat" not in inspect.signature(llr_leakage).parameters
        assert list(inspect.signature(llr_basic).parameters) == ["bins", "peak", "sigma2"]
        assert list(inspect.signature(llr_leakage).parameters) == ["bins", "peak", "sigma2"]


class TestLlrLeakage:
    def test_closed_form_value(self):
        bins = np.zeros(64, dtype=complex)
        bins[4] = 1.0
        s_bar = 36
        bins[s_bar - 1] = bins[s_bar] = bins[s_bar + 1] = 1.0
        assert llr_leakage(bins, 4, 1.0) == pytest.approx(0.5 * np.log(3.0) - 1.0)

    def test_agrees_in_sign_without_leakage_noiseless(self):
        noise = NoiseModel(sigma2=1e-9, signal_power=1.0)
        rng = np.random.default_rng(15)
        for bit in (0, 1):
            peaks = rng.integers(0, 64, 20)
            bins = synthesize_symbols(np.full(20, bit), peaks, noise, NO_LEAKAGE, 64, rng)
            assert np.array_equal(np.sign(llr_leakage_many(bins, peaks, 1e-9)),
                                  np.sign(llr_basic_many(bins, peaks, 1e-9)))

    def test_bit_one_errors_below_basic_under_leakage(self):
        leak = LeakageModel((0.25, 0.5, 0.25))
        rng = np.random.default_rng(16)
        for snr in (0.0, 4.0, 8.0):
            noise = NoiseModel(sigma2=1.0, signal_power=snr_to_power(snr, 1.0))
            bits = np.ones(10_000, dtype=np.int64)
            peaks = rng.integers(0, 128, 10_000)
            bins = synthesize_symbols(bits, peaks, noise, leak, 128, rng)
            err_basic = (llr_basic_many(bins, peaks, 1.0) >= 0).mean()
            err_leak = (llr_leakage_many(bins, peaks, 1.0) >= 0).mean()
            assert err_leak <= err_basic

    def test_cyclic_neighbor_indexing(self):
        bins = np.zeros(8, dtype=complex)
        bins[0] = 1.0   # s_bar for peak 4; neighbors are bins 7 and 1
        bins[7] = 2.0
        bins[1] = 2.0
        pooled = 1.0 + 4.0 + 4.0
        expected = np.log(np.sqrt(pooled) / 1e-30) + (1e-60 - pooled) / 2.0
        assert llr_leakage(bins, 4, 1.0) == pytest.approx(expected, rel=1e-6)


class TestLlrConventional:
    def test_zero_power_hypothesis_collapses(self):
        rng = np.random.default_rng(17)
        bins = rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))
        assert llr_conventional_many(bins, [7], 1.0, 0.0) == pytest.approx([0.0])

    @pytest.mark.parametrize("p_hat", [-1.0, float("nan"), float("inf")])
    def test_power_must_be_finite_and_non_negative(self, p_hat):
        with pytest.raises(ValueError, match="p_hat"):
            llr_conventional_many(np.ones((1, 64)), [7], 1.0, p_hat)

    def test_matched_power_high_snr_agrees_with_basic(self):
        noise = NoiseModel(sigma2=1.0, signal_power=snr_to_power(10.0, 1.0))
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, 10_000)
        peaks = rng.integers(0, 128, 10_000)
        bins = synthesize_symbols(bits, peaks, noise, NO_LEAKAGE, 128, rng)
        agree = (np.sign(llr_conventional_many(bins, peaks, 1.0, noise.signal_power))
                 == np.sign(llr_basic_many(bins, peaks, 1.0))).mean()
        assert agree > 0.99

    def test_mismatched_power_shifts_distribution(self):
        from scipy.stats import ks_2samp

        noise = NoiseModel(sigma2=1.0, signal_power=snr_to_power(-20.0, 1.0))
        rng = np.random.default_rng(99)
        bits = rng.integers(0, 2, 10_000)
        peaks = rng.integers(0, 128, 10_000)
        bins = synthesize_symbols(bits, peaks, noise, NO_LEAKAGE, 128, rng)
        p = noise.signal_power
        ks = ks_2samp(
            llr_conventional_many(bins, peaks, 1.0, p),
            llr_conventional_many(bins, peaks, 1.0, p / 10 ** 0.6),
        ).statistic
        assert ks > 0.05
        # the power-free metric is untouched by the mismatch, by construction
        a = llr_basic_many(bins, peaks, 1.0)
        b = llr_basic_many(bins, peaks, 1.0)
        assert np.array_equal(a, b)

    def test_scipy_loads_on_first_use_only(self):
        # only this baseline needs scipy, so importing the package skips it
        src = str(Path(polarlink.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, polarlink; print('scipy.special' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

import tracemalloc

import numpy as np
import pytest

from jade import (
    ArrayConfig,
    CorrelationSequence,
    FadingModel,
    PathParam,
    PronyConfig,
    SampledWaveform,
    SnapshotSet,
    ValidationError,
    beamform,
    estimate_correlation,
    fit_delay,
    generate_pulse,
    select_band,
    spectrum,
    svd_prony,
    synthesize,
)

from conftest import spectra
from test_pulse import zero_bit_cfg


def make_snaps(wave, paths, sensors=8, snapshots=1, fading=None, seed=0):
    return synthesize(
        wave,
        paths,
        ArrayConfig(sensors, 0.5),
        fading or FadingModel.deterministic(1.0),
        snapshots,
        0.0,
        seed=seed,
    )


def naive_correlation(snaps, band):
    """Lag-by-lag mean of x_k * conj(x_{k-l}) (test oracle)."""
    sub = spectra(snaps)[:, :, band]
    s_count, m, b_count = sub.shape
    return np.array(
        [
            np.sum(sub[:, lag:, :] * np.conj(sub[:, : m - lag, :]))
            / (s_count * b_count * (m - lag))
            for lag in range(m)
        ]
    )


class TestSelectBand:
    def test_eta_zero_gives_all_positive_bins(self, keyed_pulse):
        _, _, spec = keyed_pulse
        band = select_band(spec, 0.0)
        assert np.array_equal(band, np.arange(1, len(spec) // 2 + 1))

    def test_pure_tone_single_bin(self):
        n = 64
        t = np.arange(n) / 4.0
        wave = SampledWaveform(t=t, values=np.cos(2 * np.pi * 10 * np.arange(n) / n))
        band = select_band(spectrum(wave, band_threshold=0.0), 0.5)
        assert np.array_equal(band, [10])

    def test_matches_direct_scan(self, plain_pulse):
        # independent oracle: grow a run around the positive-frequency peak
        _, _, spec = plain_pulse
        eta = 0.1
        mag = spec.magnitude
        n = len(mag)
        pos = np.arange(1, n // 2 + 1)
        peak = pos[np.argmax(mag[pos])]
        level = eta * mag.max()
        lo = peak
        while lo > 1 and mag[lo - 1] >= level:
            lo -= 1
        hi = peak
        while hi < n // 2 and mag[hi + 1] >= level:
            hi += 1
        expected = np.arange(lo, hi + 1)

        band = select_band(spec, eta)
        assert np.array_equal(band, expected)
        assert mag[band].min() >= level
        assert band[0] == 1 and band[-1] == 26  # frozen for this pulse

    def test_contains_peak_and_contiguous(self, keyed_pulse):
        _, _, spec = keyed_pulse
        band = select_band(spec, 0.3)
        assert np.all(np.diff(band) == 1)
        pos = np.arange(1, len(spec) // 2 + 1)
        assert pos[np.argmax(spec.magnitude[pos])] in band

    def test_range_reads_like_the_equal_array(self, keyed_pulse):
        _, wave, spec = keyed_pulse
        band = select_band(spec, 0.1)
        assert isinstance(band, range) and band.step == 1
        as_array = np.arange(band.start, band.stop)
        snaps = make_snaps(wave, [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)], sensors=8,
                           snapshots=5, fading=FadingModel.rayleigh(1.0), seed=2)
        assert np.array_equal(estimate_correlation(snaps, band).values,
                              estimate_correlation(snaps, as_array).values)
        beams = beamform(snaps, np.sin(np.radians([-10.0, 20.0])))
        by_range, by_array = fit_delay(beams, spec, band), fit_delay(beams, spec, as_array)
        for field in ("delay_median", "reliable", "tau_grid", "objective"):
            assert np.array_equal(getattr(by_range, field), getattr(by_array, field)), field

    def test_rejects_bad_eta(self, keyed_pulse):
        _, _, spec = keyed_pulse
        for eta in (1.0, 1.5, -0.1):
            with pytest.raises(ValidationError, match=r"band_threshold must be in \[0, 1\)"):
                select_band(spec, eta)


class TestEstimateCorrelation:
    def test_zero_angle_lag_independent(self):
        wave = generate_pulse(zero_bit_cfg())
        spec = spectrum(wave)
        snaps = make_snaps(wave, [PathParam(0.0, 2.0)])
        corr = estimate_correlation(snaps, select_band(spec, 0.1))
        assert corr.values[0].imag == 0.0
        assert corr.values[0].real > 0
        assert np.abs(corr.values - corr.values[0]).max() < 1e-10 * abs(corr.values[0])

    def test_single_path_exact_exponential(self):
        # one deterministic path: c_l = c_0 * exp(j*2*pi*spacing*l*sin(theta))
        # exactly, no expectation needed
        wave = generate_pulse(zero_bit_cfg())
        spec = spectrum(wave)
        snaps = make_snaps(wave, [PathParam(25.0, 1.5)], sensors=16)
        corr = estimate_correlation(snaps, select_band(spec, 0.1))
        mags = np.abs(corr.values)
        assert mags.max() - mags.min() < 1e-10 * mags.max()
        inc = np.angle(corr.values[1:] / corr.values[:-1])
        expected = 2 * np.pi * 0.5 * np.sin(np.radians(25.0))
        assert np.abs(inc - expected).max() < 1e-10

    def test_matches_naive_loop(self):
        wave = generate_pulse(zero_bit_cfg())
        spec = spectrum(wave)
        band = select_band(spec, 0.1)

        def two_path(snapshots):
            return make_snaps(
                wave,
                [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)],
                sensors=6,
                snapshots=snapshots,
                fading=FadingModel.rayleigh(1.0),
                seed=9,
            )

        # 26 band bins: 20, 81 and 40 snapshots give 520, 2106 and 1040 rows,
        # below, across and just past multiples of 1024; the wide band alone
        # holds 1026 bins
        rng = np.random.default_rng(4)
        wide = (1032, 3, 5)
        wide_snaps = SnapshotSet(
            bins=rng.standard_normal(wide) + 1j * rng.standard_normal(wide),
            array=ArrayConfig(5, 0.5),
        )
        cases = [
            (two_path(4), band),
            (two_path(20), band),
            (two_path(81), band),
            (wide_snaps, np.arange(1, 1027)),
        ]
        for snaps, bins in cases:
            corr = estimate_correlation(snaps, bins)
            naive = naive_correlation(snaps, bins)
            assert np.abs(corr.values - naive).max() < 1e-12 * np.abs(naive).max()
            assert corr.values[0].imag == 0.0
        with pytest.raises(ValidationError):
            estimate_correlation(two_path(40), band[::3])

    def test_peak_allocation_below_a_quarter_of_the_snapshots(self, keyed_pulse):
        # the Gram reads the band in place, never a band-sized copy of the
        # snapshots
        _, wave, spec = keyed_pulse
        band = select_band(spec, 0.1)
        snaps = synthesize(
            wave,
            [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)],
            ArrayConfig(64, 0.5),
            FadingModel.rayleigh(1.0),
            200,
            0.0,
            seed=1,
        )
        tracemalloc.start()
        try:
            estimate_correlation(snaps, band)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < snaps.bins.nbytes / 4

    @pytest.mark.parametrize("snapshots", [4, 200])
    def test_peak_allocation_does_not_grow_with_snapshots(self, keyed_pulse, snapshots):
        # the band is read in place; only the 2M x 2M real Gram and its
        # M x M quarters are allocated, whatever the snapshot count
        _, wave, spec = keyed_pulse
        band = select_band(spec, 0.1)
        m = 64
        snaps = synthesize(
            wave,
            [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)],
            ArrayConfig(m, 0.5),
            FadingModel.rayleigh(1.0),
            snapshots,
            0.0,
            seed=1,
        )
        estimate_correlation(snaps, band)  # warm up
        tracemalloc.start()
        try:
            estimate_correlation(snaps, band)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * (2 * m) ** 2 * 8

    def test_two_sided_hermitian_exact(self):
        corr = CorrelationSequence(
            values=np.array([2.0, 1.0 + 0.5j, -0.25 + 1j]), spacing=0.5
        )
        two = corr.two_sided()
        assert len(two) == 5
        assert np.array_equal(two[:2], np.conj(two[:2:-1]))
        assert two[2] == 2.0

    def test_rayleigh_two_path_residual_to_exponential_fit(self, keyed_pulse):
        # default scenario statistics: the averaged correlation is close to a
        # two-exponential model; residual bound checked against the fit
        _, wave, spec = keyed_pulse
        band = select_band(spec, 0.1)
        snaps = synthesize(
            wave,
            [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)],
            ArrayConfig(64, 0.5),
            FadingModel.rayleigh(1.0),
            200,
            0.0,
            seed=1,
        )
        corr = estimate_correlation(snaps, band)
        modes = svd_prony(corr, PronyConfig(num_modes=2))
        two = corr.two_sided()
        lags = np.arange(-(corr.num_lags - 1), corr.num_lags)
        recon = sum(
            a * np.exp(1j * 2 * np.pi * 0.5 * s * lags)
            for a, s in zip(modes.amplitudes, modes.sines)
        )
        assert np.linalg.norm(two - recon) < 0.05 * np.linalg.norm(two)
        assert (modes.amplitudes > 0).all()

    def test_convergence_one_over_sqrt_snapshots(self, keyed_pulse):
        # seed-averaged deviation from the closed-form limit halves per 4x S
        _, wave, spec = keyed_pulse
        band = select_band(spec, 0.1)
        paths = [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)]
        arr = ArrayConfig(16, 0.5)
        g_mean = np.mean(np.abs(spec.values[band]) ** 2)
        lags = np.arange(16)
        limit = 2 * g_mean * (
            np.exp(2j * np.pi * 0.5 * lags * np.sin(np.radians(-10.0)))
            + np.exp(2j * np.pi * 0.5 * lags * np.sin(np.radians(20.0)))
        )
        limit_norm = limit / limit[0]

        errs = []
        for s_count in (100, 400, 1600):
            devs = []
            for seed in range(8):
                snaps = synthesize(
                    wave, paths, arr, FadingModel.rayleigh(1.0), s_count, 0.0, seed=50 + seed
                )
                corr = estimate_correlation(snaps, band)
                devs.append(
                    np.linalg.norm(corr.values / corr.values[0] - limit_norm)
                    / np.linalg.norm(limit_norm)
                )
            errs.append(np.mean(devs))
        assert errs[0] > errs[1] > errs[2]
        assert 0.3 < errs[1] / errs[0] < 0.7
        assert 0.3 < errs[2] / errs[1] < 0.7

    def test_band_validation(self):
        wave = generate_pulse(zero_bit_cfg())
        snaps = make_snaps(wave, [PathParam(0.0, 0.0)])
        with pytest.raises(ValidationError):
            estimate_correlation(snaps, np.array([], dtype=int))
        with pytest.raises(ValidationError):
            estimate_correlation(snaps, np.array([500]))

    def test_sequence_validation(self):
        with pytest.raises(ValidationError):
            CorrelationSequence(values=np.array([-1.0, 0.5]), spacing=0.5)
        with pytest.raises(ValidationError):
            CorrelationSequence(values=np.array([1.0 + 0.5j, 0.5]), spacing=0.5)
        for values in (np.ones((2, 2)), np.array([1.0])):
            with pytest.raises(ValidationError, match=">= 2 lags"):
                CorrelationSequence(values=values, spacing=0.5)

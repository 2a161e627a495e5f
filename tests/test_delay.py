import numpy as np
import pytest

from jade import (
    ArrayConfig,
    FadingModel,
    PathParam,
    ValidationError,
    beamform,
    fit_delay,
    select_band,
    synthesize,
)
from jade.delay import median0

from conftest import spectra


def single_path_snaps(wave, angle_deg, delay, sensors=64, snapshots=1, fading=None, seed=0):
    return synthesize(
        wave,
        [PathParam(angle_deg=angle_deg, delay=delay)],
        ArrayConfig(sensors, 0.5),
        fading or FadingModel.deterministic(1.0),
        snapshots,
        0.0,
        seed=seed,
    )


def dirichlet_gain(m, spacing, delta_sine):
    """Closed-form |(1/M) sum_k exp(j*2*pi*spacing*k*delta)| (test oracle)."""
    k = np.arange(m)
    return abs(np.sum(np.exp(2j * np.pi * spacing * k * delta_sine)) / m)


class TestBeamform:
    def test_matched_single_path_is_delayed_pulse_spectrum(self, keyed_pulse):
        _, wave, spec = keyed_pulse
        tau = 4.0
        snaps = single_path_snaps(wave, 20.0, tau)
        bf = beamform(snaps, [np.sin(np.radians(20.0))])
        expected = spec.values * np.exp(-1j * spec.omega * tau)
        err = np.abs(bf[0, 0] - expected).max() / np.abs(spec.values).max()
        assert err < 1e-10

    def test_matched_magnitude_identity(self, keyed_pulse):
        # unit-gain matched beamformer: |xi| equals |g| bin by bin
        _, wave, spec = keyed_pulse
        snaps = single_path_snaps(wave, -10.0, 3.0)
        bf = beamform(snaps, [np.sin(np.radians(-10.0))])
        dev = np.abs(np.abs(bf[0, 0]) - spec.magnitude).max()
        assert dev < 1e-10 * spec.magnitude.max()

    def test_mismatch_follows_dirichlet_gain(self, keyed_pulse):
        _, wave, spec = keyed_pulse
        snaps = single_path_snaps(wave, 20.0, 0.0)
        s_true = np.sin(np.radians(20.0))
        for delta in (0.005, 0.02, 0.11):
            bf = beamform(snaps, [s_true + delta])
            gain = dirichlet_gain(64, 0.5, -delta)
            got = np.abs(bf[0, 0])
            assert np.allclose(got, gain * spec.magnitude, atol=1e-10 * spec.magnitude.max())

    def test_two_path_leakage_bounded_by_closed_form(self, keyed_pulse):
        _, wave, spec = keyed_pulse
        snaps = synthesize(
            wave,
            [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)],
            ArrayConfig(64, 0.5),
            FadingModel.deterministic(1.0),
            1,
            0.0,
            seed=0,
        )
        s1 = np.sin(np.radians(-10.0))
        s2 = np.sin(np.radians(20.0))
        bf = beamform(snaps, [s1])
        main = spec.values * np.exp(-1j * spec.omega * 3.0)
        leak = np.abs(bf[0, 0] - main)
        gain = dirichlet_gain(64, 0.5, s2 - s1)
        assert gain < 0.05  # 30-degree separation sits far down the sidelobes
        assert leak.max() <= 2.0 * gain * spec.magnitude.max()
        strong = spec.magnitude > 0.3 * spec.magnitude.max()
        ratio = leak[strong] / (gain * spec.magnitude[strong])
        assert 0.5 < ratio.max() <= 2.0

    def test_matches_per_snapshot_reference(self, keyed_pulse):
        _, wave, _ = keyed_pulse
        snaps = synthesize(
            wave,
            [PathParam(-30.0, 2.0), PathParam(5.0, -1.5), PathParam(40.0, 6.25)],
            ArrayConfig(16, 0.5),
            FadingModel.rayleigh(1.0),
            7,
            1.0,
            seed=5,
        )
        sines = np.sin(np.radians([-29.0, 5.5, 41.0]))
        bf = beamform(snaps, sines)
        weights = np.exp(-2j * np.pi * 0.5 * np.outer(sines, np.arange(16))) / 16
        ref = np.stack([np.einsum("lk,kn->ln", weights, x) for x in spectra(snaps)])
        assert isinstance(bf, np.ndarray) and bf.dtype == complex
        assert bf.shape == ref.shape == (7, 3, len(wave))
        assert np.abs(bf - ref).max() < 1e-13 * np.abs(ref).max()

    def test_validation(self, keyed_pulse):
        _, wave, _ = keyed_pulse
        snaps = single_path_snaps(wave, 0.0, 0.0, sensors=4)
        with pytest.raises(ValidationError):
            beamform(snaps, [])
        with pytest.raises(ValidationError):
            beamform(snaps, [1.2])


class TestFitDelay:
    def band_and_spec(self, keyed_pulse):
        _, _, spec = keyed_pulse
        return spec, select_band(spec, 0.1)

    def synthetic_bf(self, spec, phase_fn):
        return (spec.values * phase_fn(spec.omega))[None, None, :]

    def test_exact_ramp(self, keyed_pulse):
        spec, band = self.band_and_spec(keyed_pulse)
        bf = self.synthetic_bf(spec, lambda w: np.exp(-1j * w * 3.0))
        est = fit_delay(bf, spec, band)
        assert est.slope[0, 0] == pytest.approx(-3.0, abs=1e-9)
        assert est.delay_median[0] == pytest.approx(3.0, abs=1e-9)
        assert est.delay_median[0] == -est.slope[0, 0]
        assert est.rsq[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert est.reliable[0, 0]

    def test_constant_phase_lands_in_intercept(self, keyed_pulse):
        spec, band = self.band_and_spec(keyed_pulse)
        bf = self.synthetic_bf(spec, lambda w: np.exp(1j * 1.234) * np.exp(-1j * w * 7.0))
        est = fit_delay(bf, spec, band)
        assert est.slope[0, 0] == pytest.approx(-7.0, abs=1e-9)
        offset = (est.intercept[0, 0] - 1.234) / (2 * np.pi)
        assert offset == pytest.approx(round(offset), abs=1e-9)
        # the fitted phase is kept, and on exact data it lies on the line
        line = est.slope[..., None] * spec.omega[band] + est.intercept[..., None]
        assert est.phase.shape == (1, 1, len(band))
        assert np.abs(est.phase - line).max() < 1e-9

    def test_constant_phase_invariance_of_slope(self, keyed_pulse):
        spec, band = self.band_and_spec(keyed_pulse)
        bf = self.synthetic_bf(spec, lambda w: np.exp(-1j * w * 2.25))
        rotated = bf * np.exp(0.77j)
        a = fit_delay(bf, spec, band)
        b = fit_delay(rotated, spec, band)
        assert abs(a.slope[0, 0] - b.slope[0, 0]) < 1e-12

    def test_slope_shift_equivariance(self, keyed_pulse):
        _, wave, spec = keyed_pulse
        band = select_band(spec, 0.1)
        slopes = []
        for tau in (2.0, 2.75):
            snaps = single_path_snaps(wave, 13.7, tau)
            bf = beamform(snaps, [np.sin(np.radians(13.7))])
            slopes.append(fit_delay(bf, spec, band).slope[0, 0])
        assert slopes[1] - slopes[0] == pytest.approx(-0.75, abs=1e-9)

    def test_weighted_fit_is_rejected(self, keyed_pulse):
        # the |g|^2-weighted fit is gone; the parameter stays only as an inert slot
        spec, band = self.band_and_spec(keyed_pulse)
        bf = self.synthetic_bf(spec, lambda w: np.exp(-1j * w * 5.5))
        with pytest.raises(ValidationError, match="weighted"):
            fit_delay(bf, spec, band, weighted=True)
        assert np.array_equal(fit_delay(bf, spec, band, False).slope,
                              fit_delay(bf, spec, band).slope)

    def test_fading_mean_slope_converges(self, keyed_pulse):
        # per-snapshot fits under Rayleigh fading: the mean slope tends to
        # -tau and its dispersion shrinks with more snapshots
        _, wave, spec = keyed_pulse
        band = select_band(spec, 0.1)
        errors = []
        for s_count in (100, 1600):
            snaps = single_path_snaps(
                wave, -10.0, 3.0, snapshots=s_count, fading=FadingModel.rayleigh(1.0), seed=3
            )
            bf = beamform(snaps, [np.sin(np.radians(-10.0))])
            est = fit_delay(bf, spec, band)
            se = est.slope[:, 0].std() / np.sqrt(s_count)
            errors.append((abs(est.slope[:, 0].mean() + 3.0), se))
        assert errors[0][0] < 6 * max(errors[0][1], 1e-12)
        assert errors[1][0] < 6 * max(errors[1][1], 1e-12)
        assert errors[1][1] < 0.5 * errors[0][1]  # standard error shrinks ~1/sqrt(S)

    def test_median_and_mean_aggregates(self, keyed_pulse):
        _, wave, spec = keyed_pulse
        band = select_band(spec, 0.1)
        snaps = single_path_snaps(
            wave, 20.0, 7.0, snapshots=31, fading=FadingModel.rayleigh(1.0), seed=5
        )
        bf = beamform(snaps, [np.sin(np.radians(20.0))])
        est = fit_delay(bf, spec, band)
        assert est.delay_median[0] == np.median(-est.slope[:, 0])
        assert est.delay_mean[0] == pytest.approx(np.mean(-est.slope[:, 0]))
        assert est.delay_median[0] == pytest.approx(7.0, abs=0.05)

    @pytest.mark.parametrize("rows", [1, 2, 7, 50, 51])
    def test_median0_is_np_median_bit_for_bit(self, rows):
        x = np.random.default_rng(rows).standard_normal((rows, 3))
        assert np.array_equal(median0(x), np.median(x, axis=0))
        x[rows // 2, 1] = np.nan
        assert np.array_equal(median0(x), np.median(x, axis=0), equal_nan=True)
        assert np.isnan(median0(x)[1])

    def test_validation(self, keyed_pulse):
        spec, band = self.band_and_spec(keyed_pulse)
        bf = self.synthetic_bf(spec, lambda w: np.exp(-1j * w))
        with pytest.raises(ValidationError):
            fit_delay(bf, spec, band[:2])
        with pytest.raises(ValidationError):
            fit_delay(bf, spec, band[::2])

    def test_rejects_zero_pulse_bins(self, keyed_pulse):
        from dataclasses import replace

        spec, band = self.band_and_spec(keyed_pulse)
        values = spec.values.copy()
        values[band[3]] = 0.0
        broken = replace(spec, values=values)
        bf = self.synthetic_bf(spec, lambda w: np.exp(-1j * w))
        with pytest.raises(ValidationError):
            fit_delay(bf, broken, band)

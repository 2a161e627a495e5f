import warnings

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
from jade.pulse import omega_grid

from conftest import spectra


def single_path_snaps(wave, angle_deg, delay, sensors=64, snapshots=1, fading=None, seed=0):
    return synthesize(
        wave,
        [PathParam(angle_deg=angle_deg, delay=delay)],
        ArrayConfig(sensors, 0.5),
        fading or FadingModel(kind="deterministic", beta=1.0),
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
        expected = spec * np.exp(-1j * omega_grid(len(spec)) * tau)
        err = np.abs(bf[0, 0] - expected).max() / np.abs(spec).max()
        assert err < 1e-10

    def test_matched_magnitude_identity(self, keyed_pulse):
        # unit-gain matched beamformer: |xi| equals |g| bin by bin
        _, wave, spec = keyed_pulse
        snaps = single_path_snaps(wave, -10.0, 3.0)
        bf = beamform(snaps, [np.sin(np.radians(-10.0))])
        dev = np.abs(np.abs(bf[0, 0]) - np.abs(spec)).max()
        assert dev < 1e-10 * np.abs(spec).max()

    def test_mismatch_follows_dirichlet_gain(self, keyed_pulse):
        _, wave, spec = keyed_pulse
        snaps = single_path_snaps(wave, 20.0, 0.0)
        s_true = np.sin(np.radians(20.0))
        for delta in (0.005, 0.02, 0.11):
            bf = beamform(snaps, [s_true + delta])
            gain = dirichlet_gain(64, 0.5, -delta)
            got = np.abs(bf[0, 0])
            assert np.allclose(got, gain * np.abs(spec), atol=1e-10 * np.abs(spec).max())

    def test_two_path_leakage_bounded_by_closed_form(self, keyed_pulse):
        _, wave, spec = keyed_pulse
        snaps = synthesize(
            wave,
            [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)],
            ArrayConfig(64, 0.5),
            FadingModel(kind="deterministic", beta=1.0),
            1,
            0.0,
            seed=0,
        )
        s1 = np.sin(np.radians(-10.0))
        s2 = np.sin(np.radians(20.0))
        bf = beamform(snaps, [s1])
        main = spec * np.exp(-1j * omega_grid(len(spec)) * 3.0)
        leak = np.abs(bf[0, 0] - main)
        gain = dirichlet_gain(64, 0.5, s2 - s1)
        assert gain < 0.05  # 30-degree separation sits far down the sidelobes
        assert leak.max() <= 2.0 * gain * np.abs(spec).max()
        strong = np.abs(spec) > 0.3 * np.abs(spec).max()
        ratio = leak[strong] / (gain * np.abs(spec)[strong])
        assert 0.5 < ratio.max() <= 2.0

    def test_matches_per_snapshot_reference(self, keyed_pulse):
        _, wave, _ = keyed_pulse
        snaps = synthesize(
            wave,
            [PathParam(-30.0, 2.0), PathParam(5.0, -1.5), PathParam(40.0, 6.25)],
            ArrayConfig(16, 0.5),
            FadingModel(kind="rayleigh", sigma=1.0),
            7,
            1.0,
            seed=5,
        )
        sines = np.sin(np.radians([-29.0, 5.5, 41.0]))
        bf = beamform(snaps, sines)
        # the left inverse of the steering matrix: unit gain on each path, nulls on the others
        steer = np.exp(2j * np.pi * 0.5 * np.outer(np.arange(16), sines))
        weights = np.linalg.solve(steer.conj().T @ steer, steer.conj().T)
        assert np.abs(weights @ steer - np.eye(3)).max() < 1e-12
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
        return (spec * phase_fn(omega_grid(len(spec))))[None, None, :]

    def test_exact_ramp(self, keyed_pulse):
        # N = 128, so the periodogram's period is [-64, 64)
        spec, band = self.band_and_spec(keyed_pulse)
        for tau in (3.0, 2.25, -2.5, 63.0, -63.0):
            bf = self.synthetic_bf(spec, lambda w: np.exp(-1j * w * tau))
            est = fit_delay(bf, spec, band)
            assert est.delay_median[0] == pytest.approx(tau, abs=1e-9), tau
            assert est.reliable.shape == (1,) and est.reliable[0]

    def test_constant_phase_lands_in_intercept(self, keyed_pulse):
        # a different fading phase per snapshot drops out of the power sum
        spec, band = self.band_and_spec(keyed_pulse)
        phases = np.exp(1j * np.array([1.234, -2.0, 0.3]))[:, None, None]
        bf = phases * self.synthetic_bf(spec, lambda w: np.exp(-1j * w * 7.0))
        est = fit_delay(bf, spec, band)
        assert est.delay_median[0] == pytest.approx(7.0, abs=1e-9)
        assert est.reliable[0]

    def test_constant_phase_invariance_of_slope(self, keyed_pulse):
        spec, band = self.band_and_spec(keyed_pulse)
        bf = self.synthetic_bf(spec, lambda w: np.exp(-1j * w * 2.25))
        rotated = bf * np.exp(0.77j)
        a = fit_delay(bf, spec, band)
        b = fit_delay(rotated, spec, band)
        assert abs(a.delay_median[0] - b.delay_median[0]) < 1e-12

    def test_slope_shift_equivariance(self, keyed_pulse):
        _, wave, spec = keyed_pulse
        band = select_band(spec, 0.1)
        delays = []
        for tau in (2.0, 2.75):
            snaps = single_path_snaps(wave, 13.7, tau)
            bf = beamform(snaps, [np.sin(np.radians(13.7))])
            delays.append(fit_delay(bf, spec, band).delay_median[0])
        assert delays[1] - delays[0] == pytest.approx(0.75, abs=1e-9)

    def test_weighted_fit_is_rejected(self, keyed_pulse):
        # the |g|^2-weighted fit is gone; the parameter stays only as an inert slot
        spec, band = self.band_and_spec(keyed_pulse)
        bf = self.synthetic_bf(spec, lambda w: np.exp(-1j * w * 5.5))
        with pytest.raises(ValidationError, match="weighted"):
            fit_delay(bf, spec, band, weighted=True)
        assert np.array_equal(fit_delay(bf, spec, band, False).delay_median,
                              fit_delay(bf, spec, band).delay_median)

    def test_fading_mean_slope_converges(self, keyed_pulse):
        # Rayleigh fading with noise: the delay error over five seeds shrinks
        # about as 1/sqrt(S), 16x the snapshots giving ~1/4 of the RMSE
        _, wave, spec = keyed_pulse
        band = select_band(spec, 0.1)
        rmse = []
        for s_count in (50, 800):
            errors = []
            for seed in range(5):
                snaps = synthesize(wave, [PathParam(-10.0, 3.0)], ArrayConfig(4, 0.5),
                                   FadingModel(kind="rayleigh", sigma=1.0), s_count, 1.0, seed=seed,
                                   half=True)
                bf = beamform(snaps, [np.sin(np.radians(-10.0))])
                errors.append(fit_delay(bf, spec, band).delay_median[0] - 3.0)
            rmse.append(np.sqrt(np.mean(np.square(errors))))
        assert rmse[1] < 0.5 * rmse[0]
        assert rmse[1] < 0.05

    def test_median_and_mean_aggregates(self, keyed_pulse):
        # the objective aggregates every snapshot: it equals the direct
        # sum_s |sum_q z_sq conj(g_q) exp(j w_q tau)|^2 on its grid
        _, wave, spec = keyed_pulse
        band = select_band(spec, 0.1)
        snaps = single_path_snaps(
            wave, 20.0, 7.0, snapshots=31, fading=FadingModel(kind="rayleigh", sigma=1.0), seed=5
        )
        bf = beamform(snaps, [np.sin(np.radians(20.0))])
        est = fit_delay(bf, spec, band)
        h = bf[:, 0, band] * np.conj(spec[band])
        steer = np.exp(1j * np.outer(omega_grid(len(spec))[band], est.tau_grid))
        direct = np.sum(np.abs(h @ steer) ** 2, axis=0)
        assert est.tau_grid.shape == (2 * len(wave),)
        assert np.array_equal(est.tau_grid, np.sort(est.tau_grid))
        assert est.tau_grid[0] == -len(wave) / 2 and np.all(np.diff(est.tau_grid) == 0.5)
        assert np.abs(est.objective[0] - direct).max() < 1e-9 * direct.max()
        assert est.delay_median[0] == pytest.approx(7.0, abs=0.05)

    def test_all_zero_beams_give_a_finite_unreliable_delay(self, keyed_pulse):
        spec, band = self.band_and_spec(keyed_pulse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = fit_delay(np.zeros((3, 2, len(spec)), dtype=complex), spec, band)
        assert np.all(np.isfinite(est.delay_median))
        assert est.reliable.shape == (2,) and not est.reliable.any()

    def test_validation(self, keyed_pulse):
        spec, band = self.band_and_spec(keyed_pulse)
        bf = self.synthetic_bf(spec, lambda w: np.exp(-1j * w))
        with pytest.raises(ValidationError):
            fit_delay(bf, spec, band[:2])
        with pytest.raises(ValidationError):
            fit_delay(bf, spec, band[::2])

    def test_rejects_zero_pulse_bins(self, keyed_pulse):
        spec, band = self.band_and_spec(keyed_pulse)
        broken = spec.copy()
        broken[band[3]] = 0.0
        bf = self.synthetic_bf(spec, lambda w: np.exp(-1j * w))
        with pytest.raises(ValidationError):
            fit_delay(bf, broken, band)

import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from jade import (
    ArrayConfig,
    FadingModel,
    PathParam,
    ValidationError,
    default_scenario,
    generate_pulse,
    load_dataset,
    save_dataset,
    spectrum,
    steering_vector,
    synthesize,
)
from jade.channel import NOISE_ROWS, delayed_pulse_spectrum

from conftest import fading_power, spectra, time_series
from test_pulse import zero_bit_cfg


@pytest.fixture(scope="module")
def pulse_wave():
    return generate_pulse(zero_bit_cfg())


RANDOM_FADING = {
    "rayleigh": FadingModel(kind="rayleigh", sigma=1.0),
    "rician": FadingModel(kind="rician", nu=1.0, sigma=0.5),
    "suzuki": FadingModel(kind="suzuki", sigma=1.0, mean_db=0.0, std_db=6.0),
}
ALL_FADING = {"deterministic": FadingModel(kind="deterministic", beta=0.5 - 0.25j),
               **RANDOM_FADING}
NO_FADING = FadingModel(kind="deterministic", beta=0.0)
TWO_PATHS = [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)]


def assert_faded_by(bins, pulse, paths, arr, betas):
    """``bins`` are the noiseless spectra of ``paths`` with the (snapshot, path) fading ``betas``."""
    delayed = delayed_pulse_spectrum(spectrum(pulse), [p.delay for p in paths])
    steering = steering_vector(arr, [p.angle_deg for p in paths])
    expected = np.einsum("nl,sl,lm->nsm", delayed, betas, steering)
    assert np.abs(bins - expected).max() <= 1e-12 * np.abs(expected).max()


def one_path_snaps(pulse, angle_deg=0.0, delay=0.0, sensors=8, snapshots=1):
    return synthesize(
        pulse,
        [PathParam(angle_deg=angle_deg, delay=delay)],
        ArrayConfig(num_sensors=sensors, spacing=0.5),
        FadingModel(kind="deterministic", beta=1.0),
        snapshots,
        0.0,
        seed=0,
    )


def read_samples(path, snaps):
    """The (snapshot, sensor, time) samples of the dataset file written from ``snaps``."""
    rows = path.read_text().splitlines()[1:]
    cells = [[complex(*map(float, c.split(":"))) for c in row.split(",")] for row in rows]
    return np.array(cells).reshape(snaps.num_snapshots, snaps.num_sensors, snaps.num_samples)


class TestSteeringVector:
    def test_broadside_all_ones(self):
        v = steering_vector(ArrayConfig(6, 0.5), 0.0)
        assert np.allclose(v, np.ones(6), atol=1e-15)

    def test_endfire_alternates(self):
        v = steering_vector(ArrayConfig(6, 0.5), 90.0)
        expected = np.array([(-1.0 + 0j) ** k for k in range(6)])
        assert np.allclose(v, expected, atol=1e-12)

    def test_second_element_at_20_degrees(self):
        # Frozen oracle: exp(j*pi*sin(20 deg)); sin(20 deg) double-checked
        # below by an independent Taylor-series evaluation.
        x = np.radians(20.0)
        series, term, k = 0.0, x, 0
        while abs(term) > 1e-20:
            series += term
            k += 1
            term *= -x * x / ((2 * k) * (2 * k + 1))
        assert series == pytest.approx(0.3420201433256687, abs=1e-15)

        v = steering_vector(ArrayConfig(4, 0.5), 20.0)
        assert v[1] == pytest.approx(0.47618255771067436 + 0.8793464457948984j, abs=1e-12)

    def test_spacing_warning_above_half(self):
        with pytest.warns(UserWarning, match="alias"):
            steering_vector(ArrayConfig(4, 0.7), 10.0)

    def test_angle_sequence_gives_the_per_angle_rows(self):
        arr = ArrayConfig(7, 0.5)
        angles = [-40.0, 0.0, 13.7, 65.0]
        rows = steering_vector(arr, angles)
        assert rows.shape == (4, 7)
        assert np.array_equal(rows, np.array([steering_vector(arr, a) for a in angles]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            steering_vector(ArrayConfig(1, 0.5), 0.0)
        for spacing in (0.0, np.nan, np.inf):
            with pytest.raises(ValidationError):
                steering_vector(ArrayConfig(4, spacing), 0.0)


class TestSynthesize:
    def test_identity_channel(self, pulse_wave):
        snaps = one_path_snaps(pulse_wave)
        for k in range(snaps.num_sensors):
            err = np.abs(time_series(snaps)[0, k] - pulse_wave).max()
            assert err < 1e-12 * np.abs(pulse_wave).max()

    def test_integer_delay_is_circular_shift(self, pulse_wave):
        snaps = one_path_snaps(pulse_wave, delay=5.0)
        expected = np.roll(pulse_wave, 5)
        err = np.abs(time_series(snaps)[0, 0] - expected).max()
        assert err < 1e-10 * np.abs(pulse_wave).max()

    def test_fractional_delay_matches_frequency_domain(self, pulse_wave):
        snaps = one_path_snaps(pulse_wave, delay=2.5)
        n = len(pulse_wave)
        q = np.arange(n)
        omega = np.where(q <= n // 2, 2 * np.pi * q / n, 2 * np.pi * q / n - 2 * np.pi)
        expected = np.fft.ifft(np.fft.fft(pulse_wave) * np.exp(-1j * omega * 2.5))
        assert np.abs(time_series(snaps)[0, 0] - expected).max() < 1e-12

    def test_steering_applied_per_sensor(self, pulse_wave):
        snaps = one_path_snaps(pulse_wave, angle_deg=20.0, sensors=4)
        v = steering_vector(ArrayConfig(4, 0.5), 20.0)
        for k in range(4):
            assert np.allclose(time_series(snaps)[0, k], v[k] * pulse_wave, atol=1e-12)

    def test_spectra_match_data(self, pulse_wave, tmp_path):
        # the spectra come back from the time series of a dataset file
        snaps = synthesize(
            pulse_wave,
            [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)],
            ArrayConfig(8, 0.5),
            FadingModel(kind="rayleigh", sigma=1.0),
            5,
            0.1,
            seed=2,
        )
        save_dataset(snaps, tmp_path / "data.txt")
        ref = np.fft.fft(read_samples(tmp_path / "data.txt", snaps), axis=-1)
        err = np.abs(spectra(snaps) - ref).max() / np.abs(ref).max()
        assert err < 1e-10

    def test_matches_time_domain_construction(self, pulse_wave):
        # Reference: the signal built in time from the documented fading
        # stream default_rng([seed, 0]) (Rician: four normals per coefficient),
        # transformed, plus sqrt(N * noise_var / 2) * (z0 + j z1) per
        # (snapshot, bin, sensor) from the noise streams default_rng([seed, 1])
        # for bins 0..N/2 and default_rng([seed, 2]) for bins N/2+1..N-1.
        paths = [PathParam(-10.0, 3.0), PathParam(25.0, -4.5)]
        arr = ArrayConfig(6, 0.5)
        nu, sigma = 1.0, 0.5
        seed, count, noise_var = 9, 7, 0.3
        n, m = len(pulse_wave), arr.num_sensors
        # (N, L) delayed pulses and (M, L) steering matrix
        delayed = np.fft.ifft(
            delayed_pulse_spectrum(spectrum(pulse_wave), [p.delay for p in paths]), axis=0
        )
        steering = steering_vector(arr, [p.angle_deg for p in paths]).T
        z = np.random.default_rng([seed, 0]).standard_normal((count, len(paths), 4))
        u = z[..., 2] + 1j * z[..., 3]
        betas = (nu + sigma * (z[..., 0] + 1j * z[..., 1])) * (u / np.abs(u))
        data = (steering * betas[:, None, :]) @ delayed.T
        z = np.concatenate([
            np.random.default_rng([seed, 1]).standard_normal((count, n // 2 + 1, m, 2)),
            np.random.default_rng([seed, 2]).standard_normal((count, n // 2 - 1, m, 2)),
        ], axis=1)
        noise = np.sqrt(n * noise_var / 2.0) * (z[..., 0] + 1j * z[..., 1])
        ref = np.fft.fft(data, axis=-1) + noise.transpose(0, 2, 1)

        fading = FadingModel(kind="rician", nu=nu, sigma=sigma)
        snaps = synthesize(pulse_wave, paths, arr, fading, count, noise_var, seed=seed)
        assert np.abs(spectra(snaps) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_warns_about_aliasing_once_per_call(self, pulse_wave):
        paths = [PathParam(-10.0, 1.0), PathParam(20.0, 2.0), PathParam(40.0, 3.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            synthesize(pulse_wave, paths, ArrayConfig(8, 0.6), FadingModel(kind="rayleigh"), 2)
        assert ["alias" in str(w.message) for w in caught] == [True]

    def test_checks_the_array_and_the_fading_model_once(self, pulse_wave, monkeypatch):
        calls = []
        for cls in (ArrayConfig, FadingModel):
            def counted(self, check=cls.validate):
                calls.append(type(self).__name__)
                check(self)
            monkeypatch.setattr(cls, "validate", counted)
        paths = [PathParam(-10.0, 1.0), PathParam(20.0, 2.0), PathParam(40.0, 3.0)]
        synthesize(pulse_wave, paths, ArrayConfig(8, 0.5), FadingModel(kind="rayleigh"), 2, 0.1)
        assert sorted(calls) == ["ArrayConfig", "FadingModel"]

    @pytest.mark.parametrize("kind", sorted(ALL_FADING))
    def test_prefix_stable_for_every_fading_kind(self, pulse_wave, kind):
        # noise is drawn a block of snapshots at a time; the longer run
        # crosses a block boundary that the shorter ones do not
        step = NOISE_ROWS // len(pulse_wave)
        kw = dict(paths=TWO_PATHS, arr=ArrayConfig(4, 0.5), fading=ALL_FADING[kind],
                  noise_var=0.2, seed=13)
        full = synthesize(pulse_wave, num_snapshots=step + 3, **kw)
        betas = ALL_FADING[kind].draw(np.random.default_rng([13, 0]), (step + 3, len(TWO_PATHS)))
        for count in (1, 3, step + 1):
            part = synthesize(pulse_wave, num_snapshots=count, **kw)
            assert np.array_equal(part.bins, full.bins[:, :count])
            noiseless = synthesize(pulse_wave, num_snapshots=count, **{**kw, "noise_var": 0.0})
            assert_faded_by(noiseless.bins, pulse_wave, TWO_PATHS, kw["arr"], betas[:count])

    @pytest.mark.parametrize("kind", sorted(RANDOM_FADING))
    def test_betas_do_not_depend_on_noise_or_array_size(self, kind):
        # the fading is the draw from default_rng([seed, 0]) whatever noise_var, M or N;
        # a zero-fading set of the same seed holds exactly the noise
        fading = RANDOM_FADING[kind]
        betas = fading.draw(np.random.default_rng([4, 0]), (6, len(TWO_PATHS)))
        for wave in (generate_pulse(zero_bit_cfg()), generate_pulse(zero_bit_cfg(symbol_count=12))):
            for noise_var in (0.0, 1.0):
                for m in (4, 16):
                    arr = ArrayConfig(m, 0.5)
                    bins = synthesize(wave, TWO_PATHS, arr, fading, 6, noise_var, seed=4).bins
                    bins -= synthesize(wave, TWO_PATHS, arr, NO_FADING, 6, noise_var, seed=4).bins
                    assert_faded_by(bins, wave, TWO_PATHS, arr, betas)

    def test_pure_noise_moments(self, pulse_wave):
        # beta = 0 leaves only noise: white circular CN(0, N * noise_var) per
        # bin, CN(0, noise_var) per time sample
        n, noise_var = len(pulse_wave), 0.7
        snaps = synthesize(pulse_wave, TWO_PATHS, ArrayConfig(8, 0.5),
                           FadingModel(kind="deterministic", beta=0.0), 400, noise_var, seed=21)
        bins = snaps.bins / np.sqrt(n * noise_var)
        assert abs(bins.mean()) < 0.01
        assert np.mean(np.abs(bins) ** 2) == pytest.approx(1.0, rel=0.01)
        per_bin = np.mean(np.abs(bins) ** 2, axis=(1, 2))
        assert np.all(np.abs(per_bin - 1.0) < 0.1)
        assert abs(np.mean(bins**2)) < 0.01  # circular
        assert abs(np.mean(bins[1:] * bins[:-1].conj())) < 0.01  # adjacent bins
        assert abs(np.mean(bins[:, :, 1:] * bins[:, :, :-1].conj())) < 0.01  # adjacent sensors
        assert np.mean(np.abs(time_series(snaps)) ** 2) == pytest.approx(noise_var, rel=0.01)

    @pytest.mark.parametrize(
        "noise_var, half, bound",
        # noiseless synthesis is one GEMM whose (L, S*M) operand is 3 % of the half set
        [(1.0, False, 1.25), (0.0, True, 1.05)],
        ids=["noisy", "noiseless-half"],
    )
    def test_synthesis_holds_one_snapshot_array(self, pulse_wave, noise_var, half, bound):
        args = (pulse_wave, TWO_PATHS, ArrayConfig(64, 0.5),
                FadingModel(kind="rayleigh", sigma=1.0), 200, noise_var)
        synthesize(*args, seed=1, half=half)  # warm up
        tracemalloc.start()
        try:
            snaps = synthesize(*args, seed=2, half=half)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ratio = peak / snaps.bins.nbytes
        assert ratio < bound, f"peak is {ratio:.3f} x the snapshot array"

    def test_stream_pinned(self, pulse_wave):
        # first two betas of seed 1 for each kind, which a noiseless set of seed 1
        # carries, and the first noise bin of each half; a change here is a change
        # of the random stream
        pinned = {
            "rayleigh": [0.345584192064786 + 0.8216181435011584j,
                         0.33043707618338714 - 1.303157231604361j],
            "rician": [0.6864651939801117 - 1.0358431017304086j,
                       -1.1497776242107722 + 0.9154764647878701j],
            "suzuki": [0.4341951732963765 + 1.0322886300715246j,
                       -1.773818541076477 + 1.2323432534691272j],
        }
        arr = ArrayConfig(4, 0.5)
        for kind, expected in pinned.items():
            betas = RANDOM_FADING[kind].draw(np.random.default_rng([1, 0]), (1, len(TWO_PATHS)))
            np.testing.assert_allclose(betas[0], expected, rtol=1e-12, atol=0)
            snaps = synthesize(pulse_wave, TWO_PATHS, arr, RANDOM_FADING[kind], 1, seed=1)
            assert_faded_by(snaps.bins, pulse_wave, TWO_PATHS, arr, betas)
        snaps = synthesize(pulse_wave, TWO_PATHS, arr, NO_FADING, 1, 1.0, seed=1)
        assert len(pulse_wave) == 128
        np.testing.assert_allclose(snaps.bins[0, 0, 0], 4.266831027079575 + 9.937965423732352j,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(snaps.bins[65, 0, 0], -9.606450042633606 + 6.6023284349288565j,
                                   rtol=1e-12, atol=0)

    def test_half_set_never_builds_the_upper_stream(self, pulse_wave, monkeypatch):
        keys = []
        real_default_rng = np.random.default_rng

        def recording(seed=None):
            keys.append(seed)
            return real_default_rng(seed)

        monkeypatch.setattr("jade.channel.np.random.default_rng", recording)
        n, seed = len(pulse_wave), 5
        kw = dict(pulse=pulse_wave, paths=TWO_PATHS, arr=ArrayConfig(4, 0.5),
                  fading=FadingModel(kind="rayleigh", sigma=1.0), num_snapshots=3, noise_var=0.5,
                  seed=seed)
        synthesize(**kw, half=True)
        assert [seed, 1] in keys and [seed, 2] not in keys
        keys.clear()
        synthesize(**kw)
        assert [seed, 2] in keys

    def test_two_sample_pulse_has_no_upper_stream(self):
        # at N = 2 bins 0..N/2 are every bin, so the full set is the half set
        wave = generate_pulse(zero_bit_cfg(symbol_count=2, oversample=1))
        kw = dict(pulse=wave, paths=[PathParam(0.0, 0.5)], arr=ArrayConfig(4, 0.5),
                  fading=FadingModel(kind="rayleigh", sigma=1.0), num_snapshots=3, noise_var=0.5,
                  seed=2)
        assert np.array_equal(synthesize(**kw).bins, synthesize(**kw, half=True).bins)

    def test_holds_one_snapshot_array_after_save(self, pulse_wave, tmp_path):
        snaps = synthesize(
            pulse_wave, [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)], ArrayConfig(4, 0.5),
            FadingModel(kind="rayleigh", sigma=1.0), 3, 0.1, seed=1,
        )
        cube = 3 * 4 * len(pulse_wave)

        def held():
            return {k: v.size for k, v in vars(snaps).items() if isinstance(v, np.ndarray)}

        assert [f.name for f in fields(snaps)] == ["bins", "spacing", "half"]
        assert held() == {"bins": cube}
        save_dataset(snaps, tmp_path / "data.txt")
        assert held() == {"bins": cube}

    def test_reproducible_and_prefix_stable(self, pulse_wave):
        kw = dict(
            paths=[PathParam(-10.0, 3.0), PathParam(20.0, 7.0)],
            arr=ArrayConfig(4, 0.5),
            fading=FadingModel(kind="rayleigh", sigma=1.0),
            noise_var=0.05,
        )
        a = synthesize(pulse_wave, num_snapshots=8, seed=11, **kw)
        b = synthesize(pulse_wave, num_snapshots=8, seed=11, **kw)
        assert np.array_equal(a.bins, b.bins)
        # snapshot streams are keyed by (seed, snapshot): a shorter run is a
        # prefix of a longer one, so parallel generation cannot change results
        c = synthesize(pulse_wave, num_snapshots=4, seed=11, **kw)
        assert np.array_equal(c.bins, a.bins[:, :4])

    def test_bins_are_bin_major(self, pulse_wave, tmp_path):
        # bins is one C-contiguous (bin, snapshot, sensor) array whether it
        # was synthesized with or without noise or loaded from a file
        n, s_count, m = len(pulse_wave), 5, 4
        noiseless = synthesize(pulse_wave, TWO_PATHS, ArrayConfig(m, 0.5),
                               FadingModel(kind="rayleigh", sigma=1.0), s_count, seed=3)
        noisy = synthesize(pulse_wave, TWO_PATHS, ArrayConfig(m, 0.5),
                           FadingModel(kind="rayleigh", sigma=1.0), s_count, 0.1, seed=3)
        save_dataset(noisy, tmp_path / "data.txt")
        loaded = load_dataset(tmp_path / "data.txt")
        for snaps in (noiseless, noisy, loaded):
            assert snaps.bins.shape == (n, s_count, m)
            assert snaps.bins.flags.c_contiguous
            assert (snaps.num_samples, snaps.num_snapshots, snaps.num_sensors) == (n, s_count, m)

    def test_sensor_power_closed_form(self, pulse_wave):
        # Monte-Carlo mean power per sensor against the independence-based
        # closed form E|beta|^2 * sum_i (sum_n |g(t - tau_i)|^2) / N. Integer
        # delays keep the shifted pulse real so the per-path energy equals
        # the undelayed pulse energy.
        n = len(pulse_wave)
        energy = np.sum(pulse_wave**2)
        closed = 2.0 * (energy + energy) / n
        total, chunks, s_per = 0.0, 4, 2500
        for c in range(chunks):
            snaps = synthesize(
                pulse_wave,
                [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)],
                ArrayConfig(8, 0.5),
                FadingModel(kind="rayleigh", sigma=1.0),
                s_per,
                0.0,
                seed=100 + c,
            )
            total += np.mean(np.abs(time_series(snaps)) ** 2)
        assert total / chunks == pytest.approx(closed, rel=0.02)

    def test_validation(self, pulse_wave):
        arr = ArrayConfig(4, 0.5)
        fading = FadingModel(kind="rayleigh", sigma=1.0)
        with pytest.raises(ValidationError):
            synthesize(pulse_wave, [], arr, fading, 1)
        with pytest.raises(ValidationError):
            synthesize(pulse_wave, [PathParam(0.0, 0.0)], arr, fading, 0)
        with pytest.raises(ValidationError):
            synthesize(pulse_wave, [PathParam(0.0, 0.0)], arr, fading, 1, noise_var=-1.0)
        for noise_var in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="noise_var"):
                synthesize(pulse_wave, [PathParam(0.0, 0.0)], arr, fading, 1, noise_var)
        with pytest.raises(ValidationError):
            synthesize(pulse_wave, [PathParam(0.0, 100.0)], arr, fading, 1)
        with pytest.raises(ValidationError):
            synthesize(pulse_wave, [PathParam(95.0, 0.0)], arr, fading, 1)
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            synthesize(pulse_wave, [PathParam(0.0, 0.0)], arr, fading, 1, seed=-1)
        # the delayed spectra come from spectrum(), which needs two samples
        with pytest.raises(ValidationError, match=">= 2 samples"):
            synthesize(np.array([1.0]), [PathParam(0.0, 0.0)], arr, fading, 1)


class TestNumBins:
    # N = 128 (the default), 48 and the odd-half 50; M spans tiny to large arrays
    PULSES = {128: dict(symbol_count=32, oversample=4), 48: dict(symbol_count=12, oversample=4),
              50: dict(symbol_count=10, oversample=5)}

    @pytest.mark.parametrize("n", sorted(PULSES))
    @pytest.mark.parametrize("noise_var", [0.0, 0.7], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("kind", ALL_FADING)
    def test_kept_bins_are_an_exact_prefix(self, n, noise_var, kind):
        wave = generate_pulse(zero_bit_cfg(**self.PULSES[n]))
        # 25 snapshots span several noise blocks at every N
        for m in (4, 5, 16, 33, 64):
            kw = dict(pulse=wave, paths=TWO_PATHS, arr=ArrayConfig(m, 0.5),
                      fading=ALL_FADING[kind], num_snapshots=25, noise_var=noise_var, seed=m)
            full = synthesize(**kw)
            kept = synthesize(**kw, half=True)
            assert kept.bins.shape == (n // 2 + 1, 25, m)
            assert kept.bins.flags.c_contiguous
            assert np.array_equal(kept.bins, full.bins[:n // 2 + 1]), m
            assert kept.half and not full.half

    @pytest.mark.parametrize("n", [128, 50])
    @pytest.mark.parametrize("kind", ALL_FADING)
    def test_noisy_kept_bins_are_bit_exact(self, n, kind):
        # one snapshot, and counts that end on and one past a noise block
        wave = generate_pulse(zero_bit_cfg(**self.PULSES[n]))
        step = NOISE_ROWS // (n // 2 + 1)
        for m, snapshots in ((4, 1), (16, step), (33, step + 1)):
            kw = dict(pulse=wave, paths=TWO_PATHS, arr=ArrayConfig(m, 0.5),
                      fading=ALL_FADING[kind], num_snapshots=snapshots, noise_var=0.7, seed=m)
            full = synthesize(**kw)
            kept = synthesize(**kw, half=True)
            assert np.array_equal(kept.bins, full.bins[:n // 2 + 1]), (m, snapshots)


class TestFadingModel:
    def test_rayleigh_moments(self):
        rng = np.random.default_rng(0)
        b = FadingModel(kind="rayleigh", sigma=1.0).draw(rng, 100_000)
        assert abs(b.mean()) < 0.02
        assert np.mean(np.abs(b) ** 2) == pytest.approx(2.0, rel=0.02)

    def test_rician_moments_and_k_factor(self):
        # K = 5 at E|beta|^2 = 2: nu^2 = 2K/(1+K), 2 sigma^2 = 2/(1+K)
        fm = FadingModel(kind="rician", nu=1.2909944487358056, sigma=0.408248290463863)
        assert fm.nu**2 / (2 * fm.sigma**2) == pytest.approx(5.0)
        assert fading_power(fm) == pytest.approx(2.0)
        rng = np.random.default_rng(1)
        b = fm.draw(rng, 100_000)
        assert abs(b.mean()) < 0.02
        assert np.mean(np.abs(b) ** 2) == pytest.approx(fading_power(fm), rel=0.02)

    def test_suzuki_moments(self):
        fm = FadingModel(kind="suzuki", sigma=1.0, mean_db=0.0, std_db=6.0)
        rng = np.random.default_rng(2)
        b = fm.draw(rng, 100_000)
        assert abs(b.mean()) < 0.02
        # heavier tails than Rayleigh: give the sample mean a looser 5%
        assert np.mean(np.abs(b) ** 2) == pytest.approx(fading_power(fm), rel=0.05)

    def test_cross_path_independence(self):
        rng = np.random.default_rng(3)
        fm = FadingModel(kind="rayleigh", sigma=1.0)
        b1 = fm.draw(rng, 100_000)
        b2 = fm.draw(rng, 100_000)
        assert abs(np.mean(b1 * np.conj(b2))) < 0.02

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        fm = FadingModel(kind="deterministic", beta=0.5 - 0.25j)
        assert np.all(fm.draw(rng, 10) == 0.5 - 0.25j)
        assert fading_power(fm) == pytest.approx(0.3125)

    @pytest.mark.parametrize("kind", sorted(RANDOM_FADING))
    def test_snapshot_path_draw_moments(self, kind):
        # a (snapshot, path) draw: zero mean, the closed-form power on every
        # path, and no correlation across paths or adjacent snapshots
        fm = RANDOM_FADING[kind]
        b = fm.draw(np.random.default_rng(5), (100_000, 3))
        assert b.shape == (100_000, 3)
        power = fading_power(fm)
        assert np.all(np.abs(b.mean(axis=0)) < 0.02 * np.sqrt(power))
        assert np.mean(np.abs(b) ** 2, axis=0) == pytest.approx([power] * 3, rel=0.05)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            assert abs(np.mean(b[:, i] * b[:, j].conj())) < 0.02 * power
        assert np.all(np.abs(np.mean(b[1:] * b[:-1].conj(), axis=0)) < 0.02 * power)
        # the phase is uniform: E[beta^2] vanishes, as for a circular law
        assert abs(np.mean(b**2)) < 0.02 * power

    def test_validation(self):
        with pytest.raises(ValidationError):
            FadingModel(kind="rayleigh", sigma=0.0).validate()
        with pytest.raises(ValidationError):
            FadingModel(kind="rician", nu=-1.0, sigma=1.0).validate()
        with pytest.raises(ValidationError):
            FadingModel(kind="nakagami").validate()
        with pytest.raises(ValidationError, match="std_db must be >= 0, got -1.0"):
            FadingModel(kind="suzuki", std_db=-1.0).validate()
        for kind in FadingModel._KINDS:
            for field in ("beta", "sigma", "nu", "mean_db", "std_db"):
                for bad in (np.nan, np.inf):
                    with pytest.raises(ValidationError, match=field):
                        FadingModel(kind=kind, **{field: bad}).validate()


class TestDatasetIO:
    def test_round_trip(self, pulse_wave, tmp_path):
        snaps = synthesize(
            pulse_wave,
            [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)],
            ArrayConfig(4, 0.5),
            FadingModel(kind="rayleigh", sigma=1.0),
            3,
            0.01,
            seed=5,
        )
        path = tmp_path / "data.txt"
        save_dataset(snaps, path)
        loaded = load_dataset(path)
        samples = read_samples(path, snaps)
        assert np.array_equal(samples, time_series(snaps))  # repr-exact samples
        assert loaded.num_sensors == 4
        assert loaded.spacing == 0.5
        ref = np.fft.fft(samples, axis=-1)
        assert np.abs(spectra(loaded) - ref).max() < 1e-10 * np.abs(ref).max()

    def test_save_and_load_hold_one_snapshot_at_a_time(self, pulse_wave, tmp_path):
        # the time series is formed and parsed one (M, N) snapshot at a time,
        # never as a second (S, M, N) array beside the spectra
        snaps = synthesize(pulse_wave, TWO_PATHS, ArrayConfig(16, 0.5),
                           FadingModel(kind="rayleigh", sigma=1.0), 20, 1.0, seed=3)
        path = tmp_path / "data.txt"
        peaks = []
        for step in (lambda: save_dataset(snaps, path), lambda: load_dataset(path)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1] / snaps.bins.nbytes)
            finally:
                tracemalloc.stop()
        save_peak, load_peak = peaks
        assert save_peak <= 0.5
        assert load_peak <= 1.5

    def test_half_set_is_not_saved(self, tmp_path):
        cfg = default_scenario()
        wave = generate_pulse(cfg.pulse)
        kw = dict(pulse=wave, paths=cfg.paths, arr=cfg.array, fading=cfg.fading,
                  num_snapshots=3, noise_var=cfg.noise_var, seed=cfg.seed)
        path = tmp_path / "data.txt"
        with pytest.raises(ValidationError, match="half set"):
            save_dataset(synthesize(**kw, half=True), path)
        assert not path.exists()
        full = synthesize(**kw)
        save_dataset(full, path)
        assert np.array_equal(read_samples(path, full), time_series(full))

    def test_header_format(self, pulse_wave, tmp_path):
        snaps = one_path_snaps(pulse_wave, sensors=3, snapshots=2)
        path = tmp_path / "data.txt"
        save_dataset(snaps, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("JADE1 ")
        assert "M=3" in header and "N=128" in header and "S=2" in header and "delta=0.5" in header

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOPE M=2 N=4 S=1 delta=0.5\n1:0,2:0,3:0,4:0\n")
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_rejects_a_header_larger_than_memory(self, tmp_path):
        # 8.2e15 bytes of bins, past any address space, so nothing is touched; the
        # data line is not a number, so a loader that parsed it would say so instead
        path = tmp_path / "huge.txt"
        path.write_text("JADE1 M=4 N=128 S=1000000000000 delta=0.5\nabc:0\n")
        with pytest.raises(ValidationError, match="dataset header M=4 N=128 S=1000000000000"):
            load_dataset(path)

    def test_rejects_non_numeric_sample(self, tmp_path):
        path = tmp_path / "bad.txt"
        for sample in ("abc", "nan", "inf", "-inf"):
            rows = ["1:0,2:0,3:0,4:0"] * 4
            rows[3] = f"1:0,2:0,{sample}:0.0,4:0"
            path.write_text("JADE1 M=2 N=4 S=2 delta=0.5\n" + "\n".join(rows) + "\n")
            with pytest.raises(ValidationError, match="sample at snapshot 1, sensor 1"):
                load_dataset(path)

    def test_rejects_truncated_file(self, pulse_wave, tmp_path):
        snaps = one_path_snaps(pulse_wave, sensors=3, snapshots=2)
        path = tmp_path / "data.txt"
        save_dataset(snaps, path)
        lines = path.read_text().splitlines()
        (tmp_path / "cut.txt").write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValidationError):
            load_dataset(tmp_path / "cut.txt")
        # a line cut short by one sample
        lines[1] = lines[1][: lines[1].rindex(",")]
        (tmp_path / "short.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError,
                           match=r"expected 128 comma-separated re:im pairs \(snapshot 0, sensor 0\)"):
            load_dataset(tmp_path / "short.txt")

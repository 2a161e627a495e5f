import numpy as np
import pytest

from jade import PulseConfig, ValidationError, generate_pulse, spectrum
from jade.pulse import omega_grid


def zero_bit_cfg(**kw):
    base = dict(rolloff=0.35, carrier_freq=0.25, symbol_count=32, oversample=4)
    base.update(kw)
    sc = base["symbol_count"]
    return PulseConfig(bits=[0] * sc, **base)


class TestPulseConfig:
    def test_rejects_bad_rolloff(self):
        for rho in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                PulseConfig(rho, 0.25, 32, 4).validate()

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            PulseConfig(0.35, 0.25, 0, 4).validate()
        with pytest.raises(ValidationError):
            PulseConfig(0.35, 0.25, 32, 0).validate()
        with pytest.raises(ValidationError):
            PulseConfig(0.35, -0.1, 32, 4).validate()

    def test_rejects_bad_bits(self):
        with pytest.raises(ValidationError):
            PulseConfig(0.35, 0.25, 4, 4, bits=[0, 1]).validate()
        with pytest.raises(ValidationError):
            PulseConfig(0.35, 0.25, 4, 4, bits=[0, 1, 2, 0]).validate()

    def test_rejects_negative_bits_seed(self):
        # a typed error, not numpy's seed error from drawing the bits
        cfg = PulseConfig(0.35, 0.25, 32, 4, bits_seed=-1)
        with pytest.raises(ValidationError, match="bits_seed must be >= 0, got -1"):
            cfg.validate()
        with pytest.raises(ValidationError, match="bits_seed"):
            generate_pulse(cfg)

    def test_bits_reproducible_from_seed(self):
        a = PulseConfig(0.35, 0.25, 32, 4, bits_seed=9).resolve_bits()
        b = PulseConfig(0.35, 0.25, 32, 4, bits_seed=9).resolve_bits()
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1}

    def test_a_pulse_needs_bits_or_a_bits_seed(self):
        with pytest.raises(ValidationError, match="bits or a bits_seed"):
            generate_pulse(PulseConfig(0.35, 0.25, 32, 4))


class TestGeneratePulse:
    def test_value_at_zero_is_one(self):
        # all factors sit at their limits: sinc(0)=1, rolloff limit 1, cos(0)=1
        for rho, fc in [(0.35, 0.25), (0.5, 0.1), (1.0, 0.0)]:
            cfg = zero_bit_cfg(rolloff=rho, carrier_freq=fc)
            i0 = np.where(cfg.times == 0.0)[0][0]
            assert generate_pulse(cfg)[i0] == pytest.approx(1.0, abs=1e-12)

    def test_integer_zero_crossings(self):
        cfg = zero_bit_cfg()
        wave = generate_pulse(cfg)
        for t0 in (1.0, 2.0, -3.0):
            idx = np.where(cfg.times == t0)[0][0]
            assert abs(wave[idx]) < 1e-12

    def test_rolloff_singularity_value(self):
        # rho=0.35 puts the rolloff singularity at t = 10/7, on the grid for
        # oversample 7. Frozen oracle: sinc(10/7) * (pi/4) * cos(2*pi*0.25*10/7),
        # the L'Hopital limit of cos(pi*rho*t)/(1-4 rho^2 t^2) being pi/4.
        expected = 0.10637508188873894
        t_sing = 1.0 / (2.0 * 0.35)

        def raw_formula(t):  # independent evaluation away from the singularity
            sinc = np.sin(np.pi * t) / (np.pi * t)
            roll = np.cos(np.pi * 0.35 * t) / (1.0 - 4.0 * 0.35**2 * t**2)
            return sinc * roll * np.cos(2.0 * np.pi * 0.25 * t)

        assert raw_formula(t_sing - 1e-6) == pytest.approx(expected, abs=1e-5)
        assert raw_formula(t_sing + 1e-6) == pytest.approx(expected, abs=1e-5)

        cfg = PulseConfig(0.35, 0.25, symbol_count=4, oversample=7, bits=[0] * 4)
        wave = generate_pulse(cfg)
        idx = np.argmin(np.abs(cfg.times - t_sing))
        assert abs(cfg.times[idx] - t_sing) < 1e-12
        assert wave[idx] == pytest.approx(expected, abs=1e-12)

    def test_finite_at_grid_singularities(self):
        # 1/(2*rho) = 2.0 lands exactly on the oversample-4 grid for rho=0.25,
        # and coincides with a sinc zero for rho=0.5.
        for rho in (0.25, 0.5):
            wave = generate_pulse(zero_bit_cfg(rolloff=rho))
            assert np.isfinite(wave).all()

    def test_rejects_odd_total_samples(self):
        with pytest.raises(ValidationError):
            generate_pulse(PulseConfig(0.35, 0.25, 3, 3, bits=[0, 0, 0]))

    def test_rejects_odd_symbol_count(self):
        # N is even but the half-window shift does not land on a bit boundary;
        # validate rejects it before any grid is built, so it is a config error
        with pytest.raises(ValidationError):
            generate_pulse(PulseConfig(0.35, 0.25, 3, 4, bits=[0, 0, 0]))
        for count in (0, 7):
            with pytest.raises(ValidationError, match="even"):
                PulseConfig(0.35, 0.25, count, 4).validate()

    # 2.6e16 bytes of sample times, or 8e15 bytes of drawn bits: above 2**47 bytes, so
    # the allocation fails at once whatever the overcommit setting
    @pytest.mark.parametrize("symbols, oversample", [(32, 10**14), (10**15, 4)])
    def test_a_pulse_too_long_for_memory_is_a_validation_error(self, symbols, oversample):
        with pytest.raises(ValidationError, match=f"symbols={symbols} at oversample={oversample}: "
                                                  "Unable to allocate"):
            generate_pulse(PulseConfig(0.35, 0.25, symbols, oversample, bits_seed=0))

    def test_grid_definition(self):
        cfg = zero_bit_cfg()
        wave = generate_pulse(cfg)
        assert wave.shape == cfg.times.shape == (128,)
        assert cfg.times[0] == -16.0
        assert np.allclose(np.diff(cfg.times), 0.25)

    def test_keying_flips_carrier_phase(self):
        up = generate_pulse(zero_bit_cfg(symbol_count=4, oversample=4))
        down = generate_pulse(PulseConfig(0.35, 0.25, 4, 4, bits=[1] * 4))
        # cos(x + pi) = -cos(x): keying all ones negates the waveform
        assert np.allclose(down, -up, atol=1e-12)


class TestSpectrum:
    def test_constant_waveform_concentrates_at_dc(self):
        magnitude = np.abs(spectrum(np.ones(16), band_threshold=0.0))
        assert magnitude[0] == pytest.approx(16.0)
        assert np.abs(magnitude[1:]).max() < 1e-12

    def test_omega_grid_convention(self, keyed_pulse):
        _, _, spec = keyed_pulse
        n = len(spec)
        omega = omega_grid(n)
        assert omega.shape == spec.shape
        assert omega.min() > -np.pi
        assert omega.max() == pytest.approx(np.pi)
        assert omega[n // 2] == pytest.approx(np.pi)
        assert omega[0] == 0.0

    def test_hermitian_symmetry(self, keyed_pulse):
        _, _, spec = keyed_pulse
        n = len(spec)
        q = np.arange(n)
        mirrored = spec[(n - q) % n]
        err = np.abs(mirrored - np.conj(spec)).max() / np.abs(spec).max()
        assert err < 1e-12

    def test_shift_theorem(self, keyed_pulse):
        _, wave, spec = keyed_pulse
        d = 5
        spec_shift = spectrum(np.roll(wave, d))
        expected = spec * np.exp(-1j * omega_grid(len(spec)) * d)
        err = np.abs(spec_shift - expected).max() / np.abs(spec).max()
        assert err < 1e-10

    def test_magnitude_shape_keyed(self, keyed_pulse):
        # The keyed pulse occupies the lower half of the oversampled band:
        # carrier 0.25 cycles/symbol = 1/16 cycle/sample plus keying spread.
        _, _, spec = keyed_pulse
        energy = np.abs(spec) ** 2
        n = len(spec)
        low = energy[: n // 4 + 1].sum() + energy[3 * n // 4 :].sum()
        assert low / energy.sum() > 0.7

    def test_magnitude_shape_unkeyed(self, plain_pulse):
        # Without keying the spectrum is confined to the analytic occupied
        # band (carrier + (1+rolloff)/2 cycles per symbol, scaled by the
        # oversampling), with only window leakage beyond it.
        cfg, _, spec = plain_pulse
        magnitude = np.abs(spec)
        n = len(spec)
        edge = (cfg.carrier_freq + (1 + cfg.rolloff) / 2) / cfg.oversample
        edge_bin = int(np.ceil(edge * n))
        out = magnitude[edge_bin : n // 2 + 1].max()
        assert out < 0.005 * magnitude.max()
        peak_bin = int(np.argmax(magnitude[1 : n // 2 + 1])) + 1
        assert peak_bin < edge_bin

    def test_rejects_too_short(self):
        with pytest.raises(ValidationError, match=">= 2 samples"):
            spectrum(np.array([1.0]))

    @pytest.mark.parametrize(
        "wave, match",
        [
            (np.ones((2, 8)), r"1-D .* shape \(2, 8\)"),
            ([1.0, np.nan, 3.0], "non-finite"),
        ],
        ids=["shape", "nan"],
    )
    def test_waveform_rejects(self, wave, match):
        # spectrum owns the checks of the pulse samples: every stage takes its pulse from it
        with pytest.raises(ValidationError, match=match):
            spectrum(wave)

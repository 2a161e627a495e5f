import warnings

import numpy as np
import pytest

from jade import (
    ArrayConfig,
    CorrelationSequence,
    EstimationError,
    FadingModel,
    PathParam,
    PronyConfig,
    ValidationError,
    estimate_correlation,
    monte_carlo,
    scenario_from_dict,
    select_band,
    svd_prony,
    synthesize,
)


def sequence_from_modes(increments, amplitudes, num_lags, spacing=0.5):
    """Build c_l = sum_i G_i exp(j*phi_i*l) for one-sided lags (test oracle)."""
    lags = np.arange(num_lags)
    values = sum(
        g * np.exp(1j * phi * lags) for g, phi in zip(amplitudes, increments)
    )
    return CorrelationSequence(values=np.asarray(values, dtype=complex), spacing=spacing)


def circular_separated_phases(rng, count, min_sep=0.1, margin=0.05):
    """Random phase increments with pairwise circular separation >= min_sep."""
    while True:
        phases = rng.uniform(-np.pi + margin, np.pi - margin, count)
        gaps = np.abs(np.angle(np.exp(1j * (phases[:, None] - phases[None, :]))))
        if count == 1 or gaps[np.triu_indices(count, 1)].min() >= min_sep:
            return phases


class TestValidityRule:
    def test_damped_modes_flag_invalid(self):
        # The two-sided sequence is conjugate-symmetric, so a damped mode z comes with
        # its mirror 1/conj(z): here 0.9 e^{1.2j} and e^{1.2j}/0.9 beside e^{0.5j}.
        lags = np.arange(32)
        values = np.exp(0.5j * lags) + 0.5 * (0.9**lags + 0.9**-lags) * np.exp(1.2j * lags)
        corr = CorrelationSequence(values=values, spacing=0.5)
        est = svd_prony(corr, PronyConfig(num_modes=3))
        assert not est.valid
        assert np.abs(np.sort(np.abs(est.roots)) - [0.9, 1.0, 1 / 0.9]).max() < 1e-10

    def test_too_few_modes_flag_invalid(self):
        corr = sequence_from_modes([0.5, 1.2], [1.0, 1.0], num_lags=32)
        assert not svd_prony(corr, PronyConfig(num_modes=1)).valid

    def test_exact_data_stays_valid(self, recwarn):
        corr = sequence_from_modes([-0.7, 0.4, 1.3], [1.0, 0.8, 1.5], num_lags=24)
        est = svd_prony(corr, PronyConfig(num_modes=3))
        assert est.valid and np.all(np.abs(est.angles_deg) < 90.0)
        assert np.abs(np.abs(est.roots) - 1.0).max() < 1e-10
        assert len(recwarn) == 0

    def test_flagged_trials_issue_no_warning(self):
        # below the SNR threshold nearly every fit is flagged; the verdict is in the report only
        cfg = scenario_from_dict({"sensors": 16, "snapshots": 50, "noise_var": 100})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mc = monte_carlo(cfg, trials=20)
        assert caught == []
        assert any(not trial["estimate_valid"] for trial in mc.trials)

    def test_all_zero_sequence_raises(self):
        corr = CorrelationSequence(values=np.zeros(8), spacing=0.5)
        with pytest.raises(EstimationError, match="prony"):
            svd_prony(corr, PronyConfig(num_modes=1))


class TestSvdProny:
    def test_single_exponential_frozen_value(self):
        # c_l = exp(j*0.8*l), spacing 0.5 -> sin(theta) = 0.8/pi
        corr = sequence_from_modes([0.8], [1.0], num_lags=64)
        est = svd_prony(corr, PronyConfig(num_modes=1))
        assert est.sines[0] == pytest.approx(0.25464790894703254, abs=1e-10)
        assert est.angles_deg[0] == pytest.approx(14.752723110539105, abs=1e-8)
        assert abs(est.roots[0] - np.exp(0.8j)) < 1e-8
        assert est.valid and np.all(np.abs(est.angles_deg) < 90.0)

    def test_two_exponentials_amplitudes(self):
        corr = sequence_from_modes([0.3, 1.1], [2.0, 1.0], num_lags=64)
        est = svd_prony(corr, PronyConfig(num_modes=2))
        increments = np.sort(np.angle(est.roots))
        assert np.abs(increments - [0.3, 1.1]).max() < 1e-8
        assert np.abs(np.sort(est.amplitudes) - [1.0, 2.0]).max() < 1e-8
        # the least-squares amplitudes of the Hermitian sequence are real
        lags = np.arange(-63, 64)
        modes = np.exp(1j * np.outer(lags, np.angle(est.roots)))
        amp, *_ = np.linalg.lstsq(modes, corr.two_sided(), rcond=None)
        assert np.abs(amp.imag).max() < 1e-6 * np.abs(amp).max()
        # reconstruction residual on the two-sided sequence
        recon = sum(
            g * np.exp(1j * np.angle(z) * lags)
            for g, z in zip(est.amplitudes, est.roots)
        )
        assert np.linalg.norm(recon - corr.two_sided()) < 1e-10 * np.linalg.norm(corr.two_sided())

    def test_exactness_random_modes(self):
        # up to 4 unit-modulus modes, positive amplitudes, separation >= 0.1:
        # phase increments recovered to 1e-8 at the order T//3 of 64 lags, and at
        # the order L of count + 1 lags, the fewest that hold the modes
        rng = np.random.default_rng(42)
        for _ in range(50):
            count = int(rng.integers(1, 5))
            phases = circular_separated_phases(rng, count)
            amps = rng.uniform(0.5, 2.0, count)
            for num_lags in (64, count + 1):
                corr = sequence_from_modes(phases, amps, num_lags=num_lags)
                est = svd_prony(corr, PronyConfig(num_modes=count))
                got = np.sort(np.angle(est.roots))
                assert np.abs(got - np.sort(phases)).max() < 1e-8

    def test_scale_invariance(self):
        corr = sequence_from_modes([0.3, 1.1], [2.0, 1.0], num_lags=32)
        scaled = CorrelationSequence(values=3.7 * corr.values, spacing=0.5)
        a = svd_prony(corr, PronyConfig(num_modes=2))
        b = svd_prony(scaled, PronyConfig(num_modes=2))
        assert np.abs(a.sines - b.sines).max() < 1e-12
        assert np.abs(b.amplitudes - 3.7 * a.amplitudes).max() < 1e-10

    def test_conjugation_negates_sines(self):
        corr = sequence_from_modes([0.3, 1.1], [2.0, 1.0], num_lags=32)
        conj = CorrelationSequence(values=np.conj(corr.values), spacing=0.5)
        a = svd_prony(corr, PronyConfig(num_modes=2))
        b = svd_prony(conj, PronyConfig(num_modes=2))
        assert np.abs(np.sort(b.sines) - np.sort(-a.sines)).max() < 1e-12

    def test_singular_value_gap_on_exact_data(self):
        corr = sequence_from_modes([-0.5, 0.9], [1.0, 1.5], num_lags=64)
        est = svd_prony(corr, PronyConfig(num_modes=2))
        sv = est.singular_values
        assert sv[2] / sv[1] < 1e-10

    def test_two_sided_sequence_is_conjugate_symmetric(self, keyed_pulse):
        # so the backward Hankel matrix equals the forward one, bit for bit
        _, wave, spec = keyed_pulse
        paths = [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)]
        snaps = synthesize(wave, paths, ArrayConfig(16, 0.5), FadingModel(kind="rayleigh"),
                           num_snapshots=10, noise_var=1.0, seed=3)
        for corr in (estimate_correlation(snaps, select_band(spec, 0.1)),
                     sequence_from_modes([-0.7, 0.4], [1.0, 0.8], num_lags=48)):
            two_sided = corr.two_sided()
            assert np.array_equal(np.conj(two_sided[::-1]), two_sided)

    def test_aliasing_overshoot_flags(self):
        # spacing 0.4 maps a 3.0 rad increment to |sin| = 1.19 > 1
        lags = np.arange(24)
        corr = CorrelationSequence(values=np.exp(3.0j * lags), spacing=0.4)
        est = svd_prony(corr, PronyConfig(num_modes=1))
        assert not est.valid
        assert abs(est.angles_deg[0]) == 90.0  # the clipped sine
        assert abs(est.sines[0]) <= 1.0

    def test_config_validation(self):
        corr = sequence_from_modes([0.5], [1.0], num_lags=8)
        with pytest.raises(ValidationError, match="num_modes must be >= 1, got 0"):
            svd_prony(corr, PronyConfig(num_modes=0))
        with pytest.raises(ValidationError, match="8 paths need at least 9 sensors, got M=8"):
            svd_prony(corr, PronyConfig(num_modes=8))
        assert svd_prony(corr, PronyConfig(num_modes=7)).roots.shape == (7,)

    def test_default_prediction_order(self):
        # one third of the two-sided length wherever that holds the paths
        assert PronyConfig(num_modes=1).order(64) == (2 * 64 - 1) // 3
        assert PronyConfig(num_modes=42).order(64) == 42
        assert PronyConfig(num_modes=43).order(64) == 43

    @pytest.mark.parametrize("sensors", range(2, 11))
    @pytest.mark.parametrize("paths", range(1, 7))
    def test_order_is_derived_from_the_paths_and_sensors(self, paths, sensors):
        cfg = PronyConfig(num_modes=paths)
        if paths < sensors:
            assert cfg.order(sensors) == max(paths, (2 * sensors - 1) // 3)
        else:
            with pytest.raises(ValidationError) as info:
                cfg.order(sensors)
            assert str(info.value) == (
                f"{paths} paths need at least {paths + 1} sensors, got M={sensors}")

    @pytest.mark.parametrize("paths", range(1, 7))
    def test_default_order_error_names_the_fewest_sensors(self, paths):
        # L paths need L + 1 sensors; the order is then L, and the data hold the modes
        PronyConfig(num_modes=paths).order(paths + 1)
        with pytest.raises(ValidationError, match=f"need at least {paths + 1} sensors"):
            PronyConfig(num_modes=paths).order(paths)
        phases = np.linspace(-2.5, 2.5, paths)
        corr = sequence_from_modes(phases, np.ones(paths), num_lags=paths + 1)
        est = svd_prony(corr, PronyConfig(num_modes=paths))
        assert est.valid
        assert np.abs(np.sort(np.angle(est.roots)) - phases).max() < 1e-8

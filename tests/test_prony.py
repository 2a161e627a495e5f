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
        with pytest.warns(UserWarning, match="unit circle"):
            est = svd_prony(corr, PronyConfig(num_modes=3))
        assert not est.valid
        assert np.abs(np.sort(np.abs(est.roots)) - [0.9, 1.0, 1 / 0.9]).max() < 1e-10

    def test_too_few_modes_flag_invalid(self):
        corr = sequence_from_modes([0.5, 1.2], [1.0, 1.0], num_lags=32)
        with pytest.warns(UserWarning, match="unit circle"):
            assert not svd_prony(corr, PronyConfig(num_modes=1)).valid

    def test_exact_data_stays_valid(self, recwarn):
        corr = sequence_from_modes([-0.7, 0.4, 1.3], [1.0, 0.8, 1.5], num_lags=24)
        est = svd_prony(corr, PronyConfig(num_modes=3))
        assert est.valid and not est.clamped
        assert np.abs(np.abs(est.roots) - 1.0).max() < 1e-10
        assert len(recwarn) == 0

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
        assert est.valid and not est.clamped

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
        # phase increments recovered to 1e-8 at the default order T//3 and at (T-1)//2
        rng = np.random.default_rng(42)
        for _ in range(50):
            count = int(rng.integers(1, 5))
            phases = circular_separated_phases(rng, count)
            amps = rng.uniform(0.5, 2.0, count)
            corr = sequence_from_modes(phases, amps, num_lags=64)
            for order in ((2 * 64 - 1) // 3, (2 * 64 - 2) // 2):
                est = svd_prony(corr, PronyConfig(num_modes=count, prediction_order=order))
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
        snaps = synthesize(wave, paths, ArrayConfig(16, 0.5), FadingModel.rayleigh(),
                           num_snapshots=10, noise_var=1.0, seed=3)
        for corr in (estimate_correlation(snaps, select_band(spec, 0.1)),
                     sequence_from_modes([-0.7, 0.4], [1.0, 0.8], num_lags=48)):
            two_sided = corr.two_sided()
            assert np.array_equal(np.conj(two_sided[::-1]), two_sided)

    def test_aliasing_overshoot_warns_and_flags(self):
        # spacing 0.4 maps a 3.0 rad increment to |sin| = 1.19 > 1
        lags = np.arange(24)
        corr = CorrelationSequence(values=np.exp(3.0j * lags), spacing=0.4)
        with pytest.warns(UserWarning, match="overshoot"):
            est = svd_prony(corr, PronyConfig(num_modes=1))
        assert not est.valid
        assert est.clamped
        assert abs(est.sines[0]) <= 1.0

    def test_config_validation(self):
        corr = sequence_from_modes([0.5], [1.0], num_lags=8)
        with pytest.raises(ValidationError):
            svd_prony(corr, PronyConfig(num_modes=0))
        with pytest.raises(ValidationError):
            svd_prony(corr, PronyConfig(num_modes=2, prediction_order=1))
        with pytest.raises(ValidationError):
            svd_prony(corr, PronyConfig(num_modes=1, prediction_order=12))

    def test_default_prediction_order(self):
        corr = sequence_from_modes([0.5], [1.0], num_lags=64)
        cfg = PronyConfig(num_modes=1).resolved(64)
        assert cfg.prediction_order == (2 * 64 - 1) // 3

    @pytest.mark.parametrize("paths", range(1, 7))
    def test_default_order_error_names_the_fewest_sensors(self, paths):
        # (2M-1)//3 >= L first holds at M = ceil((3L+1)/2)
        fewest = -(-(3 * paths + 1) // 2)
        assert PronyConfig(num_modes=paths).resolved(fewest).prediction_order >= paths
        with pytest.raises(ValidationError) as info:
            PronyConfig(num_modes=paths).resolved(fewest - 1)
        message = str(info.value)
        assert f"default prediction_order (2M-1)//3 is {(2 * fewest - 3) // 3} " in message
        assert f"at M={fewest - 1} sensors; {paths} paths need at least {fewest} sensors" in message
        # the suggested order is one the array holds, so following it resolves
        suggestion = f", or set prediction_order={paths}"
        assert (suggestion in message) == (paths <= fewest - 2)
        if paths <= fewest - 2:
            PronyConfig(num_modes=paths, prediction_order=paths).resolved(fewest - 1)

    def test_explicit_order_error_has_no_hint(self):
        with pytest.raises(ValidationError) as info:
            PronyConfig(num_modes=2, prediction_order=1).resolved(64)
        assert str(info.value) == "need num_modes <= prediction_order, got 2 <= 1"

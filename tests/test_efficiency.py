"""Estimator efficiency: Monte-Carlo RMSE against the Cramér–Rao bound.

For a single path the Fisher matrix of (sin θ, τ) is diagonal, so each bound
has a closed form (Kay, *Estimation Theory*, 1993, ch. 3). Every bin of the
DFT carries circular white noise of variance N·σ², and each snapshot's
fading coefficient is a nuisance parameter whose phase absorbs the mean
phase slope, so the delay bound is

    CRB(τ) = N σ² / (2 · M · S · E|β|² · Σ_q |g_q|² (ω_q − ω̄)²)

with ω̄ the |g|²-weighted mean frequency, and the sin θ bound is the same
form over the aperture, with the sensor phases 2π·d·(k − k̄) in place of
ω_q − ω̄ and Σ_q |g_q|² in place of M. Both sums run over all N bins; the
estimator reads only the positive band, about half the pulse energy, so
its ratios sit above √2 even where it is efficient on that band.

For several paths the bound is the joint stochastic CRB of all (θ_l, τ_l),
with the path powers and the noise variance as nuisance parameters, by the
Slepian–Bangs formula (Stoica & Nehorai, "Performance study of conditional
and unconditional direction-of-arrival estimation", IEEE TASSP 1990).
"""

import numpy as np
import pytest

from jade import generate_pulse, monte_carlo, scenario_from_dict, spectrum
from jade.channel import delayed_pulse_spectrum, steering_vector
from jade.pulse import omega_grid

from conftest import fading_power


def single_path_crb(cfg):
    """√CRB of the one path of ``cfg``: (angle in degrees, delay in samples)."""
    cfg = cfg.resolved()
    (path,) = cfg.paths
    g = spectrum(generate_pulse(cfg.pulse))
    n, m = len(g), cfg.array.num_sensors
    power = np.abs(g) ** 2
    omega = omega_grid(n)
    # twice the signal-to-noise ratio of one (bin, sensor) cell per unit |g|^2, times S
    snr = 2 * cfg.num_snapshots * fading_power(cfg.fading) / (n * cfg.noise_var)
    omega_bar = (power * omega).sum() / power.sum()
    crb_delay = 1 / (snr * m * (power * (omega - omega_bar) ** 2).sum())
    phase = 2 * np.pi * cfg.array.spacing * (np.arange(m) - (m - 1) / 2)
    crb_sin = 1 / (snr * power.sum() * (phase**2).sum())
    angle = np.degrees(np.sqrt(crb_sin) / np.cos(np.radians(path.angle_deg)))
    return float(angle), float(np.sqrt(crb_delay))


def joint_crb(cfg):
    """√CRB of every path of ``cfg``: (angles in degrees, delays in samples).

    Per snapshot the D = N·M spectra are CN(0, R), R = V P Vᴴ + ν I, with
    v_l = (g ⊙ e^{−jωτ_l}) ⊗ a(θ_l), P = E|β|²·I and ν = N σ². The Fisher
    matrix of (θ, τ, P, ν) is F_ij = S·tr(R⁻¹R_i R⁻¹R_j). Every R_i but ν's
    lies in the span Q of [V, ∂V/∂θ, ∂V/∂τ], where R⁻¹ = Q C⁻¹ Qᴴ + (I − QQᴴ)/ν
    with C = QᴴRQ, so each trace is over r×r matrices; the rest of the space
    adds (D − r)/ν² to ν's own entry. No D×D matrix is formed.
    """
    cfg = cfg.resolved()
    g = spectrum(generate_pulse(cfg.pulse))
    n, m, num_paths = len(g), cfg.array.num_sensors, len(cfg.paths)
    angles = [p.angle_deg for p in cfg.paths]
    theta = np.radians(angles)
    f = delayed_pulse_spectrum(g, [p.delay for p in cfg.paths])  # (N, L)
    a = steering_vector(cfg.array, angles).T  # (M, L)
    d_a = 2j * np.pi * cfg.array.spacing * np.arange(m)[:, None] * np.cos(theta) * a
    d_f = -1j * omega_grid(n)[:, None] * f

    def columns(x, y):  # column l is x_l ⊗ y_l
        return (x[:, None, :] * y[None, :, :]).reshape(n * m, num_paths)

    signatures = [columns(f, a), columns(f, d_a), columns(d_f, a)]  # V, ∂V/∂θ, ∂V/∂τ
    q, _ = np.linalg.qr(np.hstack(signatures))
    r = q.shape[1]
    v, d_theta, d_tau = (q.conj().T @ x for x in signatures)  # coordinates in the span
    power, nu = fading_power(cfg.fading), n * cfg.noise_var
    c_inv = np.linalg.inv(power * v @ v.conj().T + nu * np.eye(r))
    derivatives = []  # ∂R/∂θ_l, ∂R/∂τ_l, ∂R/∂P_l, ∂R/∂ν, in the span
    for d in (d_theta, d_tau):
        for l in range(num_paths):
            half = power * np.outer(d[:, l], v[:, l].conj())
            derivatives.append(half + half.conj().T)
    derivatives += [np.outer(v[:, l], v[:, l].conj()) for l in range(num_paths)]
    derivatives.append(np.eye(r))
    whitened = [c_inv @ d for d in derivatives]
    fisher = np.array([[np.trace(x @ y).real for y in whitened] for x in whitened])
    fisher[-1, -1] += (n * m - r) / nu**2
    crb = np.diag(np.linalg.inv(cfg.num_snapshots * fisher))
    return np.degrees(np.sqrt(crb[:num_paths])), np.sqrt(crb[num_paths:2 * num_paths])


def one_path(**keys):
    return scenario_from_dict({"noise_var": 1, "angles_deg": "10", "delays": "3", **keys})


def test_closed_form_at_the_default_scenario():
    angle, delay = single_path_crb(one_path())
    assert angle == pytest.approx(0.00264, abs=5e-6)
    assert delay == pytest.approx(0.00186, abs=5e-6)


def test_joint_bound_of_one_path_is_the_closed_form():
    cfg = one_path()
    angles, delays = joint_crb(cfg)
    angle, delay = single_path_crb(cfg)
    assert angles[0] == pytest.approx(angle, rel=0.01)
    assert delays[0] == pytest.approx(delay, rel=0.01)


def test_joint_bound_of_paths_at_one_angle_is_finite():
    # the default delays 3 and 7 tell the two paths apart
    angles, delays = joint_crb(scenario_from_dict({"noise_var": 1, "angles_deg": "0,0"}))
    assert np.all(np.isfinite(angles)) and np.all(np.isfinite(delays))
    assert angles == pytest.approx([0.0026, 0.0026], abs=1e-4)
    assert delays == pytest.approx([0.0019, 0.0019], abs=1e-4)


# Upper bounds on RMSE/√CRB at M=16, S=50, noise_var=1, 40 trials from base
# seed 100. Measured over base seeds 1-5 and 100-1000: angle 1.74-2.95,
# delay 2.24-3.46 (3.46 at seed 100; at 40 trials the RMSE scatters by
# about ±11 %). Tighten these; never loosen them.
ANGLE_EFFICIENCY_BOUND = 3.5
DELAY_EFFICIENCY_BOUND = 4.0


def test_single_path_rmse_is_near_the_bound():
    cfg = one_path(sensors=16, snapshots=50, seed=100)
    mc = monte_carlo(cfg, trials=40)
    assert mc.num_failed == 0 and mc.num_flagged == 0
    angle, delay = single_path_crb(cfg)
    angle_ratio, delay_ratio = mc.angle_rmse_deg[0] / angle, mc.delay_rmse[0] / delay
    print(f"EFFICIENCY one path, M=16 S=50 noise_var=1, RMSE/sqrt(closed-form single-path CRB "
          f"over all N bins): angle {angle_ratio:.2f} (bound {ANGLE_EFFICIENCY_BOUND}), "
          f"delay {delay_ratio:.2f} (bound {DELAY_EFFICIENCY_BOUND})")
    # no unbiased estimator beats the bound; a ratio below 1 means the bound is wrong
    assert 1 < angle_ratio < ANGLE_EFFICIENCY_BOUND
    assert 1 < delay_ratio < DELAY_EFFICIENCY_BOUND


# Upper bounds on RMSE/√CRB of every path of a multi-path row above the SNR
# threshold, against joint_crb, 40 trials from base seed 100, noise_var=1.
# Measured with zero-forced beams over base seeds 1-5 and 100-1000, over the
# paths of each row (at 40 trials the RMSE scatters by about ±11 %):
# - paths at 0° and 1°: angle 3.27-5.50, delay 2.49-4.07;
# - both delays 5: angle 1.38-2.21, delay 1.93-3.46;
# - three paths on M=8: angle 2.09-3.88, delay 1.88-3.59.
# M=8, S=50, noise_var=3 sits in the threshold region and is not gated.
# Tighten these; never loosen them.
MULTI_PATH_ROWS = [
    pytest.param("paths at 0° and 1°", {"angles_deg": "0,1"}, 6.5, 5.0, id="angles-0-1"),
    pytest.param("both delays 5", {"delays": "5,5"}, 2.75, 4.0, id="delays-5-5"),
    pytest.param("three paths on M=8", {"sensors": 8, "angles_deg": "-30,0,25", "delays": "2,5,9"},
                 4.5, 4.25, id="three-paths-M8"),
]


@pytest.mark.parametrize("name, keys, angle_bound, delay_bound", MULTI_PATH_ROWS)
def test_multi_path_rmse_is_near_the_joint_bound(name, keys, angle_bound, delay_bound):
    cfg = scenario_from_dict({"noise_var": 1, "seed": 100, **keys})
    mc = monte_carlo(cfg, trials=40)
    assert mc.num_failed == 0 and mc.num_flagged == 0
    angles, delays = joint_crb(cfg)
    order = np.argsort([p.sin_angle for p in cfg.paths])  # the reports' path order
    angle_ratio = np.array(mc.angle_rmse_deg) / angles[order]
    delay_ratio = np.array(mc.delay_rmse) / delays[order]
    print(f"EFFICIENCY {name}, RMSE/sqrt(joint CRB over all N bins): "
          f"angle {' / '.join(f'{r:.2f}' for r in angle_ratio)} (bound {angle_bound}), "
          f"delay {' / '.join(f'{r:.2f}' for r in delay_ratio)} (bound {delay_bound})")
    assert np.all((1 < angle_ratio) & (angle_ratio < angle_bound))
    assert np.all((1 < delay_ratio) & (delay_ratio < delay_bound))

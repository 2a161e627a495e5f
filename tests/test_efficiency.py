"""Estimator efficiency: Monte-Carlo RMSE against the Cramér–Rao bound of one path.

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
"""

import numpy as np
import pytest

from jade import generate_pulse, monte_carlo, scenario_from_dict, spectrum
from jade.pulse import omega_grid


def single_path_crb(cfg):
    """√CRB of the one path of ``cfg``: (angle in degrees, delay in samples)."""
    cfg = cfg.resolved()
    (path,) = cfg.paths
    g = spectrum(generate_pulse(cfg.pulse))
    n, m = len(g), cfg.array.num_sensors
    power = np.abs(g) ** 2
    omega = omega_grid(n)
    # twice the signal-to-noise ratio of one (bin, sensor) cell per unit |g|^2, times S
    snr = 2 * cfg.num_snapshots * cfg.fading.mean_square() / (n * cfg.noise_var)
    omega_bar = (power * omega).sum() / power.sum()
    crb_delay = 1 / (snr * m * (power * (omega - omega_bar) ** 2).sum())
    phase = 2 * np.pi * cfg.array.spacing * (np.arange(m) - (m - 1) / 2)
    crb_sin = 1 / (snr * power.sum() * (phase**2).sum())
    angle = np.degrees(np.sqrt(crb_sin) / np.cos(np.radians(path.angle_deg)))
    return float(angle), float(np.sqrt(crb_delay))


def one_path(**keys):
    return scenario_from_dict({"noise_var": 1, "angles_deg": "10", "delays": "3", **keys})


def test_closed_form_at_the_default_scenario():
    angle, delay = single_path_crb(one_path())
    assert angle == pytest.approx(0.00264, abs=5e-6)
    assert delay == pytest.approx(0.00186, abs=5e-6)


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
    print(f"EFFICIENCY RMSE/sqrt(CRB over all bins): angle {angle_ratio:.2f}, "
          f"delay {delay_ratio:.2f}")
    # no unbiased estimator beats the bound; a ratio below 1 means the bound is wrong
    assert 1 < angle_ratio < ANGLE_EFFICIENCY_BOUND
    assert 1 < delay_ratio < DELAY_EFFICIENCY_BOUND

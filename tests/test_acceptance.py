"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) before asserting, so a full run yields a criterion-by-criterion
scoreboard.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from jade import (
    ArrayConfig,
    CorrelationSequence,
    FadingModel,
    PathParam,
    PronyConfig,
    default_scenario,
    estimate_correlation,
    generate_pulse,
    monte_carlo,
    run_pipeline,
    select_band,
    spectrum,
    svd_prony,
    synthesize,
)
from jade.pulse import omega_grid

TRIALS = 20
ANGLE_TARGETS = np.array([-10.0, 20.0])
SLOPE_TARGETS = np.array([-3.0, -7.0])


def gate(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def paper_trials():
    start = time.perf_counter()
    report = monte_carlo(default_scenario(), trials=TRIALS)
    elapsed = time.perf_counter() - start
    assert report.num_failed == 0
    return report, elapsed


def trial_matrix(report, key):
    return np.array([t[key] for t in report.trials])


def test_criterion_1_angle_reproduction(paper_trials):
    report, elapsed = paper_trials
    errors = np.abs(trial_matrix(report, "angle_errors_deg"))
    hits = int((errors <= 0.05).all(axis=1).sum())
    ok = hits >= 18 and elapsed < 10.0
    gate(
        1,
        "angle reproduction",
        ok,
        f"{hits}/{TRIALS} trials within 0.05 deg, worst {errors.max():.2e} deg, "
        f"{elapsed:.2f} s for {TRIALS} trials",
    )


def test_criterion_2_delay_reproduction(paper_trials):
    report, _ = paper_trials
    slopes = trial_matrix(report, "slope_median")
    errors = np.abs(slopes - SLOPE_TARGETS)
    within_040 = bool((errors <= 0.40).all())
    hits_015 = int((errors <= 0.15).all(axis=1).sum())
    ok = within_040 and hits_015 >= 18
    gate(
        2,
        "delay reproduction",
        ok,
        f"all within 0.40: {within_040}, {hits_015}/{TRIALS} within 0.15, "
        f"worst {errors.max():.2e}",
    )


def test_criterion_3_deterministic_exactness():
    cfg = replace(
        default_scenario(),
        paths=[PathParam(angle_deg=13.7, delay=2.5)],
        fading=FadingModel(kind="deterministic", beta=1.0),
        num_snapshots=4,
    )
    start = time.perf_counter()
    report = run_pipeline(cfg)
    elapsed = time.perf_counter() - start
    angle_err = abs(report.angles_est_deg[0] - 13.7)
    delay_err = abs(report.delay_median[0] - 2.5)
    ok = angle_err < 1e-4 and delay_err < 1e-6 and elapsed < 1.0
    gate(
        3,
        "deterministic exactness",
        ok,
        f"angle err {angle_err:.2e} deg, delay err {delay_err:.2e}, {elapsed:.3f} s",
    )


def test_criterion_4_prony_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        while True:
            phases = rng.uniform(-np.pi + 0.05, np.pi - 0.05, 3)
            gaps = np.abs(np.angle(np.exp(1j * (phases[:, None] - phases[None, :]))))
            if gaps[np.triu_indices(3, 1)].min() >= 0.1:
                break
        amps = rng.uniform(0.5, 2.0, 3)
        lags = np.arange(64)
        values = sum(g * np.exp(1j * p * lags) for g, p in zip(amps, phases))
        corr = CorrelationSequence(values=values, spacing=0.5)
        est = svd_prony(corr, PronyConfig(num_modes=3))
        err = np.abs(np.sort(np.angle(est.roots)) - np.sort(phases)).max()
        worst = max(worst, float(err))
    ok = worst < 1e-8
    gate(4, "prony oracle", ok, f"worst phase-increment error {worst:.2e} over 100 draws")


def test_criterion_5_structural_invariants():
    pulse_cfg = default_scenario().resolved().pulse
    wave = generate_pulse(pulse_cfg)
    spec = spectrum(wave)

    # Hermitian symmetry of the spectrum
    n = len(spec)
    q = np.arange(n)
    herm = np.abs(spec[(n - q) % n] - np.conj(spec)).max()
    herm_rel = herm / np.abs(spec).max()

    # shift theorem
    shifted = spectrum(np.roll(wave, 5))
    shift_dev = (
        np.abs(shifted - spec * np.exp(-1j * omega_grid(len(spec)) * 5)).max()
        / np.abs(spec).max()
    )

    # correlation lag structure on real data
    snaps = synthesize(
        wave,
        [PathParam(-10.0, 3.0), PathParam(20.0, 7.0)],
        ArrayConfig(16, 0.5),
        FadingModel(kind="rayleigh", sigma=1.0),
        20,
        0.0,
        seed=5,
    )
    corr = estimate_correlation(snaps, select_band(spec, 0.1))
    c0_exact = corr.values[0].imag == 0.0 and corr.values[0].real >= 0.0
    two = corr.two_sided()
    herm_lags = bool(np.array_equal(two[: corr.num_lags - 1],
                                    np.conj(two[: corr.num_lags - 1 : -1])))

    ok = (
        herm_rel < 1e-12
        and shift_dev < 1e-10
        and c0_exact
        and herm_lags
    )
    gate(
        5,
        "structural invariants",
        ok,
        f"hermitian {herm_rel:.1e}, shift {shift_dev:.1e}, c0 exact {c0_exact}, "
        f"lag symmetry {herm_lags}",
    )


def test_criterion_6_matched_beamformer_magnitude():
    from jade import beamform

    scenario = default_scenario().resolved()
    wave = generate_pulse(scenario.pulse)
    spec = spectrum(wave)
    snaps = synthesize(
        wave,
        [PathParam(20.0, 7.0)],
        scenario.array,
        FadingModel(kind="deterministic", beta=1.0),
        1,
        0.0,
        seed=1,
    )
    bf = beamform(snaps, [np.sin(np.radians(20.0))])
    dev = np.abs(np.abs(bf[0, 0]) - np.abs(spec)).max() / np.abs(spec).max()
    ok = dev < 1e-10
    gate(6, "matched beamformer magnitude identity", ok, f"max relative deviation {dev:.2e}")


@pytest.mark.parametrize(
    "label,fading",
    [
        # K = nu^2 / (2 sigma^2) = 5 at E|beta|^2 = 2
        ("rician K=5", FadingModel(kind="rician", nu=1.2909944487358056, sigma=0.408248290463863)),
        ("suzuki std_db=6", FadingModel(kind="suzuki", sigma=1.0, mean_db=0.0, std_db=6.0)),
    ],
)
def test_criterion_7_distribution_robustness(label, fading):
    cfg = replace(default_scenario(), fading=fading)
    report = monte_carlo(cfg, trials=TRIALS)
    assert report.num_failed == 0
    angle_err = np.abs(trial_matrix(report, "angle_errors_deg"))
    slope_err = np.abs(trial_matrix(report, "slope_median") - SLOPE_TARGETS)
    angle_hits = int((angle_err <= 0.2).all(axis=1).sum())
    slope_hits = int((slope_err <= 0.3).all(axis=1).sum())
    ok = angle_hits >= 18 and slope_hits >= 18
    gate(
        7,
        f"distribution robustness ({label})",
        ok,
        f"angles {angle_hits}/{TRIALS} within 0.2 deg, slopes {slope_hits}/{TRIALS} "
        f"within 0.3; worst {angle_err.max():.2e} deg / {slope_err.max():.2e}",
    )


def test_criterion_8_snapshot_convergence():
    rmses = []
    for snapshots in (50, 200, 800):
        cfg = replace(default_scenario(), num_snapshots=snapshots)
        report = monte_carlo(cfg, trials=12)
        assert report.num_failed == 0
        err = trial_matrix(report, "angle_errors_deg")
        rmses.append(float(np.sqrt((err**2).mean())))
    ratio = rmses[2] / rmses[0]
    ok = rmses[0] > rmses[1] > rmses[2] and ratio < 0.6
    gate(
        8,
        "snapshot convergence",
        ok,
        f"rmse {rmses[0]:.2e} -> {rmses[1]:.2e} -> {rmses[2]:.2e} deg, "
        f"S=800/S=50 ratio {ratio:.3f}",
    )

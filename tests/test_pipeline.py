import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jade import (
    ArrayConfig,
    EstimationError,
    FadingModel,
    PathParam,
    PronyConfig,
    PulseConfig,
    RunReport,
    ScenarioConfig,
    ValidationError,
    default_scenario,
    generate_pulse,
    monte_carlo,
    run_pipeline,
    scenario_from_dict,
    synthesize,
)
from jade.pipeline import CONFIG_KEYS, _estimate, estimate, read_config, trial_seed


def small_scenario(**kw):
    # built from keys, so its pulse draws its bits from seed 3
    base = scenario_from_dict({"seed": 3})
    fields = dict(
        array=ArrayConfig(16, 0.5),
        num_snapshots=20,
    )
    fields.update(kw)
    return replace(base, **fields)


def peak_over_half_set(call, cfg) -> float:
    """The tracemalloc peak of ``call(cfg)``, after a warm-up call, over the size of the
    set a run holds: bins 0..N/2 of every snapshot and sensor (13.31 MB at the default)."""
    half_set = 16 * (cfg.pulse.num_samples // 2 + 1) * cfg.num_snapshots * cfg.array.num_sensors
    call(cfg)  # warm up
    tracemalloc.start()
    try:
        call(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / half_set


class TestRunPipeline:
    def test_default_scenario_seed1(self):
        report = run_pipeline(default_scenario())
        assert abs(report.angles_est_deg[0] - (-10.0)) < 0.05
        assert abs(report.angles_est_deg[1] - 20.0) < 0.05
        assert abs(report.slope_median[0] - (-3.0)) < 0.15
        assert abs(report.slope_median[1] - (-7.0)) < 0.15
        assert report.estimate_valid
        assert report.angles_true_deg == [-10.0, 20.0]
        assert report.delays_true == [3.0, 7.0]

    def test_single_deterministic_path_exact(self):
        cfg = replace(
            default_scenario(),
            paths=[PathParam(angle_deg=13.7, delay=2.5)],
            fading=FadingModel(kind="deterministic", beta=1.0),
            num_snapshots=4,
        )
        report = run_pipeline(cfg)
        assert abs(report.angles_est_deg[0] - 13.7) < 1e-4
        assert abs(report.delay_median[0] - 2.5) < 1e-6

    def test_rejects_empty_paths(self):
        cfg = replace(default_scenario(), paths=[])
        with pytest.raises(ValidationError):
            run_pipeline(cfg)

    def test_stage_name_in_estimation_error(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic numerical failure")

        monkeypatch.setattr("jade.pipeline.svd_prony", boom)
        with pytest.raises(EstimationError, match=r"\[prony\]"):
            run_pipeline(small_scenario())

    def test_byte_identical_reports(self):
        cfg = small_scenario()
        a = run_pipeline(cfg).to_json()
        b = run_pipeline(cfg).to_json()
        assert a == b

    def test_timing_excluded_by_default(self):
        report = run_pipeline(small_scenario())
        parsed = json.loads(report.to_json())
        assert "timing_s" not in parsed
        assert "timing_s" in json.loads(report.to_json(include_timing=True))
        assert report.timing_s > 0

    def test_config_echo_regenerates_run(self):
        report = run_pipeline(small_scenario())
        echoed = scenario_from_dict(json.loads(report.to_json())["config"])
        again = run_pipeline(echoed)
        assert again.to_json() == report.to_json()

    def test_retained_report_is_small(self):
        # a caller that keeps many reports (a benchmark loop, a sweep) keeps
        # only what a report holds once its artifacts are dropped
        run_pipeline(default_scenario())  # warm up
        tracemalloc.start()
        try:
            report = run_pipeline(default_scenario())
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.artifacts is None
        assert held < 10_000

    def test_peak_memory_is_near_one_snapshot_set(self):
        # a run holds the half set (bins 0..N/2) and little beside it, and drops
        # it before the delay stage
        ratio = peak_over_half_set(run_pipeline, default_scenario())
        assert ratio < 1.10, f"peak is {ratio:.3f} x the half set"

    def test_leaves_numpy_ma_unimported(self):
        # np.median imports numpy.ma, which then stays resident (about 1.2 MB);
        # numpy < 2 imports numpy.ma with numpy itself, so there is nothing to save
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, numpy; print('numpy.ma' in sys.modules); "
                "from dataclasses import replace; import jade; "
                "cfg = jade.default_scenario(); jade.run_pipeline(cfg); "
                "jade.run_pipeline(replace(cfg, noise_var=1.0)); "
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)})
        with_numpy, after_runs = out.stdout.split()
        if with_numpy == "True":
            pytest.skip("import numpy already imports numpy.ma")
        assert after_runs == "False", "run_pipeline imported numpy.ma"

    @pytest.mark.parametrize(
        "paths",
        [{}, {"angles_deg": "-30,0,25", "delays": "-2.5,1.25,6.75", "sensors": 24}],
        ids=["default", "three-paths-M24"],
    )
    def test_path_order_does_not_change_the_estimates(self, paths):
        # Deterministic fading and no noise: Rayleigh draws its betas in path
        # order, so reordering its paths would change the channel itself.
        cfg = scenario_from_dict({**paths, "fading": "deterministic"})
        forward = run_pipeline(cfg)
        backward = run_pipeline(replace(cfg, paths=cfg.paths[::-1]))
        assert np.abs(np.subtract(forward.angles_est_deg, backward.angles_est_deg)).max() < 1e-9
        assert np.abs(np.subtract(forward.slope_median, backward.slope_median)).max() < 1e-9

    @pytest.mark.parametrize("noise_var", [0.0, 0.5], ids=["noiseless", "noisy"])
    def test_report_equals_estimate_on_the_full_set(self, noise_var):
        # the half set run_pipeline synthesizes gives the report of the full set
        cfg = small_scenario(noise_var=noise_var)
        wave = generate_pulse(cfg.pulse)
        full = synthesize(wave, cfg.paths, cfg.array, cfg.fading, cfg.num_snapshots,
                          cfg.noise_var, cfg.seed)
        report = estimate(full, cfg)
        expected = replace(
            report,
            config=cfg.to_dict(),
            angles_true_deg=[-10.0, 20.0],
            delays_true=[3.0, 7.0],
            angle_errors_deg=(np.asarray(report.angles_est_deg) - [-10.0, 20.0]).tolist(),
            delay_errors=(np.asarray(report.delay_median) - [3.0, 7.0]).tolist(),
        )
        assert run_pipeline(cfg).to_json() == expected.to_json()

    def test_synthesizes_only_the_non_negative_bins(self, monkeypatch):
        held = []

        def capture(*args, **kwargs):
            snaps = synthesize(*args, **kwargs)
            held.append(snaps.bins.shape)
            return snaps

        monkeypatch.setattr("jade.pipeline.synthesize", capture)
        run_pipeline(small_scenario())
        run_pipeline(small_scenario(noise_var=1.0))
        assert held == [(65, 20, 16)] * 2

    def test_artifacts_only_on_request(self):
        cfg = small_scenario()
        assert run_pipeline(cfg).artifacts is None
        report = run_pipeline(cfg, keep_artifacts=True)
        assert report.artifacts is not None
        assert report.artifacts.delays.objective.shape == (len(cfg.paths), 2 * 128)

    def test_a_clipped_sine_reads_as_90_degrees(self):
        # noise takes the pencil's sine for the path at 89.9 degrees to 1.001; it is
        # clipped to 1, which reads as exactly 90, and the overshoot flags the fit
        cfg = scenario_from_dict({"sensors": 16, "snapshots": 50, "noise_var": 1, "spacing": 0.4,
                                  "angles_deg": "0,89.9", "delays": "3,7", "seed": 1})
        report = json.loads(run_pipeline(cfg).to_json())
        assert 90.0 in np.abs(report["angles_est_deg"])
        assert report["estimate_valid"] is False

    def test_the_angles_carry_the_pencil_sines(self):
        report = run_pipeline(default_scenario(), keep_artifacts=True)
        sines = np.sin(np.radians(report.angles_est_deg))
        assert np.abs(sines - report.artifacts.modes.sines).max() <= 2e-16

    def test_each_report_is_built_once(self, monkeypatch):
        # a replace() calls __init__ too, so this counts rebuilt reports; a Monte
        # Carlo trial copies its fields and builds none
        calls = {"n": 0}
        real_init = RunReport.__init__

        def counting(report, **kwargs):
            calls["n"] += 1
            real_init(report, **kwargs)

        monkeypatch.setattr(RunReport, "__init__", counting)
        cfg = small_scenario(num_snapshots=5)
        run_pipeline(cfg)
        assert calls["n"] == 1
        calls["n"] = 0
        snaps = synthesize(generate_pulse(cfg.pulse), cfg.paths, cfg.array, cfg.fading,
                           cfg.num_snapshots, cfg.noise_var, cfg.seed)
        estimate(snaps, cfg)
        assert calls["n"] == 1
        calls["n"] = 0
        monte_carlo(cfg, trials=3)
        assert calls["n"] == 0

    @pytest.mark.parametrize("key", ["config", "timing_s"])
    def test_a_report_needs_its_config_and_timing(self, key):
        kwargs = dict(vars(run_pipeline(small_scenario(num_snapshots=5))))
        RunReport(**kwargs)
        del kwargs[key]
        with pytest.raises(TypeError, match=key):
            RunReport(**kwargs)


class TestEstimate:
    def full_and_half(self, cfg):
        wave = generate_pulse(cfg.pulse)
        return [synthesize(wave, cfg.paths, cfg.array, cfg.fading, cfg.num_snapshots,
                           cfg.noise_var, cfg.seed, half=half) for half in (False, True)]

    @pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
    def test_rejects_a_pulse_of_another_length(self, half):
        # a 136-sample pulse on a 128-bin set used to return delays 3.44 / 7.69
        # (truth 3 / 7) with estimate_valid true
        cfg = small_scenario()
        sets = self.full_and_half(cfg)
        other = replace(cfg, pulse=replace(cfg.pulse, symbol_count=34))
        with pytest.raises(ValidationError, match="does not fit a pulse of N=136"):
            estimate(sets[half], other)

    @pytest.mark.parametrize("noise_var", [0.0, 0.5], ids=["noiseless", "noisy"])
    def test_a_half_set_gives_the_report_of_the_full_set(self, noise_var):
        cfg = small_scenario(noise_var=noise_var)
        full, half = self.full_and_half(cfg)
        assert half.half and half.num_samples == 65
        assert estimate(half, cfg).to_json() == estimate(full, cfg).to_json()

    def test_a_pulse_without_bits_takes_the_scenario_seed(self):
        # built with neither bits nor bits_seed, the pulse draws its bits from the
        # scenario seed 3; bit seed 0 would give delays 3.384 / 7.542 here
        base = default_scenario()
        cfg = ScenarioConfig(PulseConfig(0.35, 0.25, 32, 4), ArrayConfig(16, 0.5), base.paths,
                             base.fading, num_snapshots=50, noise_var=1.0, band_threshold=0.1,
                             seed=3)
        assert cfg.pulse.bits_seed == cfg.seed == 3
        full, _ = self.full_and_half(cfg)
        report = estimate(full, cfg)
        assert report.config["bits_seed"] == 3
        assert np.round(report.delay_median, 3).tolist() == [3.007, 7.011]

    def test_the_stages_read_a_view_of_bins_0_to_n_half(self, monkeypatch):
        cfg = small_scenario()
        full, _ = self.full_and_half(cfg)
        read = []

        def capture(snaps, *args):
            read.append(snaps)
            return _estimate(snaps, *args)

        monkeypatch.setattr("jade.pipeline._estimate", capture)
        estimate(full, cfg)
        assert read[0].bins.shape == (65, 20, 16) and read[0].half
        assert np.shares_memory(read[0].bins, full.bins)

    def test_a_complex64_set_gives_the_angles_of_the_complex128_set(self):
        # read as float64 pairs, these complex64 bins gave angles of -46.48 / 13.47
        # degrees (truth -10 / 20)
        cfg = small_scenario(noise_var=1.0)
        full, _ = self.full_and_half(cfg)
        single = replace(full, bins=full.bins.astype(np.complex64))
        angles = estimate(full, cfg).angles_est_deg
        assert np.abs(np.subtract(estimate(single, cfg).angles_est_deg, angles)).max() < 0.01


class TestMonteCarlo:
    def test_single_trial_matches_direct_run(self):
        cfg = small_scenario()
        mc = monte_carlo(cfg, trials=1)
        # trials share the base config's pulse bits; only the
        # fading/noise seed is re-derived per trial
        direct = run_pipeline(replace(cfg, seed=trial_seed(cfg.seed, 0)))
        # every key of the trial but its index, seed and status is the report's
        entry = mc.trials[0]
        fields = set(entry) - {"trial", "seed", "ok"}
        assert "delay_median" in fields and "angles_est_deg" in fields
        assert {k: entry[k] for k in fields} == {k: direct.to_dict()[k] for k in fields}
        assert mc.num_failed == 0
        assert mc.angle_rmse_deg == [abs(e) for e in direct.angle_errors_deg]

    def test_peak_memory_is_near_one_snapshot_set(self):
        # a trial frees its set before the next trial synthesizes one, and a trial
        # entry keeps only a few numbers
        ratio = peak_over_half_set(lambda cfg: monte_carlo(cfg, trials=2), default_scenario())
        assert ratio < 1.10, f"peak is {ratio:.3f} x the half set"

    def test_four_trial_delay_table(self):
        mc = monte_carlo(small_scenario(), trials=4)
        table = np.array([t["slope_median"] for t in mc.trials])
        assert table.shape == (4, 2)
        assert np.abs(table - [-3.0, -7.0]).max() < 0.4

    def test_flagged_trials_are_counted(self):
        # below the SNR threshold most trials run to the end but are flagged
        noisy = monte_carlo(small_scenario(num_snapshots=50, noise_var=100.0), trials=20)
        flagged = sum(not t["estimate_valid"] for t in noisy.trials if t["ok"])
        assert noisy.num_failed == 0
        assert noisy.num_flagged == flagged > 0
        assert list(noisy.to_dict())[3:6] == ["num_trials", "num_failed", "num_flagged"]
        assert monte_carlo(default_scenario(), trials=2).num_flagged == 0

    def test_delays_hold_on_a_small_noisy_array(self):
        # the benchmark's mc_small_noisy scenario: the per-snapshot phase-slope
        # fit this estimator replaced had a delay RMSE of 1.36 / 3.06 samples here
        cfg = scenario_from_dict({"sensors": 16, "snapshots": 50, "noise_var": 1, "seed": 100})
        mc = monte_carlo(cfg, trials=20)
        assert mc.num_failed == 0
        assert max(mc.delay_rmse) < 0.1

    def test_trial_seeds_differ_and_are_deterministic(self):
        seeds = [trial_seed(1, t) for t in range(6)]
        assert len(set(seeds)) == 6
        assert seeds == [trial_seed(1, t) for t in range(6)]

    def test_failed_trials_reported_and_excluded(self, monkeypatch):
        from jade.prony import svd_prony as real_svd_prony

        calls = {"n": 0}

        def flaky(corr, cfg):
            calls["n"] += 1
            if calls["n"] == 2:
                raise EstimationError("prony", "injected failure")
            return real_svd_prony(corr, cfg)

        monkeypatch.setattr("jade.pipeline.svd_prony", flaky)
        mc = monte_carlo(small_scenario(num_snapshots=10), trials=3)
        assert mc.num_failed == 1
        assert mc.trials[1]["ok"] is False
        assert "injected failure" in mc.trials[1]["error"]
        ok = [t for t in mc.trials if t["ok"]]
        assert len(ok) == 2
        err = np.array([t["angle_errors_deg"] for t in ok])
        assert mc.angle_rmse_deg == pytest.approx(np.sqrt((err**2).mean(axis=0)).tolist())

    def test_rmse_improves_with_snapshots(self):
        rmses = []
        for s_count in (100, 400):
            mc = monte_carlo(small_scenario(num_snapshots=s_count), trials=8)
            rmses.append(float(np.sqrt(np.mean(np.array(
                [t["angle_errors_deg"] for t in mc.trials]) ** 2))))
        assert rmses[1] < rmses[0]

    def test_pulse_config_is_checked_once_per_run(self, monkeypatch):
        # each setting is checked by the stage that reads it, and the pulse is made once
        calls = {"n": 0}
        real_validate = PulseConfig.validate

        def counting(pulse_cfg):
            calls["n"] += 1
            real_validate(pulse_cfg)

        monkeypatch.setattr(PulseConfig, "validate", counting)
        cfg = small_scenario(num_snapshots=5)
        run_pipeline(cfg)
        assert calls["n"] == 1
        calls["n"] = 0
        monte_carlo(cfg, trials=10)
        assert calls["n"] == 1

    def test_pulse_is_generated_once_per_run(self, monkeypatch):
        calls = {"n": 0}

        def counting(pulse_cfg):
            calls["n"] += 1
            return generate_pulse(pulse_cfg)

        monkeypatch.setattr("jade.pipeline.generate_pulse", counting)
        monte_carlo(small_scenario(num_snapshots=5), trials=10)
        assert calls["n"] == 1

    def test_config_echo_is_built_once_per_trial(self, monkeypatch):
        # only the code that emits a report echoes its config: no trial builds one
        calls = {"n": 0}
        real_to_dict = ScenarioConfig.to_dict

        def counting(cfg):
            calls["n"] += 1
            return real_to_dict(cfg)

        monkeypatch.setattr(ScenarioConfig, "to_dict", counting)
        cfg = small_scenario(num_snapshots=5)
        run_pipeline(cfg)
        assert calls["n"] == 1
        calls["n"] = 0
        monte_carlo(cfg, trials=10)
        assert calls["n"] == 1

    def test_rejects_bad_trial_count(self):
        # a count that is not an integer is the same typed error as one below 1
        for trials in (0, 2.5, "3", True):
            with pytest.raises(ValidationError, match="trials must be an integer >= 1"):
                monte_carlo(small_scenario(), trials=trials)

    def test_numpy_trial_count_gives_a_serializable_report(self):
        report = monte_carlo(small_scenario(num_snapshots=5), trials=np.int64(2))
        assert json.loads(report.to_json())["num_trials"] == 2


class TestConfigHandling:
    def test_defaults_match_shipped_scenario(self):
        # the defaults of the README's config table
        assert default_scenario().to_dict() == {
            "schema": 1, "rolloff": 0.35, "carrier_freq": 0.25, "symbols": 32,
            "oversample": 4, "bits_seed": 1, "sensors": 64, "spacing": 0.5,
            "angles_deg": [-10.0, 20.0], "delays": [3.0, 7.0], "fading": "rayleigh",
            "sigma": 1.0, "snapshots": 200, "noise_var": 0.0, "band_threshold": 0.1,
            "seed": 1,
        }
        assert default_scenario().prony == PronyConfig(num_modes=2)

    def test_replacing_the_seed_keeps_the_pulse(self):
        # the pulse took its bit seed from the seed the scenario was built with
        cfg = default_scenario()
        assert cfg.pulse.bits_seed == cfg.seed == 1
        assert replace(cfg, seed=5).pulse == cfg.pulse

    def test_readme_config_table_names_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Config file", 1)[1].split("\n## ", 1)[0]
        first_cells = [line.split("|")[1] for line in section.splitlines()
                       if line.startswith("| `")]
        documented = {key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)}
        assert documented == set(CONFIG_KEYS) - {"schema"}

    @pytest.mark.parametrize("key,value", [
        ("sensors", 16.9), ("snapshots", 50.5), ("bits_seed", 2.5), ("seed", True),
        ("sensors", np.True_), ("sensors", float("inf")), ("noise_var", True),
        ("angles_deg", [True, 20.0]),
    ])
    def test_numeric_keys_reject_fractions_and_bools(self, key, value):
        # an integer key never truncates, and a bool is not a number
        with pytest.raises(ValidationError, match=f"^{key}: expected"):
            scenario_from_dict({key: value})

    def test_a_1d_array_parses_as_a_list(self):
        cfg = scenario_from_dict({"angles_deg": np.array([-10.0, 20.0]), "delays": np.array([3, 7])})
        assert [(p.angle_deg, p.delay) for p in cfg.paths] == [(-10.0, 3.0), (20.0, 7.0)]

    def test_integral_numbers_parse_as_integers(self):
        for value in (32.0, np.int64(32), "32"):
            assert scenario_from_dict({"symbols": value}).pulse.symbol_count == 32

    def test_load_config_file(self, tmp_path):
        text = """
        # reference scenario with a smaller array
        schema = 1
        rolloff = 0.35
        carrier_freq = 0.25
        symbols = 32
        oversample = 4
        sensors = 32
        spacing = 0.5
        angles_deg = -10, 20
        delays = 3, 7
        fading = rayleigh
        sigma = 1.0
        snapshots = 50   # keep it quick
        seed = 7
        """
        path = tmp_path / "scenario.cfg"
        path.write_text("\n".join(line.strip() for line in text.strip().splitlines()))
        cfg = scenario_from_dict(read_config(path))
        assert cfg.array.num_sensors == 32
        assert cfg.num_snapshots == 50
        assert cfg.seed == 7
        assert [p.angle_deg for p in cfg.paths] == [-10.0, 20.0]
        assert [p.delay for p in cfg.paths] == [3.0, 7.0]

    def test_explicit_bits_round_trip(self):
        bits = [0, 1] * 16
        cfg = replace(default_scenario(), pulse=PulseConfig(0.35, 0.25, 32, 4, bits=bits))
        echoed = scenario_from_dict(cfg.to_dict())
        assert list(echoed.pulse.bits) == bits

    def test_bits_seed_beside_bits_rejected(self):
        with pytest.raises(ValidationError, match="bits_seed"):
            scenario_from_dict({"bits": "01" * 16, "bits_seed": 5})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown config keys"):
            scenario_from_dict({"carrier": 0.25})
        # the mode count is always the path count, not a config key
        with pytest.raises(ValidationError, match="unknown config keys"):
            scenario_from_dict({"modes": 2})

    def test_unsupported_schema_rejected(self):
        with pytest.raises(ValidationError, match="schema"):
            scenario_from_dict({"schema": 2})

    def test_mismatched_path_lists_rejected(self):
        with pytest.raises(ValidationError):
            scenario_from_dict({"angles_deg": "-10,20", "delays": "3"})

    def test_a_key_set_twice_rejected(self, tmp_path):
        # the file's later value does not silently win
        path = tmp_path / "dup.cfg"
        path.write_text("seed = 1\n# a comment\n seed=2 \n")
        with pytest.raises(ValidationError, match=r"dup\.cfg:3: seed is set again$"):
            read_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rolloff 0.35\n")
        with pytest.raises(ValidationError):
            scenario_from_dict(read_config(path))

    def test_fading_kinds_round_trip(self):
        for kind, extra in [
            ("deterministic", {"beta_re": 0.5, "beta_im": -0.5}),
            ("rician", {"nu": 1.2, "sigma": 0.4}),
            ("suzuki", {"sigma": 0.9, "mean_db": -1.0, "std_db": 4.0}),
        ]:
            raw = {"fading": kind, **extra}
            cfg = scenario_from_dict(raw)
            assert cfg.fading.kind == kind
            again = scenario_from_dict(cfg.to_dict())
            assert again.fading == cfg.fading

    def test_fading_defaults_match_the_model_constructors(self):
        for kind in FadingModel._KINDS:
            assert scenario_from_dict({"fading": kind}).fading == FadingModel(kind=kind)

    @pytest.mark.parametrize(
        "kind,key",
        [("rayleigh", "nu"), ("suzuki", "nu"), ("rayleigh", "mean_db"), ("rician", "std_db"),
         ("rayleigh", "beta_re"), ("suzuki", "beta_im"), ("deterministic", "sigma"),
         ("deterministic", "nu")],
    )
    def test_parameter_of_another_fading_kind_rejected(self, kind, key):
        with pytest.raises(ValidationError, match=f"{key} is not a parameter of {kind} fading"):
            scenario_from_dict({"fading": kind, key: 1.0})

    def test_prony_settings_follow_the_paths(self):
        three = [PathParam(-30.0, 2.0), PathParam(0.0, 5.0), PathParam(25.0, 9.0)]
        again = replace(default_scenario(), paths=three)
        assert again.prony == PronyConfig(num_modes=3)
        assert again.prony.order(64) == (2 * 64 - 1) // 3

    def test_synthesize_and_scenario_share_their_checks(self):
        cfg = replace(default_scenario(), num_snapshots=0)
        with pytest.raises(ValidationError) as from_scenario:
            run_pipeline(cfg)
        with pytest.raises(ValidationError) as from_monte_carlo:
            monte_carlo(cfg, trials=2)
        with pytest.raises(ValidationError) as from_synthesize:
            synthesize(generate_pulse(cfg.pulse), cfg.paths, cfg.array, cfg.fading, 0)
        message = "snapshots must be >= 1, got 0"
        assert str(from_scenario.value) == str(from_synthesize.value) == message
        assert str(from_monte_carlo.value) == message

    def test_scenario_validation(self):
        cases = [({"num_snapshots": 0}, "snapshots must be >= 1"),
                 ({"band_threshold": 1.0}, r"band_threshold must be in \[0, 1\)")]
        for fields, message in cases:
            cfg = replace(default_scenario(), **fields)
            with pytest.raises(ValidationError, match=message):
                run_pipeline(cfg)
            with pytest.raises(ValidationError, match=message):
                monte_carlo(cfg, trials=2)
        # the seed is checked when the scenario is built
        with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
            replace(default_scenario(), seed=-1)

    @pytest.mark.parametrize(
        "prony,ok",
        [({"paths": 7}, True),
         ({"paths": 8}, False),
         ({"paths": 12}, False),
         ({"sensors": 2}, False)],  # the default two paths
    )
    def test_prony_settings_must_fit_the_array(self, prony, ok):
        # 8 sensors give 2*8-1 lags: the pencil order is at most 7, and it is at least L
        sensors, paths = prony.get("sensors", 8), prony.get("paths", 2)
        cfg = replace(default_scenario(), array=ArrayConfig(sensors, 0.5), num_snapshots=5,
                      paths=[PathParam(-60.0 + 10.0 * i, 0.5 * i) for i in range(paths)])
        if ok:
            assert cfg.prony.order(sensors) == paths
            run_pipeline(cfg)
        else:
            message = f"{paths} paths need at least {paths + 1} sensors, got M={sensors}"
            with pytest.raises(ValidationError, match=message):
                cfg.prony.order(sensors)
            with pytest.raises(ValidationError, match=message):
                run_pipeline(cfg)

    @pytest.mark.parametrize(
        "sensors,paths,ok",
        [(2, 1, True), (2, 2, False), (3, 3, False), (5, 3, True), (4, 3, True)],
    )
    def test_default_prony_settings_must_fit_the_array(self, sensors, paths, ok):
        # the derived order max(L, (2M-1)//3) holds every path on more sensors than paths
        cfg = small_scenario(array=ArrayConfig(sensors, 0.5), num_snapshots=3,
                             paths=[PathParam(10.0 * i, float(i)) for i in range(paths)])
        if ok:
            cfg.prony.order(sensors)
            assert monte_carlo(cfg, trials=1).num_trials == 1
        else:
            with pytest.raises(ValidationError, match=f"need at least {paths + 1} sensors"):
                cfg.prony.order(sensors)
            with pytest.raises(ValidationError, match=f"need at least {paths + 1} sensors"):
                monte_carlo(cfg, trials=2)

    def test_odd_symbol_count_fails_monte_carlo_as_a_whole(self):
        cfg = small_scenario(pulse=replace(default_scenario().pulse, symbol_count=7))
        with pytest.raises(ValidationError, match="even"):
            monte_carlo(cfg, trials=2)

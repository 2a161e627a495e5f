import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from jade import EstimationError, default_scenario, generate_pulse, scenario_from_dict, spectrum
from jade.cli import main


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


SMALL = ["--set", "sensors=16", "--set", "snapshots=20", "--seed", "3"]


class TestPulseCommand:
    def test_writes_waveform_and_spectrum(self, tmp_path):
        assert main(["pulse", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "pulse_waveform.csv")
        assert header == ["t", "g"]
        assert len(rows) == 128
        t = np.array([float(r[0]) for r in rows])
        g = np.array([float(r[1]) for r in rows])
        assert t[0] == -16.0 and np.isfinite(g).all()

        header, rows = read_csv(tmp_path / "pulse_spectrum.csv")
        assert header == ["omega", "magnitude", "phase"]
        omega, magnitude, phase = np.array(rows, dtype=float).T
        assert len(rows) == 128
        assert np.all(np.diff(omega) > 0)  # sorted for plotting
        # every bin's magnitude and principal phase, bin q at omega = 2*pi*q/N
        bins = np.rint(omega * 128 / (2 * np.pi)).astype(int) % 128
        g = spectrum(generate_pulse(default_scenario().pulse))
        assert np.array_equal(magnitude, np.abs(g)[bins])
        assert np.array_equal(phase, np.angle(g)[bins])

    def test_ignores_the_keys_only_synthesis_reads(self, tmp_path):
        assert main(["pulse", "--out", str(tmp_path / "a")]) == 0
        assert main(["pulse", "--set", "noise_var=-1", "--out", str(tmp_path / "b")]) == 0
        for name in ("pulse_waveform.csv", "pulse_spectrum.csv"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    def test_ignores_the_estimation_keys(self, tmp_path):
        # the pulse CSVs hold no estimation stage, so a band_threshold no run accepts is not read
        assert main(["pulse", "--out", str(tmp_path / "a")]) == 0
        assert main(["pulse", "--set", "band_threshold=2", "--out", str(tmp_path / "b")]) == 0
        for name in ("pulse_waveform.csv", "pulse_spectrum.csv"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    def test_writes_the_pulse_that_run_transmits(self, tmp_path):
        # the bits follow the scenario seed, as in `jade run` and `jade simulate`
        assert main(["pulse", "--out", str(tmp_path / "a")]) == 0
        assert main(["pulse", "--seed", "7", "--out", str(tmp_path / "b")]) == 0
        _, rows = read_csv(tmp_path / "a" / "pulse_waveform.csv")
        t, g = np.array(rows, dtype=float).T
        pulse = default_scenario().pulse
        assert np.array_equal(t, pulse.times)
        assert np.array_equal(g, generate_pulse(pulse))
        seeded = (tmp_path / "b" / "pulse_waveform.csv").read_bytes()
        assert seeded != (tmp_path / "a" / "pulse_waveform.csv").read_bytes()


class TestSimulateEstimate:
    def test_round_trip(self, tmp_path, capsys):
        data = tmp_path / "snaps.txt"
        assert main(["simulate", *SMALL, "--out", str(data)]) == 0
        assert data.exists()
        capsys.readouterr()

        assert main(["estimate", *SMALL, "--data", str(data)]) == 0
        report = json.loads(capsys.readouterr().out)
        angles = report["angles_est_deg"]
        assert abs(angles[0] + 10.0) < 0.1 and abs(angles[1] - 20.0) < 0.1
        # the run report of the same scenario, without the truth fields
        assert main(["run", *SMALL]) == 0
        run_keys = list(json.loads(capsys.readouterr().out))
        truth = {"angles_true_deg", "delays_true", "angle_errors_deg", "delay_errors"}
        assert list(report) == [k for k in run_keys if k not in truth]

        out_dir = tmp_path / "est"
        code = main(
            [
                "estimate", *SMALL,
                "--data", str(data),
                "--out", str(out_dir),
                "--dump",
            ]
        )
        assert code == 0
        assert json.loads((out_dir / "report.json").read_text()) == report

        header, rows = read_csv(out_dir / "correlation.csv")
        assert header == ["lag", "re", "im", "abs", "phase"]
        assert len(rows) == 2 * 16 - 1

        header, rows = read_csv(out_dir / "roots.csv")
        assert header == ["re", "im", "modulus"]
        assert len(rows) == 2  # one pencil eigenvalue per path

        for i, delay in enumerate(report["delay_median"], start=1):
            header, rows = read_csv(out_dir / f"fit_path{i}.csv")
            assert header == ["tau", "objective"]
            assert len(rows) == 2 * 128
            tau, objective = np.array(rows, dtype=float).T
            assert abs(tau[np.argmax(objective)] - delay) <= 0.5

    def test_estimate_reads_its_array_from_the_dataset(self, tmp_path, capsys):
        data = tmp_path / "snaps.txt"
        assert main(["simulate", *SMALL, "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["estimate", *SMALL, "--data", str(data)]) == 0
        expected = capsys.readouterr().out
        # the config's array is neither validated nor warned about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for setting in ("sensors=2", "spacing=0.6"):
                assert main(["estimate", *SMALL, "--set", setting, "--data", str(data)]) == 0
                assert capsys.readouterr().out == expected

    def test_estimate_echoes_the_array_of_the_dataset(self, tmp_path, capsys):
        data = tmp_path / "snaps.txt"
        assert main(["simulate", *SMALL, "--set", "spacing=0.4", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["estimate", *SMALL, "--set", "sensors=8", "--data", str(data)]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["sensors"], config["spacing"]) == (16, 0.4)

    @pytest.mark.parametrize(
        "settings",
        [["noise_var=-1"], ["fading=rician", "sigma=-1"], ["fading=deterministic", "beta_re=2"],
         ["fading=suzuki", "std_db=-1"]],
        ids=["noise_var", "rician-sigma", "deterministic-beta_re", "suzuki-std_db"],
    )
    def test_estimate_ignores_the_keys_only_synthesis_reads(self, tmp_path, capsys, settings):
        data = tmp_path / "snaps.txt"
        assert main(["simulate", *SMALL, "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["estimate", *SMALL, "--data", str(data)]) == 0
        expected = capsys.readouterr().out
        args = [arg for setting in settings for arg in ("--set", setting)]
        assert main(["estimate", *SMALL, *args, "--data", str(data)]) == 0
        assert capsys.readouterr().out == expected

    def test_simulate_ignores_the_band_threshold(self, tmp_path):
        data = tmp_path / "snaps.txt"
        assert main(["simulate", *SMALL, "--out", str(data)]) == 0
        again = tmp_path / "again.txt"
        assert main(["simulate", *SMALL, "--set", "band_threshold=1", "--out", str(again)]) == 0
        assert again.read_bytes() == data.read_bytes()

    def test_estimate_rejects_mismatched_pulse(self, tmp_path, capsys):
        data = tmp_path / "snaps.txt"
        main(["simulate", *SMALL, "--out", str(data)])
        capsys.readouterr()
        code = main(
            ["estimate", *SMALL, "--set", "symbols=16", "--data", str(data)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    # S=1 leaves the file's second snapshot as lines beyond the header's S*M; the
    # last three append a second M (equal to the first), a token with no value and a
    # key no header has
    @pytest.mark.parametrize("field", ["S=-1", "delta=0.0", "M=1", "delta=nan", "S=1", "M=abc",
                                       "delta=0.5 M=16", "delta=0.5 junk", "delta=0.5 X=9"])
    def test_estimate_rejects_malformed_header(self, tmp_path, capsys, field):
        data = tmp_path / "snaps.txt"
        main(["simulate", *SMALL, "--set", "snapshots=2", "--out", str(data)])
        header, rest = data.read_text().split("\n", 1)
        key = field.split("=")[0] + "="
        tokens = [field if tok.startswith(key) else tok for tok in header.split()]
        data.write_text(" ".join(tokens) + "\n" + rest)
        capsys.readouterr()
        assert main(["estimate", *SMALL, "--data", str(data)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_estimate_rejects_non_numeric_sample(self, tmp_path, capsys):
        data = tmp_path / "snaps.txt"
        main(["simulate", *SMALL, "--set", "snapshots=2", "--out", str(data)])
        header, first, rest = data.read_text().split("\n", 2)
        for sample, error in [("abc", "non-numeric"), ("nan", "non-finite"), ("inf", "non-finite")]:
            data.write_text("\n".join([header, f"{sample}:0.0" + first[first.index(","):], rest]))
            capsys.readouterr()
            assert main(["estimate", *SMALL, "--data", str(data)]) == 2
            assert capsys.readouterr().err == f"error: {error} sample at snapshot 0, sensor 0\n"

    @pytest.mark.parametrize("form", ["colons", "commas", "swapped", "uneven"])
    def test_estimate_rejects_a_line_that_is_not_re_im_pairs(self, tmp_path, capsys, form):
        # each form holds 2N numbers, so only the order of its separators is wrong
        data = tmp_path / "snaps.txt"
        main(["simulate", *SMALL, "--set", "snapshots=2", "--out", str(data)])
        *lines, last = data.read_text().splitlines()
        last = {"colons": last.replace(",", ":"),
                "commas": last.replace(":", ","),
                "swapped": last.translate(str.maketrans(":,", ",:")),
                "uneven": ",".join(last.replace(",", ":", 1).rsplit(":", 1))}[form]
        data.write_text("\n".join([*lines, last]) + "\n")
        capsys.readouterr()
        assert main(["estimate", *SMALL, "--data", str(data)]) == 2
        assert capsys.readouterr() == (
            "", "error: expected 128 comma-separated re:im pairs (snapshot 1, sensor 15)\n")

    def test_run_equals_simulate_then_estimate_on_a_noisy_scenario(self, tmp_path, capsys):
        # run synthesizes only bins 0..N/2; estimate reads the full set back from text
        args = ["--snapshots", "20", "--set", "sensors=8", "--set", "noise_var=1", "--seed", "4"]
        data = tmp_path / "noisy.txt"
        assert main(["run", *args]) == 0
        run = json.loads(capsys.readouterr().out)
        assert main(["simulate", *args, "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["estimate", *args, "--data", str(data)]) == 0
        est = json.loads(capsys.readouterr().out)
        for key in ("angles_est_deg", "delay_median"):
            assert len(run[key]) == len(est[key]) == 2, key
            assert np.abs(np.subtract(run[key], est[key])).max() <= 1e-9, key


class TestRunCommand:
    def test_report_to_stdout(self, capsys):
        assert main(["run", *SMALL]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["schema"] == "jade-report/4"
        assert abs(report["angles_est_deg"][0] + 10.0) < 0.1
        assert "timing_s" not in report

    def test_report_and_dumps_to_dir(self, tmp_path, capsys):
        code = main(
            ["run", *SMALL, "--out", str(tmp_path), "--dump", "--timing"]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "timing_s" in report
        assert (tmp_path / "correlation.csv").exists()
        assert (tmp_path / "roots.csv").exists()
        assert (tmp_path / "fit_path1.csv").exists()
        assert (tmp_path / "fit_path2.csv").exists()

    def test_deterministic_report_file(self, tmp_path, capsys):
        main(["run", *SMALL, "--out", str(tmp_path / "a")])
        main(["run", *SMALL, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/report.json").read_text() == (tmp_path / "b/report.json").read_text()

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("schema = 1\nsensors = 16\nsnapshots = 10\nseed = 2\n")
        assert main(["run", "--config", str(cfg), "--seed", "9"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["seed"] == 9
        assert report["config"]["sensors"] == 16


RUN_KEYS = ["schema", "version", "config", "angles_est_deg", "amplitudes",
            "singular_values", "estimate_valid", "band_start", "band_stop",
            "angles_true_deg", "delays_true", "angle_errors_deg", "delay_errors",
            "slope_median", "delay_median", "delay_mean"]
TRUTH_KEYS = {"angles_true_deg", "delays_true", "angle_errors_deg", "delay_errors"}


class TestReportSchema:
    """The exact key order of every JSON report: a reordered field changes the schema."""

    def test_run_report(self, capsys):
        assert main(["run", *SMALL]) == 0
        assert list(json.loads(capsys.readouterr().out)) == RUN_KEYS
        assert main(["run", *SMALL, "--timing"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == RUN_KEYS + ["timing_s"]

    def test_estimate_report(self, tmp_path, capsys):
        data = tmp_path / "snaps.txt"
        assert main(["simulate", *SMALL, "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["estimate", *SMALL, "--data", str(data)]) == 0
        keys = list(json.loads(capsys.readouterr().out))
        assert keys == [key for key in RUN_KEYS if key not in TRUTH_KEYS]

    def test_montecarlo_report(self, monkeypatch, capsys):
        from jade.prony import svd_prony

        calls = {"n": 0}

        def fails_second_trial(corr, cfg):
            calls["n"] += 1
            if calls["n"] == 2:
                raise EstimationError("prony", "injected")
            return svd_prony(corr, cfg)

        monkeypatch.setattr("jade.pipeline.svd_prony", fails_second_trial)
        assert main(["montecarlo", *SMALL, "--trials", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["schema", "version", "config", "num_trials", "num_failed",
                                "num_flagged", "angle_bias_deg", "angle_rmse_deg",
                                "delay_bias", "delay_rmse", "trials"]
        ran, failed = report["trials"]
        assert list(ran) == ["trial", "seed", "ok", "angles_est_deg", "angle_errors_deg",
                             "slope_median", "delay_median", "delay_errors", "estimate_valid"]
        assert list(failed) == ["trial", "seed", "ok", "error"]


class TestConfigEcho:
    def test_set_can_change_the_path_count(self, capsys):
        assert main(["run", *SMALL, "--set", "angles_deg=15", "--set", "delays=4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["angles_est_deg"]) == 1
        assert abs(report["angles_est_deg"][0] - 15.0) < 0.1

    @pytest.mark.parametrize(
        "paths", [{"angles_deg": [15.0], "delays": [4.0]},
                  {"angles_deg": [-40.0, 0.0, 25.0], "delays": [-2.5, 1.0, 6.25]},
                  {"angles_deg": [-5.0, 35.0], "delays": [-0.75, 12.5]},
                  {"angles_deg": [-60.0, -20.0, 10.0, 50.0], "delays": [3.5, -7.25, 0.0, 1.125]},
                  {"angles_deg": [-70.0, -35.0, 0.5, 30.0, 65.0],
                   "delays": [-1.5, 2.0, -9.75, 4.25, 0.5]},
                  {"angles_deg": [-75.0, -45.0, -15.0, 15.0, 45.0, 75.0],
                   "delays": [0.25, -3.0, 5.5, -6.125, 8.0, -0.5]}]
    )
    def test_echo_round_trip(self, paths):
        # every fading kind, each with non-default parameters
        for fading in ({"fading": "deterministic", "beta_re": 0.5, "beta_im": -1.5},
                       {"fading": "rayleigh", "sigma": 0.7},
                       {"fading": "rician", "nu": 1.0, "sigma": 0.5},
                       {"fading": "suzuki", "sigma": 2.0, "mean_db": -3.0, "std_db": 4.0}):
            cfg = scenario_from_dict({**fading, **paths})
            echo = cfg.to_dict()
            again = scenario_from_dict(echo)
            assert again.to_dict() == echo, fading
            assert again == cfg, fading


class TestScenarioKeys:
    """The CLI builds one key map: config file, then --set, then --seed/--snapshots."""

    def test_set_does_not_freeze_the_pulse_seed(self, capsys):
        outputs = []
        for args in (["--seed", "5"], ["--set", "seed=5"], ["--seed", "5", "--set", "sensors=64"]):
            assert main(["run", "--snapshots", "10", *args]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        assert json.loads(outputs[0])["config"]["bits_seed"] == 5

    def test_echo_round_trips_through_file_and_set(self, tmp_path, capsys):
        scenario = ["--set", "fading=rician", "--set", "nu=1", "--set", "angles_deg=-40,0,25",
                    "--set", "delays=-2.5,1.25,6.75", "--set", "sensors=16", "--seed", "3",
                    "--snapshots", "10"]
        assert main(["run", *scenario]) == 0
        first = capsys.readouterr().out
        values = {k: ",".join(map(str, v)) if isinstance(v, list) else str(v)
                  for k, v in json.loads(first)["config"].items()}
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert main(["run", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == first
        assert main(["run", *[a for k, v in values.items() for a in ("--set", f"{k}={v}")]]) == 0
        assert capsys.readouterr().out == first

    def test_flags_override_set_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("sensors = 16\nsnapshots = 10\nseed = 2\n")
        assert main(["run", "--config", str(cfg), "--set", "seed=4", "--seed", "9"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["seed"] == 9
        assert report["config"]["bits_seed"] == 9

    def test_a_key_set_twice_in_the_file_is_2(self, tmp_path, capsys):
        # --set and the flags still override the file; the file itself sets each key once
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("seed = 1\nsensors = 8\nseed = 2\n")
        assert main(["run", "--snapshots", "5", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:3: seed is set again\n"

    def test_set_fading_kind_keeps_the_files_parameters(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("sensors = 16\nsnapshots = 10\nfading = rician\nnu = 1\n")
        assert main(["run", "--config", str(cfg), "--set", "fading=rayleigh"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nu is not a parameter of rayleigh fading" in captured.err

    def test_estimate_echoes_only_what_it_used(self, tmp_path, capsys):
        data = tmp_path / "snaps.txt"
        scenario = ["--set", "angles_deg=0,40", "--set", "delays=2,5", "--set", "sensors=8"]
        assert main(["simulate", *scenario, "--snapshots", "5", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["estimate", "--snapshots", "5", "--data", str(data)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert np.allclose(report["angles_est_deg"], [0.0, 40.0], atol=0.1)
        config = report["config"]
        for key in ("fading", "sigma", "noise_var"):
            assert key not in config
        # the path count sets the number of modes estimated
        assert len(config["angles_deg"]) == len(config["delays"]) == 2
        assert config["sensors"] == 8
        assert config["spacing"] == 0.5
        assert config["snapshots"] == 5
        assert config["bits_seed"] == 1 and config["seed"] == 1


    def test_estimate_echo_fed_back_keeps_the_path_count(self, tmp_path, capsys):
        data = tmp_path / "snaps.txt"
        scenario = ["--set", "angles_deg=15", "--set", "delays=4", "--set", "sensors=8",
                    "--snapshots", "5"]
        assert main(["simulate", *scenario, "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["estimate", *scenario, "--data", str(data)]) == 0
        first = json.loads(capsys.readouterr().out)
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("".join(f"{k} = {','.join(map(str, v)) if isinstance(v, list) else v}\n"
                               for k, v in first["config"].items()))
        assert main(["estimate", "--config", str(cfg), "--data", str(data)]) == 0
        again = json.loads(capsys.readouterr().out)
        assert np.allclose(again["angles_est_deg"], [15.0], atol=0.1)
        assert again == first


@pytest.mark.parametrize("command", [["run"], ["montecarlo", "--trials", "3"]])
def test_aliasing_warning_is_printed_once(command):
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "jade.cli", *command, *SMALL, "--set", "spacing=0.6"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0
    assert sum("exceeds 0.5" in line for line in out.stderr.splitlines()) == 1


def test_aliasing_warning_is_printed_once_whatever_the_filter():
    # every warning is shown, so this counts the warnings issued: one for a run of
    # three paths, and one for a Monte Carlo call whose three trials share the array
    src = Path(__file__).resolve().parents[1] / "src"
    for command in (["run", "--set", "angles_deg=-10,20,40", "--set", "delays=1,2,3"],
                    ["montecarlo", "--trials", "3"]):
        out = subprocess.run(
            [sys.executable, "-m", "jade.cli", *command, *SMALL, "--set", "spacing=0.6"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "always"},
        )
        assert out.returncode == 0, command
        assert sum("exceeds 0.5" in line for line in out.stderr.splitlines()) == 1, command


class TestMonteCarloCommand:
    def test_writes_aggregates(self, tmp_path):
        code = main(["montecarlo", *SMALL, "--trials", "3", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "montecarlo.json").read_text())
        assert report["num_trials"] == 3
        assert report["num_failed"] == 0
        assert len(report["trials"]) == 3
        assert len(report["angle_rmse_deg"]) == 2

    def test_flagged_fits_show_in_the_report_not_on_stderr(self, capsys):
        # below the SNR threshold most fits are flagged; every warning issued would be shown
        args = ["--trials", "20", "--seed", "3", "--set", "sensors=16", "--set", "snapshots=50",
                "--set", "noise_var=100"]
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["montecarlo", *args]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert any(not trial["estimate_valid"] for trial in json.loads(captured.out)["trials"])

    def test_failed_trials_are_counted_on_stderr(self, monkeypatch, capsys):
        from jade.prony import svd_prony
        calls = {"n": 0}

        def flaky(corr, cfg):
            calls["n"] += 1
            if calls["n"] == 2:
                raise EstimationError("prony", "injected")
            return svd_prony(corr, cfg)

        monkeypatch.setattr("jade.pipeline.svd_prony", flaky)
        assert main(["montecarlo", *SMALL, "--trials", "3"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["num_failed"] == 1
        assert "1/3 trials failed" in captured.err


class TestExitCodes:
    def test_validation_error_is_2(self, capsys):
        assert main(["run", "--set", "rolloff=2.0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_is_2(self, tmp_path, capsys):
        # weighted_fit and prediction_order are removed keys: even a value that
        # was legal is unknown
        for key, value in (("bogus", "1"), ("weighted_fit", "true"), ("weighted_fit", "false"),
                           ("prediction_order", "2"), ("prediction_order", "z")):
            assert main(["run", "--set", f"{key}={value}"]) == 2
            assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        for key, value in (("weighted_fit", "false"), ("prediction_order", "7"), ("rank", "2")):
            cfg = tmp_path / "scenario.cfg"
            cfg.write_text(f"sensors = 8\n{key} = {value}\n")
            assert main(["run", "--snapshots", "5", "--config", str(cfg)]) == 2
            assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting",
        ["noise_var=nan", "noise_var=inf", "spacing=nan", "sigma=nan", "carrier_freq=nan",
         # values that are not numbers at all
         "sensors=abc", "noise_var=x", "snapshots=1.5", "schema=abc",
         "delays=nan,7", "fading=nakagami",
         "sensors"],  # no '=' at all
    )
    def test_non_finite_value_is_2(self, capsys, setting):
        assert main(["run", *SMALL, "--set", setting]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    # Sizes above 2**47 bytes, more than a Linux process's default address space, so
    # the allocation fails at once whatever the overcommit setting and nothing is touched:
    # the header asks for 8.2e15 bytes of bins, the snapshot count for 3.2e16 bytes of
    # fading draws, the sensor count for 8e15 bytes of sensor indices, the oversampling
    # for 2.6e16 bytes of sample times and the symbol count for 8e15 bytes of drawn bits.
    # jade pulse reads no array, so only the pulse length fails it.
    @pytest.mark.parametrize("command, size", [
        pytest.param("estimate", "header", id="estimate"),
        *(pytest.param(c, "snapshots", id=c) for c in ("simulate", "run", "montecarlo")),
        *(pytest.param(c, "sensors", id=f"{c}-sensors") for c in ("simulate", "run", "montecarlo")),
        *(pytest.param(c, "oversample", id=f"{c}-oversample")
          for c in ("pulse", "simulate", "estimate", "run", "montecarlo")),
        pytest.param("pulse", "symbols", id="pulse-symbols"),
    ])
    def test_size_that_cannot_be_allocated_is_2(self, tmp_path, capsys, command, size):
        data = tmp_path / "data.txt"
        snapshots = 1000000000000 if size == "header" else 1
        data.write_text(f"JADE1 M=4 N=128 S={snapshots} delta=0.5\n" + 4 * ("0:0," * 127 + "0:0\n"))
        huge = {"header": [],
                "snapshots": ["--set", "sensors=8", "--set", "snapshots=1000000000000000"],
                "sensors": ["--set", "sensors=1000000000000000"],
                "oversample": ["--set", "oversample=100000000000000"],
                "symbols": ["--set", "symbols=1000000000000000"]}[size]
        out = tmp_path / "out"
        argv = {"estimate": ["estimate", "--data", str(data)],
                "pulse": ["pulse", "--out", str(out)],
                "simulate": ["simulate", "--out", str(out)],
                "run": ["run"],
                "montecarlo": ["montecarlo", "--trials", "2"]}[command]
        assert main([*argv, *huge]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "Unable to allocate" in captured.err
        assert not out.exists()

    def test_non_numeric_value_in_config_file_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("sensors = eight\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "sensors: expected an integer, got 'eight'" in capsys.readouterr().err

    def test_config_file_with_the_removed_forward_backward_key_is_2(self, tmp_path, capsys):
        # even its one formerly legal value: the key is gone, not defaulted
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("sensors = 8\nforward_backward = false\n")
        assert main(["run", "--snapshots", "5", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown config keys: ['forward_backward']" in captured.err

    @pytest.mark.parametrize(
        "settings",
        [["nu=5"], ["fading=deterministic", "sigma=2"]],
        ids=["nu-with-rayleigh", "sigma-with-deterministic"],
    )
    def test_parameter_the_fading_kind_ignores_is_2(self, capsys, settings):
        args = [arg for setting in settings for arg in ("--set", setting)]
        assert main(["run", *SMALL, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not a parameter of" in captured.err

    def test_set_fading_kind_drops_the_old_kinds_parameters(self, capsys):
        # Rayleigh's sigma is a default, not a setting; switching kind must not trip on it
        assert main(["run", *SMALL, "--set", "fading=deterministic"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["fading"] == "deterministic"

    def test_bits_seed_beside_bits_is_2(self, capsys):
        args = ["--set", "sensors=8", "--set", "bits=" + "01" * 16, "--set", "bits_seed=5"]
        assert main(["run", "--snapshots", "5", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bits_seed" in captured.err

    @pytest.mark.parametrize("setting, message", [
        # the backward Hankel matrix equals the forward one, so the key is gone
        ("forward_backward=true", "unknown config keys: ['forward_backward']"),
        ("rank=2", "unknown config keys: ['rank']"),  # the pencil truncates to the path count
    ], ids=["forward_backward", "rank"])
    def test_settings_the_pencil_has_no_use_for_are_2(self, capsys, setting, message):
        assert main(["run", "--snapshots", "5", "--set", "sensors=8", "--set", setting]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("command", [["run"], ["montecarlo", "--trials", "2"]])
    def test_more_paths_than_the_default_order_holds_are_2(self, capsys, command):
        # the pencil order holds at most M - 1 paths, so two paths need 3 sensors
        assert main([*command, "--snapshots", "5", "--set", "sensors=2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 2 paths need at least 3 sensors, got M=2\n"

    @pytest.mark.parametrize("sensors, angles, delays", [
        (3, "-10,20", "3,7"),
        (7, "-50,-30,-10,10,30,50", "1,2,3,4,5,6"),
    ], ids=["2-paths-M3", "6-paths-M7"])
    def test_as_many_sensors_as_paths_plus_one_run(self, capsys, sensors, angles, delays):
        # the order is then L itself, above one third of 2M-1; noiseless, the
        # error left is the finite-snapshot cross term of the paths
        args = ["--set", f"sensors={sensors}", "--set", f"angles_deg={angles}",
                "--set", f"delays={delays}"]
        assert main(["run", *args]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["estimate_valid"]
        assert max(abs(e) for e in report["angle_errors_deg"]) < 1.0
        assert max(abs(e) for e in report["delay_errors"]) < 0.1

    def test_estimate_checks_the_default_order_against_the_dataset(self, tmp_path, capsys):
        data = tmp_path / "snaps.txt"
        assert main(["simulate", "--snapshots", "5", "--set", "sensors=2",
                     "--set", "angles_deg=10", "--set", "delays=3", "--out", str(data)]) == 0
        capsys.readouterr()
        # the config's two paths, on the dataset's 2 sensors
        assert main(["estimate", "--snapshots", "5", "--data", str(data)]) == 2
        assert capsys.readouterr().err == "error: 2 paths need at least 3 sensors, got M=2\n"

    @pytest.mark.parametrize("command", [["run", "--config"], ["estimate", "--data"]])
    def test_missing_input_file_is_2(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.txt"
        assert main([*command, str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err

    @pytest.mark.parametrize("command", [["run", "--config"], ["estimate", "--data"]])
    def test_input_file_that_is_not_text_is_2(self, tmp_path, capsys, command):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe = \x80\n")
        assert main([*command, str(binary)]) == 2
        assert capsys.readouterr().err == f"error: {binary} is not UTF-8 text\n"

    @pytest.mark.parametrize("command", [["run"], ["simulate"], ["pulse"]])
    def test_odd_symbol_count_is_2(self, tmp_path, capsys, command):
        args = ["--snapshots", "3", "--set", "sensors=4", "--set", "symbols=7",
                "--set", "delays=1,2"]
        assert main([*command, *args, "--out", str(tmp_path / "out")]) == 2
        assert "symbol_count must be even" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["pulse"], ["simulate"], ["run"],
                                         ["montecarlo", "--trials", "2"]])
    def test_negative_bits_seed_is_2(self, tmp_path, capsys, command):
        args = ["--snapshots", "3", "--set", "sensors=4", "--set", "bits_seed=-1"]
        assert main([*command, *args, "--out", str(tmp_path / "out")]) == 2
        assert "error: bits_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bits", [[], ["--set", "bits=" + "01" * 16]], ids=["drawn", "explicit"])
    @pytest.mark.parametrize("command", [["run"], ["montecarlo", "--trials", "2"]])
    def test_negative_seed_is_2(self, capsys, command, bits):
        # the trial seeds derive from it even when the pulse bits do not
        assert main([*command, "--snapshots", "3", "--set", "sensors=4", *bits, "--seed", "-1"]) == 2
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["estimate", "--data", "missing.txt"]])
    def test_dump_without_out_is_2(self, capsys, monkeypatch, command):
        # no stage runs, and estimate never opens its dataset, whose absence is another error
        def boom(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr("jade.pipeline.generate_pulse", boom)
        assert main([*command, *SMALL, "--dump"]) == 2
        assert capsys.readouterr() == ("", "error: --dump needs --out, the directory its CSVs go to\n")

    @pytest.mark.parametrize("setting, message", [
        ("sensors=abc", "error: sensors: expected an integer, got 'abc'\n"),
        ("bits_seed=-1", "error: bits_seed must be >= 0, got -1\n"),
    ], ids=["scenario", "pulse"])
    def test_estimate_checks_its_config_before_the_dataset(self, capsys, monkeypatch,
                                                           setting, message):
        def boom(*args, **kwargs):
            raise AssertionError("the dataset was parsed")

        monkeypatch.setattr("jade.cli.load_dataset", boom)
        assert main(["estimate", "--data", "snaps.txt", "--set", setting]) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("flag", ["--dump-correlation", "--dump-roots", "--dump-fit"])
    @pytest.mark.parametrize("command", [["run"], ["estimate", "--data", "snaps.txt"]])
    def test_removed_dump_flags_are_2(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--out", str(tmp_path), flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_band_too_narrow_for_the_delay_fit_is_2(self, capsys):
        # the band follows from the pulse and band_threshold alone: a config error
        args = ["--snapshots", "2", "--set", "sensors=8", "--set", "symbols=4",
                "--set", "oversample=1", "--set", "delays=0.5,1"]
        assert main(["run", *args]) == 2
        assert "band must be a run of at least 3 consecutive bins" in capsys.readouterr().err

    def test_estimation_failure_is_3(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise EstimationError("prony", "injected")

        monkeypatch.setattr("jade.pipeline.svd_prony", boom)
        assert main(["run", *SMALL]) == 3
        assert "estimation failed" in capsys.readouterr().err

    def test_estimate_command_failure_is_3(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "snaps.txt"
        main(["simulate", *SMALL, "--out", str(data)])
        capsys.readouterr()

        def boom(*args, **kwargs):
            raise EstimationError("prony", "injected")

        monkeypatch.setattr("jade.pipeline.svd_prony", boom)
        assert main(["estimate", *SMALL, "--data", str(data)]) == 3

    def test_estimation_failure_from_a_dataset_is_3(self, tmp_path, capsys):
        # an all-zero dataset: the estimator, not the loader, finds nothing to fit
        data = tmp_path / "zero.txt"
        data.write_text("JADE1 M=4 N=128 S=2 delta=0.5\n" + (",".join(["0:0"] * 128) + "\n") * 8)
        assert main(["estimate", "--data", str(data)]) == 3
        assert capsys.readouterr() == (
            "", "estimation failed: [prony] Hankel matrix is numerically zero\n")

"""Tests for the experiment harness: configs, trials, aggregation, IO, CLI."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from otfs_sync.cli import main
from otfs_sync import harness
from otfs_sync.harness import (ExperimentConfig, TrialResult, aggregate,
                               build_point, config_items, context_key,
                               load_config, parse_config, read_csv, run_point,
                               run_single, run_snapshot, run_sweep, run_trial,
                               trial_streams, write_csv, write_manifest)

#: Small, fast, noiseless link used across the harness tests.
TINY = ExperimentConfig(m=32, n=8, lcp=16, blocks=1, pilot_length=2,
                        channel="single_tap", doppler_spectrum="static",
                        nu_max_t=0.0, snr_db=None, bem_q=1, trials=3, seed=9)


class TestConfigParsing:
    """Flat key = value text to config dataclass."""

    def test_round_trip_through_manifest_format(self):
        """Every field survives rendering to text and parsing back."""
        config = ExperimentConfig(m=64, n=16, lcp=20, pilot_m_p=21,
                                  snr_db=None, theta=7, epsilon=None,
                                  advance="centered", bem_q=None,
                                  bias_correction_known_pdp=False,
                                  sweep_values=(0.5, 1.5),
                                  geometries=((64, 64), (128, 32)))
        text = "\n".join(f"{k} = {v}" for k, v in config_items(config))
        assert parse_config(text) == config

    def test_comments_and_blanks_ignored(self):
        """'#' comments and empty lines do not affect parsing."""
        config = parse_config("# header\n\nm = 16  # inline\nn = 4\n")
        assert (config.m, config.n) == (16, 4)

    @pytest.mark.parametrize("text,field,expected", [
        ("pilot_m_p = auto", "pilot_m_p", None),
        ("pilot_m_p = 21", "pilot_m_p", 21),
        ("bem_q = none", "bem_q", None),
        ("snr_db = off", "snr_db", None),
        ("snr_db = 12.5", "snr_db", 12.5),
        ("theta = random", "theta", None),
        ("theta = -100", "theta", -100),
        ("epsilon = random", "epsilon", None),
        ("advance = centered", "advance", "centered"),
        ("advance = 0", "advance", 0),
        ("fast_cost = false", "fast_cost", False),
        ("sweep_values = 0, 10, 20", "sweep_values", (0.0, 10.0, 20.0)),
        ("geometries = 64x64, 128x32", "geometries", ((64, 64), (128, 32))),
    ])
    def test_special_values(self, text, field, expected):
        """Sentinel spellings map onto the config's optional fields."""
        assert getattr(parse_config(text), field) == expected

    def test_unknown_key_raises(self):
        """Misspelled keys fail loudly instead of being dropped."""
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("trails = 100")

    def test_bad_boolean_raises(self):
        """Mode flags only accept boolean spellings."""
        with pytest.raises(ValueError, match="boolean"):
            parse_config("fast_cost = maybe")

    def test_malformed_line_raises(self):
        """Lines without '=' are reported with their number."""
        with pytest.raises(ValueError, match="line 2"):
            parse_config("m = 16\nnonsense\n")

    def test_shipped_configs_parse(self):
        """The checked-in experiment configs all load."""
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent / "configs"
        paths = sorted(root.glob("*.cfg"))
        assert paths, "no shipped configs found"
        for path in paths:
            config = load_config(path)
            assert config.trials >= 1


class TestManifest:
    """Resolved-config echo."""

    def test_deterministic_and_complete(self, tmp_path):
        """Identical configs write byte-identical manifests that name
        every config field."""
        config = ExperimentConfig()
        write_manifest(tmp_path / "a.txt", config)
        write_manifest(tmp_path / "b.txt", config)
        a = (tmp_path / "a.txt").read_bytes()
        assert a == (tmp_path / "b.txt").read_bytes()
        text = a.decode()
        for f in dataclasses.fields(ExperimentConfig):
            assert f"{f.name}=" in text
        assert text.startswith("version=")


class TestCsvIo:
    """Exact-round-trip columnar output."""

    def test_float_round_trip(self, tmp_path):
        """repr-formatted floats read back bit-identical."""
        path = tmp_path / "t.csv"
        values = (0.1 + 0.2, 1e-17, -3.25, float(2 ** 53 - 1))
        write_csv(path, ("a", "b", "c", "d"), [values])
        header, rows = read_csv(path)
        assert header == ("a", "b", "c", "d")
        assert tuple(float(v) for v in rows[0]) == values

    def test_empty_table_is_header_only(self, tmp_path):
        """No rows still writes the header line."""
        path = tmp_path / "e.csv"
        write_csv(path, ("x", "y"), [])
        assert path.read_text() == "x,y\n"
        assert read_csv(path) == (("x", "y"), [])


class TestTrialStreams:
    """Per-trial seed derivation."""

    def test_deterministic_per_index(self):
        """The same (root, trial) pair reproduces identical draws."""
        a = [rng.uniform() for rng in trial_streams(5, 3)]
        b = [rng.uniform() for rng in trial_streams(5, 3)]
        assert a == b

    def test_independent_across_indices(self):
        """Different trial indices draw from different streams."""
        a = [rng.uniform() for rng in trial_streams(5, 3)]
        b = [rng.uniform() for rng in trial_streams(5, 4)]
        assert a != b


class TestRunTrial:
    """Single end-to-end trials."""

    def test_deterministic(self):
        """A repeated trial reproduces every field bit for bit."""
        ctx = build_point(TINY)
        one = run_trial(TINY, ctx, 0)
        two = run_trial(TINY, ctx, 0)
        assert one.theta_true == two.theta_true
        assert one.eps_true == two.eps_true
        assert one.theta_hat == two.theta_hat
        assert one.eps_coarse == two.eps_coarse
        assert one.eps_fine == two.eps_fine
        assert one.failure is None

    def test_noiseless_exact(self):
        """The tiny noiseless link recovers both offsets in every trial."""
        ctx = build_point(TINY)
        for t in range(5):
            r = run_trial(TINY, ctx, t)
            assert r.theta_hat == r.theta_true
            assert abs(r.eps_fine - r.eps_true) <= 1e-4

    def test_draws_shared_across_sweep_points(self):
        """Trial randomness depends on the trial index alone, so paired
        sweep points see identical offsets (common random numbers)."""
        noisy = dataclasses.replace(TINY, snr_db=0.0)
        ctx_a = build_point(TINY)
        ctx_b = build_point(noisy)
        a = run_trial(TINY, ctx_a, 2)
        b = run_trial(noisy, ctx_b, 2)
        assert a.theta_true == b.theta_true
        assert a.eps_true == b.eps_true

    def test_fixed_offsets_override_draws(self):
        """Explicit theta/epsilon settings pin every trial."""
        fixed = dataclasses.replace(TINY, theta=11, epsilon=0.375)
        ctx = build_point(fixed)
        r = run_trial(fixed, ctx, 4)
        assert r.theta_true == 11
        assert r.eps_true == 0.375


    @pytest.mark.parametrize("stage", ["estimate_to", "coarse_cfo",
                                       "fine_cfo"])
    def test_estimator_error_is_stage_failure(self, monkeypatch, stage):
        """An estimator's ValueError fails the trial with its stage label."""
        def refuse(*args, **kwargs):
            raise ValueError("no lock")

        ctx = build_point(TINY)
        monkeypatch.setattr(harness, stage, refuse)
        label = {"estimate_to": "timing", "coarse_cfo": "coarse",
                 "fine_cfo": "fine"}[stage]
        assert run_trial(TINY, ctx, 0).failure == f"{label}: no lock"

    @pytest.mark.parametrize("stage", ["estimate_to", "coarse_cfo",
                                       "fine_cfo"])
    def test_programming_error_propagates(self, monkeypatch, stage):
        """A TypeError is a bug, not a failed trial, and is raised."""
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        ctx = build_point(TINY)
        monkeypatch.setattr(harness, stage, broken)
        with pytest.raises(TypeError, match="bad call"):
            run_trial(TINY, ctx, 0)

    @pytest.mark.parametrize("theta", [-100, 0, 300])
    def test_channel_synthesized_over_stream_reach(self, theta):
        """The traced realization covers exactly the buffer samples the
        shifted stream reaches, clipped to the 2 n_t buffer."""
        config = dataclasses.replace(TINY, theta=theta, epsilon=0.25,
                                     advance=40)
        ctx = build_point(config)
        traces = {}
        run_trial(config, ctx, 0, traces)
        real = traces["realization"]
        shift, n_t = theta + 40, ctx.params.n_t
        assert real.start == max(0, shift)
        assert real.stop == min(2 * n_t, shift + n_t + ctx.model.n_taps - 1)

    def test_point_context_is_frozen(self):
        """Trials share the point context and its ML workspace read-only."""
        ctx = build_point(TINY)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.advance = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.workspace.lam = None


class TestAggregate:
    """Trial reduction conventions."""

    def _ctx(self):
        return build_point(TINY)

    def test_mean_and_population_variance(self):
        """Errors {+1, -1} give mean 0 and variance 1 (ddof = 0)."""
        ctx = self._ctx()
        results = [TrialResult(theta_true=0, eps_true=0.0, theta_hat=1,
                               eps_coarse=0.0, eps_fine=0.0),
                   TrialResult(theta_true=0, eps_true=0.0, theta_hat=-1,
                               eps_coarse=0.0, eps_fine=0.0)]
        s = aggregate(10.0, results, ctx)
        assert s.to_err_mean == 0.0
        assert s.to_err_var == 1.0
        assert (s.trials, s.failures) == (2, 0)

    def test_failures_excluded_from_metrics(self):
        """Failed trials count in the failure column but not the stats."""
        ctx = self._ctx()
        results = [TrialResult(theta_true=0, eps_true=0.0, theta_hat=3,
                               eps_coarse=0.5, eps_fine=0.25),
                   TrialResult(theta_true=0, eps_true=0.0,
                               failure="timing: boom")]
        s = aggregate(0.0, results, ctx)
        assert s.to_err_mean == 3.0
        assert s.cfo_mse_coarse == 0.25
        assert s.cfo_mse_fine == 0.0625
        assert (s.trials, s.failures) == (2, 1)

    def test_cfo_errors_folded(self):
        """CFO errors wrap into the width-N principal interval first."""
        ctx = self._ctx()
        results = [TrialResult(theta_true=0, eps_true=-3.9, theta_hat=0,
                               eps_coarse=3.9, eps_fine=3.9)]
        s = aggregate(0.0, results, ctx)
        assert_allclose(s.cfo_mse_coarse, 0.2 ** 2)

    def test_all_failed_gives_nan(self):
        """A point with no surviving trials reports NaN metrics."""
        ctx = self._ctx()
        s = aggregate(0.0, [TrialResult(theta_true=0, eps_true=0.0,
                                        failure="fine: x")], ctx)
        assert math.isnan(s.to_err_mean)
        assert math.isnan(s.cfo_mse_fine)
        assert (s.trials, s.failures) == (1, 1)


class TestRunners:
    """File-emitting entry points."""

    def test_run_single_noiseless(self, tmp_path):
        """The tiny link yields a zero-variance results row and a manifest."""
        summary = run_single(TINY, tmp_path)
        assert summary.to_err_var == 0.0
        assert summary.failures == 0
        header, rows = read_csv(tmp_path / "results.csv")
        assert header == ("sweep_value", "to_err_mean", "to_err_var",
                          "cfo_mse_coarse", "cfo_mse_fine", "trials",
                          "failures")
        assert len(rows) == 1
        assert float(rows[0][2]) == 0.0
        assert (tmp_path / "manifest.txt").exists()

    def test_run_sweep_single_axis(self, tmp_path):
        """A plain axis sweep writes one results.csv row per value."""
        config = dataclasses.replace(TINY, sweep="snr_db",
                                     sweep_values=(30.0, 60.0), trials=2)
        emitted = run_sweep(config, tmp_path)
        assert list(emitted) == ["results.csv"]
        header, rows = read_csv(tmp_path / "results.csv")
        assert [r[0] for r in rows] == ["30.0", "60.0"]

    def test_run_sweep_per_geometry_files(self, tmp_path):
        """Geometries multiply a non-geometry axis into per-shape files."""
        config = dataclasses.replace(TINY, sweep="snr_db",
                                     sweep_values=(60.0,), trials=2,
                                     geometries=((32, 8), (16, 16)))
        emitted = run_sweep(config, tmp_path)
        assert sorted(emitted) == ["results_16x16.csv", "results_32x8.csv"]
        for name in emitted:
            _, rows = read_csv(tmp_path / name)
            assert len(rows) == 1

    def test_run_sweep_geometry_axis(self, tmp_path):
        """sweep=geometry labels rows by the MxN pair."""
        config = dataclasses.replace(TINY, sweep="geometry",
                                     geometries=((32, 8), (16, 16)), trials=2)
        emitted = run_sweep(config, tmp_path)
        _, rows = read_csv(tmp_path / "results.csv")
        assert [r[0] for r in rows] == ["32x8", "16x16"]

    def test_run_sweep_deterministic_files(self, tmp_path):
        """Re-running the same config reproduces byte-identical outputs."""
        config = dataclasses.replace(TINY, sweep="snr_db",
                                     sweep_values=(50.0,), trials=2)
        run_sweep(config, tmp_path / "a")
        run_sweep(config, tmp_path / "b")
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
            (tmp_path / "b" / "results.csv").read_bytes()
        assert (tmp_path / "a" / "manifest.txt").read_bytes() == \
            (tmp_path / "b" / "manifest.txt").read_bytes()

    def test_context_key_ignores_only_snr(self):
        """Points differing only in SNR share a context; any other field,
        such as bem_k or pilot_length, gets one of its own."""
        key = context_key(TINY)
        assert context_key(dataclasses.replace(TINY, snr_db=5.0)) == key
        for change in ({"bem_k": 2}, {"pilot_length": 3}, {"ts": 1e-6},
                       {"bias_correction_known_pdp": False}):
            assert context_key(dataclasses.replace(TINY, **change)) != key

    def test_snr_sweep_builds_one_context(self, tmp_path, monkeypatch):
        """Three SNR points reuse a single build_point result."""
        calls = []

        def counted(config):
            calls.append(config.snr_db)
            return build_point(config)

        monkeypatch.setattr(harness, "build_point", counted)
        config = dataclasses.replace(TINY, sweep="snr_db",
                                     sweep_values=(30.0, 40.0, 50.0),
                                     trials=1)
        run_sweep(config, tmp_path)
        assert calls == [30.0]

    def test_run_point_matches_trials(self):
        """run_point reduces exactly the trials it ran."""
        ctx = build_point(TINY)
        summary = run_point(TINY, 0.0, ctx=ctx)
        expected = aggregate(0.0, [run_trial(TINY, ctx, t)
                                   for t in range(TINY.trials)], ctx)
        assert summary == expected

    def test_run_snapshot_artifacts(self, tmp_path):
        """A snapshot writes metric, cost, channel, estimate, manifest."""
        config = dataclasses.replace(TINY, theta=40, epsilon=0.25)
        report = run_snapshot(config, tmp_path)
        _, delay_rows = read_csv(tmp_path / "metric_delay.csv")
        _, time_rows = read_csv(tmp_path / "metric_time.csv")
        assert len(delay_rows) == config.m
        assert len(time_rows) == config.n
        _, cost_rows = read_csv(tmp_path / "cost_trace.csv")
        assert len(cost_rows) > 100
        assert (tmp_path / "channel_taps.csv").exists()
        text = (tmp_path / "estimate.txt").read_text()
        report_back = dict(line.split("=", 1)
                           for line in text.strip().splitlines())
        assert int(report_back["theta_true"]) == 40
        assert report["theta_hat"] == 40
        assert abs(report["eps_fine"] - 0.25) <= 1e-4

    def test_snapshot_reports_trial_zero(self, tmp_path):
        """The snapshot's truths and estimates are trial 0 of run_trial."""
        report = run_snapshot(TINY, tmp_path)
        trial = run_trial(TINY, build_point(TINY), 0)
        assert (report["theta_true"], report["eps_true"]) == \
            (trial.theta_true, trial.eps_true)
        assert (report["theta_hat"], report["eps_coarse"],
                report["eps_fine"]) == \
            (trial.theta_hat, trial.eps_coarse, trial.eps_fine)

    @pytest.mark.parametrize("stage", ["estimate_to", "coarse_cfo",
                                       "fine_cfo"])
    def test_snapshot_stage_failure_raises(self, tmp_path, monkeypatch,
                                           stage):
        """A snapshot whose estimator refuses raises with the stage label."""
        def refuse(*args, **kwargs):
            raise ValueError("no lock")

        monkeypatch.setattr(harness, stage, refuse)
        label = {"estimate_to": "timing", "coarse_cfo": "coarse",
                 "fine_cfo": "fine"}[stage]
        with pytest.raises(ValueError, match=f"{label}: no lock"):
            run_snapshot(TINY, tmp_path)


class TestCli:
    """Command-line verbs end to end."""

    def _flags(self):
        return ["--m", "32", "--n", "8", "--lcp", "16", "--blocks", "1",
                "--pilot_length", "2", "--channel", "single_tap",
                "--doppler_spectrum", "static", "--nu_max_t", "0",
                "--snr_db", "off", "--bem_q", "1", "--trials", "2",
                "--seed", "9"]

    def test_run_verb(self, tmp_path, capsys):
        """`run` executes the point and prints the summary line."""
        code = main(["run", "--out", str(tmp_path)] + self._flags())
        assert code == 0
        out = capsys.readouterr().out
        assert "to_err_var=0.0" in out
        assert (tmp_path / "results.csv").exists()

    def test_sweep_verb(self, tmp_path, capsys):
        """`sweep` emits per-geometry files and reports point counts."""
        code = main(["sweep", "--out", str(tmp_path), "--sweep", "snr_db",
                     "--sweep_values", "50,60", "--geometries", "32x8"]
                    + self._flags())
        assert code == 0
        assert "results_32x8.csv: 2 points" in capsys.readouterr().out
        assert (tmp_path / "results_32x8.csv").exists()

    def test_snapshot_verb(self, tmp_path, capsys):
        """`snapshot` emits the trace files and prints the estimates."""
        code = main(["snapshot", "--out", str(tmp_path), "--theta", "10",
                     "--epsilon", "0.5"] + self._flags())
        assert code == 0
        out = capsys.readouterr().out
        assert "theta_hat=10" in out
        assert (tmp_path / "metric_delay.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        """Flags override file values, which override the defaults."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m = 32\nn = 8\nlcp = 16\nblocks = 1\n"
                       "pilot_length = 2\nchannel = single_tap\n"
                       "doppler_spectrum = static\nnu_max_t = 0\n"
                       "snr_db = off\nbem_q = 1\ntrials = 5\nseed = 9\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out_dir),
                     "--trials", "2"])
        assert code == 0
        assert "trials=2" in capsys.readouterr().out
        manifest = (out_dir / "manifest.txt").read_text()
        assert "trials=2" in manifest
        assert "m=32" in manifest

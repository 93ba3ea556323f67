"""Tests for the experiment harness: configs, trials, aggregation, IO, CLI."""

import dataclasses
import logging
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from otfs_sync.cli import main
from otfs_sync import channel, harness
from otfs_sync.harness import (ExperimentConfig, TrialResult, aggregate,
                               build_point, config_items, context_key,
                               load_config, parse_config, run_single,
                               run_snapshot, run_sweep, run_trial,
                               write_csv, write_manifest)
from reference import read_csv, trial_words

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

#: Config keys deleted from ExperimentConfig; files and flags naming one
#: must fail like a misspelling.
REMOVED_KEYS = ("blocks", "bem_literal_exponent", "fast_cost", "ts",
                "pilot_n_p", "pilot_zc_root", "pilot_power_db", "bem_k",
                "bias_correction_known_pdp", "doppler_spectrum", "bem_q",
                "advance")

#: Small, fast, noiseless link used across the harness tests.
TINY = ExperimentConfig(m=32, n=8, lcp=16, pilot_length=2,
                        channel="single_tap", nu_max_t=0.0, snr_db=None,
                        trials=3, seed=9)


class TestConfigParsing:
    """Flat key = value text to config dataclass."""

    def test_round_trip_through_manifest_format(self):
        """Every field survives rendering to text and parsing back."""
        config = ExperimentConfig(m=64, n=16, lcp=20, pilot_m_p=21,
                                  snr_db=None, theta=7, epsilon=None,
                                  cfo_half_width=1.0,
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
        ("snr_db = off", "snr_db", None),
        ("snr_db = 12.5", "snr_db", 12.5),
        ("theta = random", "theta", None),
        ("theta = -100", "theta", -100),
        ("epsilon = random", "epsilon", None),
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

    def test_removed_keys_are_unknown(self):
        """The deleted keys are refused like any misspelling, not silently
        ignored."""
        for key in REMOVED_KEYS:
            with pytest.raises(ValueError, match="unknown config key"):
                parse_config(f"{key} = 1")

    def test_malformed_line_raises(self):
        """Lines without '=' are reported with their number."""
        with pytest.raises(ValueError, match="line 2"):
            parse_config("m = 16\nnonsense\n")

    def test_one_replace_per_file(self, monkeypatch):
        """A config file is parsed into one set of values and applied in
        one ``replace``, not one per line."""
        calls = []
        replace = harness.replace

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return replace(*args, **kwargs)

        monkeypatch.setattr(harness, "replace", counted)
        config = load_config(CONFIG_DIR / "sweep_doppler_geometries.cfg")
        assert len(calls) == 1
        assert config.geometries == ((64, 64), (128, 32), (256, 16))

    def test_shipped_configs_parse(self):
        """The checked-in experiment configs all load."""
        paths = sorted(CONFIG_DIR.glob("*.cfg"))
        assert paths, "no shipped configs found"
        for path in paths:
            config = load_config(path)
            assert config.trials >= 1

    def test_every_key_varied_by_a_shipped_config(self):
        """Each config key is set to a non-default value by at least one
        file in configs/: a key that no shipped experiment varies is a
        constant, not a setting."""
        default = ExperimentConfig()
        configs = [load_config(p) for p in sorted(CONFIG_DIR.glob("*.cfg"))]
        unvaried = [f.name for f in dataclasses.fields(ExperimentConfig)
                    if all(getattr(c, f.name) == getattr(default, f.name)
                           for c in configs)]
        assert unvaried == []


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

    @staticmethod
    def _draws(root, trial):
        words = trial_words(root, trial)
        return [harness._child_rng(words, i).uniform() for i in range(4)]

    @staticmethod
    def _count_builds(monkeypatch):
        """The (seeding words as bytes, child) of every generator
        run_trial builds."""
        built = []
        child_rng = harness._child_rng

        def counting(words, child):
            built.append((words.tobytes(), child))
            return child_rng(words, child)

        monkeypatch.setattr(harness, "_child_rng", counting)
        return built

    @staticmethod
    def _count_passes(monkeypatch):
        """The (seed, start, count) of every seeding pass a run makes."""
        passes = []
        child_words = harness._child_words

        def counting(*args):
            passes.append(args)
            return child_words(*args)

        monkeypatch.setattr(harness, "_child_words", counting)
        return passes

    @staticmethod
    def _builds(seed, trials, children):
        """What :meth:`_count_builds` records when each of ``trials``
        builds each of ``children`` once, sorted."""
        return sorted((trial_words(seed, t).tobytes(), i)
                      for t in trials for i in children)

    def test_deterministic_per_index(self):
        """The same (root, trial) pair reproduces identical draws."""
        assert self._draws(5, 3) == self._draws(5, 3)

    def test_independent_across_indices(self):
        """Different trial indices draw from different streams."""
        assert self._draws(5, 3) != self._draws(5, 4)

    def test_children_are_the_spawned_ones(self):
        """The data, channel, noise and offset generators, children 0 to
        3, are the children that SeedSequence([root, trial]).spawn(4)
        makes: the same PCG64 state."""
        spawned = np.random.SeedSequence([5, 3]).spawn(4)
        words = trial_words(5, 3)
        for i, child in enumerate(spawned):
            assert harness._child_rng(words, i).bit_generator.state \
                == np.random.PCG64(child).state

    @settings(max_examples=80, deadline=None)
    @given(seed=st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5])
           | st.integers(0, 2 ** 100),
           trial=st.sampled_from([0, 1, 3, 4,
                                  harness._TABLE_BLOCK - 1,
                                  harness._TABLE_BLOCK,
                                  harness._TABLE_BLOCK + 1,
                                  harness._TABLE_BLOCK + 2])
           | st.integers(0, harness._TABLE_BLOCK + 9),
           before=st.integers(0, 3), after=st.integers(0, 3),
           child=st.integers(0, 3))
    @example(seed=2 ** 64 + 5, trial=harness._TABLE_BLOCK + 1, before=2,
             after=0, child=3)
    def test_table_generators_equal_numpys(self, seed, trial, before, after,
                                           child):
        """A generator built on a trial's row of a seeding pass has the
        state and draws of numpy's SeedSequence child, for one- to
        four-word seeds, wherever the row lies in the pass, in passes of
        one to eight trial indices on both sides of a block edge."""
        start = max(0, trial - before)
        rows = harness._child_words(seed, start, trial - start + 1 + after)
        reference = np.random.default_rng(np.random.SeedSequence(
            [seed, trial], spawn_key=(child,)))
        rng = harness._child_rng(rows[trial - start], child)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert_array_equal(rng.integers(0, 2 ** 63, 4),
                           reference.integers(0, 2 ** 63, 4))

    @pytest.mark.parametrize("trials", [1, 4])
    def test_run_seeds_from_one_table(self, tmp_path, monkeypatch, trials):
        """A run below one block seeds every generator from one pass over
        its trial indices, whatever its length, and each noiseless trial
        builds the data, channel and offset generators once each, from
        its own words."""
        built = self._count_builds(monkeypatch)
        passes = self._count_passes(monkeypatch)
        run_single(dataclasses.replace(TINY, trials=trials), tmp_path)
        assert passes == [(TINY.seed, 0, trials)]
        assert sorted(built) == self._builds(TINY.seed, range(trials),
                                             (0, 1, 3))

    def test_run_past_a_block_makes_one_pass_per_block(self, tmp_path,
                                                       monkeypatch):
        """A run of two trial indices past one block makes exactly two
        passes, the full first block and the two-trial rest, and its
        trials on both sides of the block edge equal direct run_trial
        calls, field for field."""
        trials = harness._TABLE_BLOCK + 2
        config = dataclasses.replace(TINY, trials=trials)
        passes = self._count_passes(monkeypatch)
        seen = []
        record = harness.aggregate

        def recording(value, results, ctx):
            seen.append(list(results))
            return record(value, results, ctx)

        monkeypatch.setattr(harness, "aggregate", recording)
        run_single(config, tmp_path)
        assert passes == [(TINY.seed, 0, harness._TABLE_BLOCK),
                          (TINY.seed, harness._TABLE_BLOCK, 2)]
        [results] = seen
        ctx = build_point(config)
        edge = range(harness._TABLE_BLOCK - 1, trials)
        assert results[edge.start:] == [
            run_trial([(config, ctx)], trial_words(TINY.seed, t))[0]
            for t in edge]

    def test_noise_stream_left_unbuilt(self, monkeypatch):
        """A noiseless trial builds the data, channel and offset
        generators once each and never the noise one."""
        built = self._count_builds(monkeypatch)
        run_trial([(TINY, build_point(TINY))], trial_words(TINY.seed, 4))
        assert sorted(built) == self._builds(TINY.seed, [4], (0, 1, 3))

    def test_noiseless_trial_builds_no_noise_seed(self, monkeypatch):
        """A point without noise never builds the noise stream; noisy
        points build it once per trial index, whatever their count."""
        built = self._count_builds(monkeypatch)
        ctx = build_point(TINY)
        noisy = [(dataclasses.replace(TINY, snr_db=v), ctx)
                 for v in (0.0, 20.0)]
        run_trial([(TINY, ctx)] + noisy, trial_words(TINY.seed, 4))
        assert [b for b in built if b[1] == 2] == \
            self._builds(TINY.seed, [4], (2,))


class TestRunTrial:
    """Single end-to-end trials."""

    def test_deterministic(self):
        """A repeated trial reproduces every field bit for bit."""
        ctx = build_point(TINY)
        [one] = run_trial([(TINY, ctx)], trial_words(TINY.seed, 0))
        [two] = run_trial([(TINY, ctx)], trial_words(TINY.seed, 0))
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
            [r] = run_trial([(TINY, ctx)], trial_words(TINY.seed, t))
            assert r.theta_hat == r.theta_true
            assert abs(r.eps_fine - r.eps_true) <= 1e-4

    def test_draws_shared_across_sweep_points(self):
        """Trial randomness depends on the trial index alone, so paired
        sweep points see identical offsets (common random numbers)."""
        noisy = dataclasses.replace(TINY, snr_db=0.0)
        ctx_a = build_point(TINY)
        ctx_b = build_point(noisy)
        [a] = run_trial([(TINY, ctx_a)], trial_words(TINY.seed, 2))
        [b] = run_trial([(noisy, ctx_b)], trial_words(TINY.seed, 2))
        assert a.theta_true == b.theta_true
        assert a.eps_true == b.eps_true

    def test_fixed_offsets_override_draws(self):
        """Explicit theta/epsilon settings pin every trial."""
        fixed = dataclasses.replace(TINY, theta=11, epsilon=0.375)
        ctx = build_point(fixed)
        [r] = run_trial([(fixed, ctx)], trial_words(TINY.seed, 4))
        assert r.theta_true == 11
        assert r.eps_true == 0.375

    def test_epsilon_draw_range(self):
        """A random epsilon is drawn over [-(N/2 - nu*T), N/2 - nu*T): at
        N = 8 and nu*T = 1.5 all 200 draws lie in [-2.5, 2.5), and the
        extremes come within 0.1 of both ends."""
        fading = dataclasses.replace(TINY, nu_max_t=1.5)
        ctx = build_point(fading)
        eps = [run_trial([(fading, ctx)], trial_words(TINY.seed, t))[0]
               .eps_true for t in range(200)]
        assert all(-2.5 <= e < 2.5 for e in eps)
        assert min(eps) < -2.4 and max(eps) > 2.4


    @pytest.mark.parametrize("stage", ["coarse_cfo"])
    def test_estimator_error_is_stage_failure(self, monkeypatch, stage):
        """The coarse CFO's refusal fails the trial with the ``coarse``
        label, after its timing estimate is kept."""
        def refuse(*args, **kwargs):
            raise ValueError("no lock")

        ctx = build_point(TINY)
        monkeypatch.setattr(harness, stage, refuse)
        [r] = run_trial([(TINY, ctx)], trial_words(TINY.seed, 0))
        assert r.failure == "coarse: no lock"
        assert r.theta_hat is not None
        assert (r.eps_coarse, r.eps_fine) == (None, None)

    @pytest.mark.parametrize("stage", ["estimate_to", "fine_cfo"])
    def test_stage_error_propagates(self, tmp_path, monkeypatch, stage):
        """Only the coarse CFO's refusal is a failed trial: a ValueError
        from the timing or fine-CFO stage is a bug, and raises out of
        run_trial and run_sweep."""
        def broken(*args, **kwargs):
            raise ValueError("shape mismatch")

        ctx = build_point(TINY)
        monkeypatch.setattr(harness, stage, broken)
        with pytest.raises(ValueError, match="^shape mismatch$"):
            run_trial([(TINY, ctx)], trial_words(TINY.seed, 0))
        with pytest.raises(ValueError, match="^shape mismatch$"):
            run_sweep(dataclasses.replace(TINY, sweep_values=(None, 20.0)),
                      tmp_path)
        assert not tmp_path.joinpath("results.csv").exists()

    @pytest.mark.parametrize("stage", ["estimate_to", "coarse_cfo",
                                       "fine_cfo"])
    def test_programming_error_propagates(self, monkeypatch, stage):
        """A TypeError is a bug, not a failed trial, and is raised."""
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        ctx = build_point(TINY)
        monkeypatch.setattr(harness, stage, broken)
        with pytest.raises(TypeError, match="bad call"):
            run_trial([(TINY, ctx)], trial_words(TINY.seed, 0))

    def test_every_traced_stage_called_once(self, monkeypatch):
        """One trial on a fading point calls each stage whose time
        perfbench's traced pass reports through the harness module's
        bindings, once each, so hoisting a stage out of run_trial shows
        here rather than as a missing span."""
        stages = ("build_frame", "build_stream", "realize_channel",
                  "apply_impairments", "estimate_to", "coarse_cfo",
                  "fine_cfo")
        calls = dict.fromkeys(stages, 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in stages:
            monkeypatch.setattr(harness, name,
                                counting(name, getattr(harness, name)))
        fading = dataclasses.replace(TINY, nu_max_t=0.5, snr_db=20.0)
        [r] = run_trial([(fading, build_point(fading))],
                        trial_words(TINY.seed, 0))
        assert r.failure is None
        assert calls == dict.fromkeys(stages, 1)

    @pytest.mark.parametrize("theta", [-100, 0, 127])
    def test_channel_synthesized_over_stream_reach(self, theta):
        """The traced realization covers exactly the buffer samples the
        shifted stream reaches, clipped to the 2 n_t buffer: at the
        derived advance of 97, theta = -100 clips the window at the
        buffer's start, and theta = 127, the last value in [-MN/2, MN/2),
        puts its end furthest in."""
        config = dataclasses.replace(TINY, theta=theta, epsilon=0.25)
        ctx = build_point(config)
        traces = {}
        run_trial([(config, ctx)], trial_words(TINY.seed, 0), traces)
        real = traces["realization"]
        shift, n_t = theta + ctx.advance, ctx.params.n_t
        assert ctx.advance == 97
        assert real.start == max(0, shift)
        assert real.stop == min(2 * n_t, shift + n_t + ctx.model.n_taps - 1)

    @pytest.mark.parametrize("snr_db", [-3.0, 0.0, 17.5])
    def test_noise_is_noiseless_plus_sigma_w(self, monkeypatch, snr_db):
        """The buffer timing sync receives at a noisy point is the one the
        noiseless point receives plus noise_sigma(snr_db) * w, bit for bit,
        with w the unit noise of the trial's noise stream."""
        seen = []
        estimate_to = harness.estimate_to

        def capture(received, *args):
            seen.append(received)
            return estimate_to(received, *args)

        monkeypatch.setattr(harness, "estimate_to", capture)
        noisy = dataclasses.replace(TINY, snr_db=snr_db)
        ctx = build_point(TINY)
        run_trial([(TINY, ctx), (noisy, ctx)], trial_words(TINY.seed, 2))
        clean, received = seen
        w = channel.unit_noise(
            2 * ctx.params.n_t,
            np.random.SeedSequence([TINY.seed, 2]).spawn(4)[2])
        assert np.array_equal(
            received, clean + channel.noise_sigma(snr_db) * w)

    def test_point_context_is_frozen(self):
        """Trials share the point context and its ML workspace read-only,
        down to the projector array."""
        ctx = build_point(TINY)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.advance = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.workspace.lam = None
        with pytest.raises(ValueError, match="read-only"):
            ctx.workspace.p[0] = 0


class TestBuildPoint:
    """Set-up checks that refuse a geometry before any trial."""

    def test_pilot_footprint_must_stay_in_its_slot(self):
        """The last pilot row m_p + L - 1, spread by the channel's largest
        powered delay, must land at or below row M - 1.  EVA at L = 21
        spreads by 20 rows, so at M = 64 the bound is m_p <= 23 and the
        centred m_p = 32 is refused; a single tap spreads by none, so
        there the pilot may end on the slot's last row."""
        wide = dataclasses.replace(TINY, m=64, n=64, lcp=20,
                                   pilot_length=21, channel="eva",
                                   nu_max_t=0.14)
        build_point(dataclasses.replace(wide, pilot_m_p=23))
        for m_p in (24, None):
            with pytest.raises(ValueError, match="footprint"):
                build_point(dataclasses.replace(wide, pilot_m_p=m_p))
        build_point(dataclasses.replace(wide, pilot_m_p=43,
                                        channel="single_tap"))


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
        """Geometry is not an axis: ``geometries`` repeats an SNR or
        Doppler axis per shape, and sweep=geometry is refused before
        anything is written."""
        config = dataclasses.replace(TINY, sweep="geometry",
                                     geometries=((32, 8), (16, 16)), trials=2)
        with pytest.raises(ValueError, match="unknown sweep axis"):
            run_sweep(config, tmp_path)
        assert not list(tmp_path.glob("*.csv"))

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
        such as lcp or cfo_half_width, gets one of its own."""
        key = context_key(TINY)
        assert context_key(dataclasses.replace(TINY, snr_db=5.0)) == key
        for change in ({"lcp": 20}, {"pilot_length": 3}, {"pilot_m_p": 5},
                       {"cfo_half_width": 1.0}):
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
        [trial] = run_trial([(TINY, build_point(TINY))],
                            trial_words(TINY.seed, 0))
        assert (report["theta_true"], report["eps_true"]) == \
            (trial.theta_true, trial.eps_true)
        assert (report["theta_hat"], report["eps_coarse"],
                report["eps_fine"]) == \
            (trial.theta_hat, trial.eps_coarse, trial.eps_fine)

    @pytest.mark.parametrize("stage", ["estimate_to", "coarse_cfo",
                                       "fine_cfo"])
    def test_snapshot_stage_failure_raises(self, tmp_path, monkeypatch,
                                           stage):
        """A snapshot whose coarse CFO refuses raises with the stage label;
        a ValueError from another stage reaches the caller as it is."""
        def refuse(*args, **kwargs):
            raise ValueError("no lock")

        monkeypatch.setattr(harness, stage, refuse)
        message = "snapshot trial failed at coarse: no lock" \
            if stage == "coarse_cfo" else "no lock"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_snapshot(TINY, tmp_path)


class TestSharedLink:
    """A run makes one run_trial call per trial index over all its points,
    which makes each trial artefact once per distinct input."""

    #: time-varying single tap, so the shared realization matters
    FADING = dataclasses.replace(TINY, nu_max_t=0.5, trials=4)

    #: three grids of MN = 256 whose pilot, prefix and buffer agree, so
    #: they share offsets, channel windows and noise
    EQUAL_MN = ((32, 8), (16, 16), (64, 4))

    @pytest.mark.parametrize("values", [(None, 0.0, 20.0),
                                        (20.0, None, 0.0), (20.0,),
                                        (None,)])
    def test_sweep_equals_point_major_trials(self, tmp_path, values):
        """run_sweep's summaries equal aggregate over point-major run_trial
        calls, one point each, field for field; one-point tables
        included."""
        config = dataclasses.replace(self.FADING, sweep="snr_db",
                                     sweep_values=values)
        summaries = run_sweep(config, tmp_path)["results.csv"]
        expected = []
        for value in values:
            point = dataclasses.replace(config, snr_db=value)
            ctx = build_point(point)
            expected.append(aggregate(
                value, [run_trial([(point, ctx)], trial_words(TINY.seed, t))[0]
                        for t in range(config.trials)], ctx))
        assert summaries == expected
        assert [s.failures for s in summaries] == [0] * len(values)

    @pytest.mark.parametrize("sweep, sweep_values, overrides", [
        ("nu_max_t", (0.0, 0.5),
         {"geometries": EQUAL_MN, "pilot_m_p": 4, "snr_db": 30.0}),
        ("nu_max_t", (0.5, 0.0),
         {"geometries": ((32, 8), (32, 16), (16, 16)), "pilot_m_p": 4,
          "snr_db": 10.0}),
        ("nu_max_t", (0.0, 0.5),
         {"geometries": ((32, 8), (16, 16)), "pilot_m_p": 4, "theta": 11}),
        ("snr_db", (None, 0.0, 20.0),
         {"geometries": ((32, 8), (16, 16)), "pilot_m_p": 4}),
    ], ids=["nu_over_equal_mn", "mixed_mn", "fixed_theta_random_eps",
            "noisy_and_noiseless"])
    def test_trial_major_equals_point_major(self, tmp_path, monkeypatch,
                                            sweep, sweep_values, overrides):
        """Each point's trial results in run_sweep equal one-point
        run_trial calls made point after point, field for field, and so
        do the summaries: over grids of equal MN, over grids of mixed MN
        and buffer length (32x16 may share nothing with the MN = 256
        grids), with theta fixed and epsilon drawn, and at noisy and
        noiseless points."""
        config = dataclasses.replace(self.FADING, sweep=sweep,
                                     sweep_values=sweep_values, **overrides)
        seen = []
        record = harness.aggregate

        def recording(value, results, ctx):
            seen.append(list(results))
            return record(value, results, ctx)

        monkeypatch.setattr(harness, "aggregate", recording)
        emitted = run_sweep(config, tmp_path)
        results, summaries = [], []
        for m, n in config.geometries:
            for value in sweep_values:
                point = dataclasses.replace(config, m=m, n=n,
                                            **{sweep: value})
                ctx = build_point(point)
                results.append([run_trial([(point, ctx)],
                                          trial_words(TINY.seed, t))[0]
                                for t in range(config.trials)])
                summaries.append(aggregate(value, results[-1], ctx))
        assert seen == results
        assert [s for table in emitted.values() for s in table] == summaries
        assert all(r.failure is None for point in seen for r in point)

    @pytest.mark.parametrize("sweep,values,snr_db,per_trial,geometries", [
        ("snr_db", (None, 10.0, 30.0), None, (1, 1, 1, 1), ()),
        ("nu_max_t", (0.0, 0.5), 30.0, (2, 1, 1, 2), ()),
        ("nu_max_t", (0.0, 0.5), None, (2, 1, 0, 2), ()),
        ("nu_max_t", (0.0, 0.5), 30.0, (2, 3, 1, 6), EQUAL_MN),
    ])
    def test_transmit_half_made_once_per_group(self, tmp_path, monkeypatch,
                                               sweep, values, snr_db,
                                               per_trial, geometries):
        """realize_channel, build_frame, the noise draw and
        apply_impairments run once per trial index and distinct input: the
        channel once per Doppler value, the frame once per geometry, the
        noise once per trial index, and never without noise, and the
        noiseless buffer once per point up to SNR, which the points of an
        SNR sweep share.  Across three grids of one MN, pilot and prefix,
        the noise and channel windows are shared too."""
        calls = {"realize_channel": 0, "build_frame": 0, "unit_noise": 0,
                 "apply_impairments": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(harness, name,
                                counting(name, getattr(harness, name)))
        config = dataclasses.replace(self.FADING, sweep=sweep,
                                     sweep_values=values, snr_db=snr_db,
                                     geometries=geometries, pilot_m_p=4)
        run_sweep(config, tmp_path)
        assert tuple(calls.values()) == tuple(config.trials * k
                                              for k in per_trial)

    def test_interleaved_points_remake_the_noiseless_buffer(self,
                                                            monkeypatch):
        """Two points that share a noiseless buffer but are not adjacent
        get it made twice, and every result still equals a one-point
        call's, field for field."""
        calls = []
        apply = harness.apply_impairments

        def counted(*args, **kwargs):
            calls.append(args[2:4])
            return apply(*args, **kwargs)

        monkeypatch.setattr(harness, "apply_impairments", counted)
        other = dataclasses.replace(self.FADING, nu_max_t=0.0)
        noisy = dataclasses.replace(self.FADING, snr_db=10.0)
        points = [(config, build_point(config))
                  for config in (self.FADING, other, noisy)]
        for t in range(self.FADING.trials):
            calls.clear()
            words = trial_words(TINY.seed, t)
            got = run_trial(points, words)
            assert len(calls) == 3 and calls[0] == calls[2]
            assert got == [run_trial([point], words)[0] for point in points]

    def test_noisy_only_failures_stay_at_their_points(self, tmp_path,
                                                      monkeypatch, caplog):
        """A coarse-CFO stub that refuses noisy buffers fails every trial
        of the noisy points and none of the noiseless one, and the failure
        warnings come out point by point in sweep order."""
        estimate_to, coarse_cfo = harness.estimate_to, harness.coarse_cfo
        noisy = []

        def spy(received, *args):
            # The noiseless buffer is exactly zero off the stream's reach.
            noisy.append(np.count_nonzero(received) == received.size)
            return estimate_to(received, *args)

        def noise_shy(*args):
            if noisy[-1]:
                raise ValueError("noisy")
            return coarse_cfo(*args)

        monkeypatch.setattr(harness, "estimate_to", spy)
        monkeypatch.setattr(harness, "coarse_cfo", noise_shy)
        config = dataclasses.replace(self.FADING, sweep="snr_db",
                                     sweep_values=(10.0, None, 20.0),
                                     trials=2)
        with caplog.at_level(logging.WARNING, logger="otfs_sync.harness"):
            summaries = run_sweep(config, tmp_path)["results.csv"]
        assert [s.failures for s in summaries] == [2, 0, 2]
        assert [r.getMessage() for r in caplog.records
                if r.name == "otfs_sync.harness"] == [
            "point 10.0: trial 0 failed (coarse: noisy)",
            "point 10.0: trial 1 failed (coarse: noisy)",
            "point 20.0: trial 0 failed (coarse: noisy)",
            "point 20.0: trial 1 failed (coarse: noisy)"]

    def test_shared_clean_buffer_is_read_only(self, monkeypatch):
        """The noiseless buffer that every noiseless point receives cannot
        be written, so no point can corrupt another's input: an estimator
        that writes into it raises out of run_trial."""
        def scribble(received, *args):
            received[0] = 0.0

        monkeypatch.setattr(harness, "estimate_to", scribble)
        ctx = build_point(self.FADING)
        with pytest.raises(ValueError, match="read-only"):
            run_trial([(self.FADING, ctx)], trial_words(TINY.seed, 0))


#: The verbs of the command line.
VERBS = ("run", "sweep", "snapshot")


def error_lines(capsys):
    """The ``otfs-sync: error:`` lines written to stderr so far."""
    return [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("otfs-sync: error:")]


class TestCli:
    """Command-line verbs end to end."""

    def _flags(self):
        return ["--m", "32", "--n", "8", "--lcp", "16",
                "--pilot_length", "2", "--channel", "single_tap",
                "--nu_max_t", "0",
                "--snr_db", "off", "--trials", "2",
                "--seed", "9"]

    def test_run_verb(self, tmp_path, capsys):
        """`run` executes the point and prints the summary line: every
        results column, each with the cell results.csv holds."""
        code = main(["run", "--out", str(tmp_path)] + self._flags())
        assert code == 0
        out = capsys.readouterr().out
        assert "to_err_var=0.0" in out
        header, row = (tmp_path / "results.csv").read_text().splitlines()
        assert out == " ".join(f"{key}={cell}" for key, cell
                               in zip(header.split(","), row.split(","))) \
            + "\n"

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

    def test_verbose_sweep_line_in_milliseconds(self, tmp_path, caplog):
        """`-v` logs one line per run, naming every point of every results
        file, with the run's wall time to the millisecond, so a short run
        does not read 0.0 s; `run` is a one-point run."""
        sweep = ["sweep", "--sweep", "snr_db", "--sweep_values", "50,60",
                 "--pilot_m_p", "4", "--geometries", "32x8,16x16"]
        for verb, points in (
                (["run"], r"results\.csv: snr_db=None"),
                (sweep, r"results_32x8\.csv: snr_db=50\.0,60\.0; "
                        r"results_16x16\.csv: snr_db=50\.0,60\.0")):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="otfs_sync.harness"):
                code = main(["-v"] + verb + ["--out", str(tmp_path)]
                            + self._flags())
            assert code == 0
            [line] = [r.getMessage() for r in caplog.records
                      if r.name == "otfs_sync.harness"]
            assert re.fullmatch(points + r" done in \d+\.\d{3} s "
                                r"\(2 trials each\)", line)

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        """An unknown flag is a usage error: exit status 2, nothing run.
        A prefix of a key (``--tri`` of ``trials``, ``--pilot_m`` of
        ``pilot_m_p``) is unknown too, as it is in a config file."""
        for flag in ("--no_such_key", "--tri", "--pilot_m"):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--out", str(tmp_path), flag, "7"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in \
                capsys.readouterr().err
            assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_flag_exits_2(self, tmp_path, capsys, key):
        """A deleted key has no flag: naming it is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--out", str(tmp_path), f"--{key}", "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_run_unknown_sweep_axis_raises(self, tmp_path, capsys):
        """`run` refuses a sweep axis that `sweep` refuses, before writing
        anything, as a usage error: exit status 2 and one error line."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--out", str(tmp_path), "--sweep", "bogus"]
                 + self._flags())
        assert exc.value.code == 2
        assert error_lines(capsys) == [
            "otfs-sync: error: unknown sweep axis 'bogus'"]
        assert not (tmp_path / "manifest.txt").exists()
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("verb, flags, message", [
        pytest.param(verb, flags, message, id=f"{name}-{verb}")
        for name, verbs, flags, message in [
            ("negative_half_width", VERBS, ["--cfo_half_width", "-0.5"],
             "cfo_half_width must be at least"),
            ("sub_step_half_width", VERBS, ["--cfo_half_width", "0.004"],
             "cfo_half_width must be at least"),
            # N = 8: past N/2 the fine search only revisits aliases of the
            # N-periodic cost, while its phase table keeps growing.
            ("half_width_past_half_n", VERBS, ["--cfo_half_width", "4.5"],
             "cfo_half_width must be at least one coarse step (0.01) and at "
             "most N/2 = 4, as the fine-CFO cost repeats every N bins, got "
             "4.5"),
            # One slot has no slot-to-slot phase advance: every trial
            # used to fail at the coarse stage, and the run exited 0.
            ("one_slot", VERBS, ["--n", "1"],
             "N must be at least 2, got N=1: the coarse CFO reads the phase "
             "advance between adjacent slots"),
            ("zero_trials", VERBS, ["--trials", "0"], "trials must be >= 1"),
            ("negative_seed", VERBS, ["--seed", "-1"],
             "seed must be >= 0, got -1"),
            ("negative_trials", VERBS, ["--trials", "-2"],
             "trials must be >= 1"),
            ("unparsable_trials", VERBS, ["--trials", "x"],
             "config key trials: invalid literal for int() with base 10: "
             "'x'"),
            ("unparsable_geometry", VERBS, ["--geometries", "64"],
             "config key geometries: not enough values to unpack"),
            ("pilot_footprint_past_slot", VERBS,
             ["--m", "64", "--n", "64", "--lcp", "20", "--pilot_length",
              "21", "--channel", "eva"],
             "received pilot footprint spans delay rows [11, 72] (m_p - L "
             "to m_p + L - 1 + largest tap delay), outside the slot's rows "
             "[0, 63]; move pilot_m_p"),
            # The reserved row m_p - L = -1 lies before the slot.
            ("pilot_before_row_zero", VERBS, ["--pilot_m_p", "1"],
             "received pilot footprint spans delay rows [-1, 2] (m_p - L "
             "to m_p + L - 1 + largest tap delay), outside the slot's rows "
             "[0, 31]; move pilot_m_p"),
            # The first grid builds; the second does not fit the pilot.
            ("pilot_past_later_geometry", ("sweep",),
             ["--sweep", "snr_db", "--sweep_values", "50", "--pilot_m_p",
              "20", "--geometries", "32x8,16x16"],
             "received pilot footprint spans delay rows [18, 21] (m_p - L "
             "to m_p + L - 1 + largest tap delay), outside the slot's rows "
             "[0, 15]; move pilot_m_p"),
            # Non-finite floats are refused as they are parsed.
            ("nan_snr", VERBS, ["--snr_db", "nan"],
             "config key snr_db: 'nan' is not a finite number"),
            ("nan_epsilon", VERBS, ["--epsilon", "nan"],
             "config key epsilon: 'nan' is not a finite number"),
            ("inf_epsilon", VERBS, ["--epsilon", "inf"],
             "config key epsilon: 'inf' is not a finite number"),
            ("inf_doppler", VERBS, ["--nu_max_t", "inf"],
             "config key nu_max_t: 'inf' is not a finite number"),
            ("nan_doppler", VERBS, ["--nu_max_t", "nan"],
             "config key nu_max_t: 'nan' is not a finite number"),
            ("overflowing_doppler", VERBS, ["--nu_max_t", "1e999"],
             "config key nu_max_t: '1e999' is not a finite number"),
            ("inf_half_width", VERBS, ["--cfo_half_width", "inf"],
             "config key cfo_half_width: 'inf' is not a finite number"),
            ("nan_sweep_value", ("sweep",), ["--sweep_values", "0,nan"],
             "config key sweep_values: 'nan' is not a finite number"),
            ("empty_sweep_values", ("sweep",), ["--sweep_values", ""],
             "sweep_values is empty"),
            ("one_sample_pilot", VERBS, ["--pilot_length", "1"],
             "the delay metric needs a pilot of length >= 2"),
            ("empty_pilot", VERBS, ["--pilot_length", "0"],
             "the delay metric needs a pilot of length >= 2"),
            ("negative_doppler", VERBS, ["--nu_max_t", "-1"],
             "nu_max_t must be >= 0"),
            # MN = 256 on the 32x8 link of _flags.
            ("theta_at_half_block", VERBS, ["--theta", "128"],
             "theta must lie in [-MN/2, MN/2) = [-128, 128), got 128"),
            ("theta_below_half_block", VERBS, ["--theta", "-129"],
             "theta must lie in [-MN/2, MN/2) = [-128, 128), got -129"),
            # N = 8: the coarse stage's ambiguity window is [-4, 4).
            ("epsilon_far_outside_window", VERBS, ["--epsilon", "1e16"],
             "epsilon must lie in [-N/2, N/2) = [-4, 4), got 1e+16"),
            ("epsilon_at_half_n", VERBS, ["--epsilon", "4"],
             "epsilon must lie in [-N/2, N/2) = [-4, 4), got 4.0"),
        ] for verb in verbs])
    def test_config_errors_exit_2(self, tmp_path, capsys, verb, flags,
                                  message):
        """A config value no trial can run with is a usage error before
        any trial: exit status 2, one error line, and nothing written, not
        even the output directory."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([verb, "--out", str(out)] + self._flags() + flags)
        assert exc.value.code == 2
        [line] = error_lines(capsys)
        assert line.startswith(f"otfs-sync: error: {message}")
        assert not out.exists()

    @staticmethod
    def _geometry_sweep_refused(tmp_path, capsys, flags, message):
        """The shipped geometry sweep with ``flags`` exits 2 with the one
        error line ``message`` and writes nothing."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config",
                  str(CONFIG_DIR / "sweep_doppler_geometries.cfg"),
                  "--out", str(out)] + flags)
        assert exc.value.code == 2
        assert error_lines(capsys) == [f"otfs-sync: error: {message}"]
        assert not out.exists()

    def test_epsilon_past_later_geometry_exits_2(self, tmp_path, capsys):
        """A fixed epsilon is checked against each geometry's window
        [-N/2, N/2): on the shipped geometry sweep, 10 fits 64x64 and
        128x32 but not 256x16, so the sweep is refused before any trial
        and writes nothing."""
        self._geometry_sweep_refused(
            tmp_path, capsys, ["--epsilon", "10"],
            "epsilon must lie in [-N/2, N/2) = [-8, 8), got 10.0")

    def test_half_width_past_later_geometry_exits_2(self, tmp_path, capsys):
        """The fine search's half width is checked against each
        geometry's N/2: on the shipped geometry sweep, 9 fits 64x64 and
        128x32 but not 256x16, so the sweep is refused before any trial
        and writes nothing."""
        self._geometry_sweep_refused(
            tmp_path, capsys, ["--cfo_half_width", "9"],
            "cfo_half_width must be at least one coarse step (0.01) and at "
            "most N/2 = 8, as the fine-CFO cost repeats every N bins, got "
            "9.0")

    def test_seeds_past_32_bits_run(self, tmp_path, capsys):
        """Seeds of 2^32 and above are valid: the seeding pass takes them
        as several 32-bit words, as SeedSequence does."""
        for seed in (2 ** 32, 2 ** 64 + 5):
            code = main(["run", "--out", str(tmp_path / str(seed))]
                        + self._flags() + ["--seed", str(seed)])
            assert code == 0
            assert "to_err_var=0.0" in capsys.readouterr().out

    def test_unknown_config_file_key_exits_2(self, tmp_path, capsys):
        """An unknown key in a --config file is a usage error too, and
        names its line."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m = 32\nno_such_key = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert error_lines(capsys) == [
            "otfs-sync: error: config line 2: unknown config key "
            "'no_such_key'"]

    def test_config_file_value_error_names_line_and_key(self, tmp_path,
                                                         capsys):
        """A value in a --config file that does not parse is reported
        with its line and its key."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# header\nm = 32\n\ntrials = x\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert error_lines(capsys) == [
            "otfs-sync: error: config line 4: config key trials: invalid "
            "literal for int() with base 10: 'x'"]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        """Flags override file values, which override the defaults."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m = 32\nn = 8\nlcp = 16\n"
                       "pilot_length = 2\nchannel = single_tap\n"
                       "nu_max_t = 0\n"
                       "snr_db = off\ntrials = 5\nseed = 9\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out_dir),
                     "--trials", "2"])
        assert code == 0
        assert "trials=2" in capsys.readouterr().out
        manifest = (out_dir / "manifest.txt").read_text()
        assert "trials=2" in manifest
        assert "m=32" in manifest

"""Tests for LTV channel synthesis and impairment injection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import j0

from otfs_sync import channel
from otfs_sync.channel import (JAKES_SINUSOIDS, MAX_BLOCK, TAYLOR_TERMS,
                               ChannelModel, ChannelRealization,
                               apply_impairments, eva_model, mean_delay,
                               noise_sigma, realize_channel, single_tap_model,
                               stream_reach, tap_rows, unit_noise)
from otfs_sync.harness import write_csv
from otfs_sync.modem import OtfsParams

#: The shipped 128x32 geometry with its 2 n_t observation buffer.
PARAMS = OtfsParams(m=128, n=32, lcp=32)


def exact_taps(model, params, seed, start, duration):
    """The definitional form: sqrt(p/S) sum_s exp(j (phi + omega k)) with
    one exact exponential per sinusoid and sample, from the draws of
    ``realize_channel`` (psi then phi, per tap, in tap order).  One row per
    delay bin of the model, dead bins included (as zero rows)."""
    rng = np.random.default_rng(seed)
    k = np.arange(start, start + duration)
    taps = np.zeros((model.n_taps, duration), dtype=complex)
    for ell in range(model.n_taps):
        psi = rng.uniform(0.0, 2.0 * np.pi, JAKES_SINUSOIDS)
        phi = rng.uniform(0.0, 2.0 * np.pi, JAKES_SINUSOIDS)
        omega = 2.0 * np.pi * model.nu_max_t / params.mn * np.cos(psi)
        taps[ell] = np.sqrt(model.pdp[ell] / JAKES_SINUSOIDS) * np.exp(
            1j * (phi[:, None] + omega[:, None] * k[None, :])).sum(axis=0)
    return taps


class TestChannelModel:
    """PDP validation and model construction."""

    def test_rejects_bad_pdp(self):
        """Negative powers and profiles that miss unit sum are refused."""
        with pytest.raises(ValueError):
            ChannelModel(pdp=np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            ChannelModel(pdp=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            ChannelModel(pdp=np.array([1.0]), nu_max_t=-1.0)

    def test_single_tap_model(self):
        """The single-tap helper is a unit-power tap at delay zero, static
        by default."""
        model = single_tap_model()
        assert model.n_taps == 1
        assert_allclose(model.pdp, [1.0])
        assert model.nu_max_t == 0.0

    def test_powered_taps_derived_once(self):
        """The model carries its powered delay bins and their per-sinusoid
        amplitudes sqrt(p / S), read-only, and a realization reuses them."""
        model = eva_model(21, 0.25)
        assert_array_equal(model.delays, np.flatnonzero(model.pdp))
        assert_array_equal(model.gains, np.sqrt(model.pdp[model.delays])
                           * (1.0 / np.sqrt(JAKES_SINUSOIDS)))
        for derived in (model.delays, model.gains):
            with pytest.raises(ValueError):
                derived[0] = 0
        assert realize_channel(model, PARAMS, 10, seed=1).delays \
            is model.delays


class TestEvaProfile:
    """Vehicular multipath profile resampled to the working bandwidth."""

    def test_bin_mapping_at_design_rate(self):
        """At Ts = 1/8.25 MHz the nine standard taps land on seven bins,
        with the last clipped into bin 20."""
        assert channel.EVA_TS == 1.0 / 8.25e6
        model = eva_model(21, 0.0)
        assert model.n_taps == 21
        assert_array_equal(np.nonzero(model.pdp)[0], [0, 1, 3, 6, 9, 14, 20])
        assert_allclose(model.pdp.sum(), 1.0, rtol=1e-12)

    def test_first_bin_merges_two_taps(self):
        """The 0 ns and 30 ns taps share bin 0, so its power exceeds the
        strongest single tap's normalized share."""
        model = eva_model(21, 0.0)
        assert model.pdp[0] > 0.41

    def test_mean_delay_value(self):
        """The PDP-weighted mean delay of the 21-tap profile is fixed."""
        model = eva_model(21, 0.0)
        assert_allclose(mean_delay(model), 3.043561946127299, rtol=1e-12)

    def test_clipping_warns(self, caplog):
        """Taps beyond the modeled span are folded into the last bin with
        a logged warning."""
        with caplog.at_level("WARNING", logger="otfs_sync.channel"):
            eva_model(10, 0.0)
        assert any("clipped" in rec.message for rec in caplog.records)

    def test_one_bin_rounding_fold_is_quiet(self, caplog):
        """At the design rate and L = 21 the 2510 ns tap rounds to bin 21,
        one past the span; that expected fold is logged at DEBUG only."""
        with caplog.at_level("DEBUG", logger="otfs_sync.channel"):
            eva_model(21, 0.0)
        assert not [rec for rec in caplog.records
                    if rec.levelname == "WARNING"]
        assert any("folded" in rec.message for rec in caplog.records)


class TestMeanDelay:
    """First-moment bias constant used by the timing estimator."""

    def test_single_tap_is_one(self):
        """A lone tap at delay zero reports mean delay 1."""
        assert mean_delay(single_tap_model()) == 1.0

    def test_two_equal_taps(self):
        """Equal taps at delays {0, 1} average to 1.5."""
        model = ChannelModel(pdp=np.array([0.5, 0.5]))
        assert mean_delay(model) == 1.5


class TestRealizeChannel:
    """Sum-of-sinusoids tap processes."""

    def setup_method(self):
        self.params = OtfsParams(m=16, n=8, lcp=4)

    def test_shape_and_determinism(self):
        """The realization is (powered taps, duration) and
        seed-reproducible."""
        model = eva_model(21, 0.01)
        params = OtfsParams(m=16, n=8, lcp=4)
        one = realize_channel(model, params, 50, seed=42)
        two = realize_channel(model, params, 50, seed=42)
        assert one.taps.shape == (7, 50)
        assert_array_equal(one.delays, [0, 1, 3, 6, 9, 14, 20])
        assert_array_equal(one.taps, two.taps)
        other = realize_channel(model, params, 50, seed=43)
        assert np.any(other.taps != one.taps)

    def test_delays_are_required(self):
        """A realization names the delay bin of every row; there is no
        implied dense layout."""
        with pytest.raises(TypeError):
            ChannelRealization(taps=np.ones((1, 4), dtype=complex))

    def test_static_taps_are_constant(self):
        """The static single tap (nu_max_t = 0) holds its initial value."""
        model = single_tap_model()
        real = realize_channel(model, self.params, 40, seed=1)
        assert_array_equal(real.taps, np.tile(real.taps[:, :1], (1, 40)))

    def test_zero_doppler_is_constant(self):
        """A model built with nu_max_t = 0 freezes the taps."""
        model = ChannelModel(pdp=np.array([1.0]), nu_max_t=0.0)
        real = realize_channel(model, self.params, 40, seed=1)
        assert_array_equal(real.taps, np.tile(real.taps[:, :1], (1, 40)))

    def test_underflowing_doppler_is_constant(self):
        """A Doppler so small that omega_max = 2 pi nu_max_t / (M N)
        rounds to zero freezes the taps instead of sizing blocks by 1 / 0:
        at M N = 128 the smallest subnormal nu_max_t does."""
        assert 2.0 * np.pi * 5e-324 / self.params.mn == 0.0
        model = ChannelModel(pdp=np.array([1.0]), nu_max_t=5e-324)
        real = realize_channel(model, self.params, 40, seed=1)
        assert_array_equal(real.taps, np.tile(real.taps[:, :1], (1, 40)))

    @staticmethod
    def _draws(model, seed):
        """The (psi, phi) pairs of every tap, drawn in synthesis order."""
        rng = np.random.default_rng(seed)
        return [(rng.uniform(0.0, 2.0 * np.pi, JAKES_SINUSOIDS),
                 rng.uniform(0.0, 2.0 * np.pi, JAKES_SINUSOIDS))
                for _ in range(model.n_taps)]

    @pytest.mark.parametrize("duration", [
        1, 2, 97, 2 * OtfsParams(m=128, n=32, lcp=32).n_t])
    def test_matches_exact_sum_of_sinusoids(self, duration):
        """Every sample equals sqrt(p/S) sum_s exp(j (phi + omega k)) with
        exact exponentials, from the same draws, within 1e-12."""
        params = OtfsParams(m=128, n=32, lcp=32)
        model = eva_model(21, 1.36)
        real = realize_channel(model, params, duration, seed=7)
        assert_array_equal(real.delays, np.flatnonzero(model.pdp))
        k = np.arange(duration)
        draws = self._draws(model, 7)
        for ell, row in zip(real.delays, real.taps):
            psi, phi = draws[ell]
            omega = 2.0 * np.pi * model.nu_max_t / params.mn * np.cos(psi)
            exact = np.sqrt(model.pdp[ell] / JAKES_SINUSOIDS) * np.exp(
                1j * (phi[:, None] + omega[:, None] * k[None, :])).sum(axis=0)
            assert_allclose(row, exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("nu_t", [0.14, 1.36])
    @pytest.mark.parametrize("duration", [1, 2, 97, PARAMS.n_t + 21 - 1])
    def test_window_matches_exact_sum(self, duration, nu_t):
        """A window at start > 0 equals the exact per-tap sum over absolute
        samples [start, start + duration), within 1e-12."""
        model = eva_model(21, nu_t)
        real = realize_channel(model, PARAMS, duration, seed=7, start=1523)
        assert (real.start, real.stop) == (1523, 1523 + duration)
        assert_array_equal(real.delays, np.flatnonzero(model.pdp))
        exact = exact_taps(model, PARAMS, 7, 1523, duration)
        for ell, row in zip(real.delays, real.taps):
            assert_allclose(row, exact[ell], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("nu_t", [pytest.param(1.36, id="jakes"),
                                      pytest.param(0.0, id="static")])
    def test_window_is_slice_of_full_realization(self, nu_t):
        """A window reproduces the matching slice of the start-0
        realization of the same seed, within 1e-14 (static: exactly)."""
        model = eva_model(21, nu_t)
        full = realize_channel(model, PARAMS, 2 * PARAMS.n_t, seed=5)
        for start, duration in [(0, 1), (1500, 4148), (6000, 2256),
                                (8255, 1)]:
            real = realize_channel(model, PARAMS, duration, seed=5,
                                   start=start)
            window = full.taps[:, start:start + duration]
            assert_array_equal(real.taps == 0.0, window == 0.0)
            assert_allclose(real.taps, window, rtol=0, atol=1e-14)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(start=st.integers(0, 20000), duration=st.integers(1, 700),
           nu_t=st.floats(0.01, 4.0),
           powers=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)
           .filter(lambda p: sum(p) > 0.1))
    def test_window_property(self, start, duration, nu_t, powers):
        """Over random windows, Doppler values and PDPs (dead taps
        included), the synthesis holds exactly the powered taps and
        matches the exact sum within 1e-12."""
        pdp = np.array(powers) / np.sum(powers)
        model = ChannelModel(pdp=pdp, nu_max_t=nu_t)
        real = realize_channel(model, PARAMS, duration, seed=start,
                               start=start)
        assert_array_equal(real.delays, np.flatnonzero(pdp))
        exact = exact_taps(model, PARAMS, start, start, duration)
        for ell, row in zip(real.delays, real.taps):
            assert_allclose(row, exact[ell], rtol=0, atol=1e-12)

    @staticmethod
    def _model_at(nu_t):
        """EVA at nu*T on PARAMS, with its omega_max = 2 pi nu*T / (M N)."""
        return eva_model(21, nu_t), 2.0 * np.pi * nu_t / PARAMS.mn

    @pytest.mark.parametrize("nu_t, width, start, durations", [
        (0.01, MAX_BLOCK, 0, [MAX_BLOCK - 1, MAX_BLOCK + 1, 3 * MAX_BLOCK]),
        (1.36, 480, 0, [479, 480, 481, 9 * 480 + 3]),
        (40.0, 17, 0, [1, 17, 18, 700]),
        (1.36, 480, 20011, [1, 4148]),
    ])
    def test_blocks_match_exact_sum(self, nu_t, width, start, durations):
        """At the MAX_BLOCK cap (low Doppler), at the 1/omega_max bound
        (W = 480 at 128x32, nu*T = 1.36, durations around one and nine
        blocks), with many small blocks (nu*T = 40, W = 17) and for
        windows past sample 20000, every row matches the exact sum within
        1e-12, and the realization uses blocks of the expected width."""
        model, omega_max = self._model_at(nu_t)
        assert width == min(MAX_BLOCK, int(1.0 / omega_max) + 1)
        for duration in durations:
            channel._power_table.cache_clear()
            real = realize_channel(model, PARAMS, duration, seed=duration,
                                   start=start)
            channel._power_table(width, omega_max)
            assert channel._power_table.cache_info().hits == 1
            assert real.taps.shape == (7, duration)
            exact = exact_taps(model, PARAMS, duration, start, duration)
            for ell, row in zip(real.delays, real.taps):
                assert_allclose(row, exact[ell], rtol=0, atol=1e-12)

    def test_power_table_is_cached_and_read_only(self):
        """The Taylor power table (j omega_max x)^p / p! over a block's
        centred offsets is built once per (W, omega_max), refuses writes,
        and matches its definition."""
        _, omega_max = self._model_at(1.36)
        table = channel._power_table(480, omega_max)
        assert channel._power_table(480, omega_max) is table
        assert table.shape == (TAYLOR_TERMS, 480)
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        x = np.arange(480) - 239.5
        assert np.max(np.abs(omega_max * x)) <= 0.5
        for p in range(TAYLOR_TERMS):
            assert_allclose(table[p], (1j * omega_max * x) ** p
                            / math.factorial(p), rtol=1e-14, atol=0)

    def test_only_powered_taps_have_rows(self):
        """Taps without PDP power get no row: at EVA L = 21 the
        realization holds the 7 powered bins, every row nonzero."""
        model = eva_model(21, 0.01)
        real = realize_channel(model, OtfsParams(m=16, n=8, lcp=4), 300,
                               seed=3)
        assert_array_equal(real.delays, np.flatnonzero(model.pdp))
        assert real.delays.size == 7
        assert np.all(real.taps != 0.0)

    def test_static_branch_matches_per_tap_form(self):
        """A static multi-tap profile holds each tap at its k = 0 value,
        amps * S^-1/2 * sum(exp(j phi)), bit for bit."""
        model = eva_model(21, 0.0)
        real = realize_channel(model, self.params, 25, seed=11)
        assert_array_equal(real.delays, np.flatnonzero(model.pdp))
        scale = 1.0 / np.sqrt(JAKES_SINUSOIDS)
        draws = self._draws(model, 11)
        for ell, row in zip(real.delays, real.taps):
            value = np.sqrt(model.pdp[ell]) * scale \
                * np.exp(1j * draws[ell][1]).sum()
            assert_array_equal(row, np.full(25, value))

    def test_per_tap_power_matches_pdp(self):
        """Averaged over realizations, each tap's power follows the PDP."""
        model = ChannelModel(pdp=np.array([0.6, 0.3, 0.1]), nu_max_t=2.56)
        powers = np.zeros(3)
        n_draws = 400
        for seed in range(n_draws):
            real = realize_channel(model, self.params, 30, seed=seed)
            powers += np.mean(np.abs(real.taps) ** 2, axis=1)
        assert_allclose(powers / n_draws, model.pdp, atol=0.03)

    def test_jakes_autocorrelation(self):
        """The tap autocorrelation follows the zeroth-order Bessel curve
        of isotropic scattering, E[h(k+tau) h*(k)] = J0(2 pi nu*T tau / (M N))
        at a lag of tau samples."""
        nu_t = 1.28
        model = ChannelModel(pdp=np.array([1.0]), nu_max_t=nu_t)
        duration, lags = 200, [0, 20, 50]
        acc = np.zeros(len(lags), dtype=complex)
        n_draws = 300
        for seed in range(n_draws):
            h = realize_channel(model, self.params, duration, seed=seed).taps[0]
            for i, lag in enumerate(lags):
                span = duration - lag
                acc[i] += np.mean(h[lag:] * np.conj(h[:span]))
        estimate = acc / n_draws
        expected = j0(2 * np.pi * nu_t * np.array(lags) / self.params.mn)
        assert_allclose(estimate.real, expected, atol=0.05)
        assert_allclose(estimate.imag, np.zeros(len(lags)), atol=0.05)


class TestApplyImpairments:
    """Timing shift and CFO rotation on the serialized stream; the AWGN
    helpers the trial adds on top."""

    def setup_method(self):
        self.params = OtfsParams(m=8, n=4, lcp=2)
        self.stream = (np.arange(1, 11) + 1j * np.arange(10)).astype(complex)

    def _unit_channel(self, duration):
        return ChannelRealization(taps=np.ones((1, duration), dtype=complex),
                                  delays=np.array([0]))

    def test_pure_delay(self):
        """A unit tap with timing offset theta shifts the stream."""
        real = self._unit_channel(20)
        out = apply_impairments(self.stream, real, 5, 0.0,
                                self.params)
        assert_array_equal(out[:5], np.zeros(5))
        assert_array_equal(out[5:15], self.stream)
        assert_array_equal(out[15:], np.zeros(5))

    def test_negative_delay_truncates(self):
        """A negative offset slides the stream out of the buffer head."""
        real = self._unit_channel(20)
        out = apply_impairments(self.stream, real, -3, 0.0,
                                self.params)
        assert_array_equal(out[:7], self.stream[3:])
        assert_array_equal(out[7:], np.zeros(13))

    def test_multipath_superposition(self):
        """Each tap delays by its delay bin and scales by its gain."""
        taps = np.array([np.full(16, 1.0), np.full(16, 0.5j)])
        real = ChannelRealization(taps=taps, delays=np.array([0, 2]))
        out = apply_impairments(self.stream, real, 0, 0.0, self.params)
        expected = np.zeros(16, dtype=complex)
        expected[:10] += self.stream
        expected[2:12] += 0.5j * self.stream
        assert_allclose(out, expected, atol=1e-12)

    def test_cfo_phase_ramp(self):
        """CFO multiplies sample k by exp(j 2 pi eps k / (M N))."""
        real = self._unit_channel(10)
        eps = 0.37
        out = apply_impairments(self.stream, real, 0, eps,
                                self.params)
        ramp = np.exp(2j * np.pi * eps * np.arange(10) / self.params.mn)
        assert_allclose(out, self.stream * ramp, atol=1e-12)

    def test_noise_power_and_determinism(self):
        """noise_sigma * unit_noise has 10^(-snr/10) complex variance,
        reproducibly."""
        out = noise_sigma(10.0) * unit_noise(20000, 5)
        assert_array_equal(out, noise_sigma(10.0) * unit_noise(20000, 5))
        assert_allclose(np.mean(np.abs(out) ** 2), 0.1, rtol=0.05)

    @pytest.mark.parametrize("snr_db", [-3.0, 0.0, 17.5])
    def test_noise_helpers_are_literal_formula(self, snr_db):
        """w is the literal standard-normal pair, real part drawn first,
        and sigma is sqrt(10^(-snr/10) / 2)."""
        rng = np.random.default_rng(8)
        literal = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        assert np.array_equal(unit_noise(20, 8), literal)
        assert noise_sigma(snr_db) == np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)

    def test_noiseless_when_snr_none(self):
        """The impairments add no noise at all."""
        real = self._unit_channel(10)
        out = apply_impairments(self.stream, real, 0, 0.0,
                                self.params)
        assert_array_equal(out, self.stream)

    @pytest.mark.parametrize("theta", [0, 3, -4])
    def test_taps_live_only_at_their_reach_edges(self, theta):
        """A tap nonzero only where the stream's first sample lands, and one
        nonzero only where its last sample lands, both contribute."""
        taps = np.zeros((2, 20), dtype=complex)
        taps[0, max(0, theta)] = 1.0
        taps[1, theta + 2 + self.stream.size - 1] = 2.0
        real = ChannelRealization(taps=taps, delays=np.array([0, 2]))
        out = apply_impairments(self.stream, real,
                                theta, 0.0, self.params)
        expected = np.zeros(20, dtype=complex)
        expected[max(0, theta)] = self.stream[max(0, -theta)]
        expected[theta + 2 + self.stream.size - 1] = 2.0 * self.stream[-1]
        assert_array_equal(out, expected)

    @pytest.mark.parametrize("theta", [1960, -300, 0])
    def test_dead_taps_skipped_bit_identically(self, theta):
        """On a seeded EVA trial at L = 21, where 14 bins carry no power,
        the output equals the loop over all 21 taps of the dense layout
        (dead rows exactly zero) bit for bit."""
        params = OtfsParams(m=128, n=32, lcp=32)
        model = eva_model(21, 1.36)
        rng = np.random.default_rng(11)
        stream = rng.standard_normal(params.n_t) \
            + 1j * rng.standard_normal(params.n_t)
        real = realize_channel(model, params, 2 * params.n_t, seed=12)
        assert real.delays.size == 7
        dense = np.zeros((model.n_taps, real.duration), dtype=complex)
        dense[real.delays] = real.taps
        out = apply_impairments(stream, real, theta, 0.37, params)
        expected = np.zeros(real.duration, dtype=complex)
        for ell in range(model.n_taps):
            shift = theta + ell
            lo, hi = max(0, shift), min(real.duration, stream.size + shift)
            expected[lo:hi] += dense[ell, lo:hi] \
                * stream[lo - shift:hi - shift]
        expected *= np.exp(2j * np.pi * 0.37
                           * np.arange(real.duration) / params.mn)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("theta", [-300, 7000, 1960])
    def test_window_matches_full_realization(self, theta):
        """Fed only the stream's reach, the impairments match the full
        2 n_t realization: bit for bit on the sliced window, within 1e-12
        on a separately synthesized one.  The shifts cover a stream
        starting before the buffer, one running past its end, and one in
        the middle."""
        params = PARAMS
        length = 2 * params.n_t
        model = eva_model(21, 1.36)
        rng = np.random.default_rng(11)
        stream = rng.standard_normal(params.n_t) \
            + 1j * rng.standard_normal(params.n_t)
        lo, hi = stream_reach(theta, stream.size, model.n_taps, length)
        assert (lo, hi) == (max(0, theta),
                            min(length, theta + params.n_t + 20))
        full = realize_channel(model, params, length, seed=12)
        expected = apply_impairments(stream, full, theta, 0.37, params)
        sliced = ChannelRealization(taps=full.taps[:, lo:hi],
                                    delays=full.delays, start=lo)
        out = apply_impairments(stream, sliced, theta, 0.37, params,
                                length=length)
        assert np.array_equal(out, expected)
        window = realize_channel(model, params, hi - lo, seed=12, start=lo)
        out = apply_impairments(stream, window, theta, 0.37, params,
                                length=length)
        assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("start, stop", [(6, 15), (5, 14)])
    def test_window_missing_reach_raises(self, start, stop):
        """A realization that misses a sample of the reach is refused."""
        real = ChannelRealization(
            taps=np.ones((1, stop - start), dtype=complex),
            delays=np.array([0]), start=start)
        assert stream_reach(5, self.stream.size, 1, 20) == (5, 15)
        with pytest.raises(ValueError, match="does not cover"):
            apply_impairments(self.stream, real, 5, 0.0,
                              self.params, length=20)

    def test_fractional_theta_raises(self):
        """Non-integer timing offsets are refused."""
        real = self._unit_channel(10)
        with pytest.raises(ValueError):
            apply_impairments(self.stream, real, 1.5, 0.0,
                              self.params)


class TestExportTaps:
    """Tap-gain rows (``tap_rows``), written as the snapshot writes
    ``channel_taps.csv``."""

    def test_round_trip(self, tmp_path):
        """The written rows reproduce every gain exactly, and list exactly
        the realization's delay bins as ``ell``."""
        taps = np.array([[1.0 + 2.0j, -0.5j], [0.25, 3.0 - 1.0j]])
        real = ChannelRealization(taps=taps, delays=np.array([1, 4]))
        path = tmp_path / "taps.csv"
        write_csv(path, ("k", "ell", "re", "im"), tap_rows(real))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,ell,re,im"
        parsed = {}
        for line in lines[1:]:
            k, ell, re, im = line.split(",")
            parsed[int(ell), int(k)] = float(re) + 1j * float(im)
        assert sorted({ell for ell, _ in parsed}) == [1, 4]
        assert_array_equal([[parsed[ell, k] for k in range(2)]
                            for ell in (1, 4)], taps)

    def test_round_trip_windowed(self, tmp_path):
        """A window yields absolute sample indices k = start + j and only
        the samples it covers."""
        taps = np.array([[1.0 + 2.0j, -0.5j, 7.0], [0.25, 3.0 - 1.0j, 0.0]])
        real = ChannelRealization(taps=taps, delays=np.array([0, 2]),
                                  start=40)
        path = tmp_path / "taps.csv"
        write_csv(path, ("k", "ell", "re", "im"), tap_rows(real))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,ell,re,im"
        assert len(lines) == 1 + taps.size
        parsed = {}
        for line in lines[1:]:
            k, ell, re, im = line.split(",")
            parsed[int(ell), int(k)] = float(re) + 1j * float(im)
        assert sorted({k for _, k in parsed}) == [40, 41, 42]
        assert sorted({ell for ell, _ in parsed}) == [0, 2]
        assert_array_equal([[parsed[ell, 40 + j] for j in range(3)]
                            for ell in (0, 2)], taps)

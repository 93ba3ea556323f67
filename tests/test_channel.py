"""Tests for LTV channel synthesis and impairment injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import j0

from otfs_sync.channel import (JAKES_SINUSOIDS, ChannelModel,
                               ChannelRealization, Impairments,
                               apply_impairments, eva_model, export_taps,
                               mean_delay, realize_channel, single_tap_model,
                               stream_reach)
from otfs_sync.modem import OtfsParams

#: The shipped 128x32 geometry with its 2 n_t observation buffer.
PARAMS = OtfsParams(m=128, n=32, lcp=32)


def exact_taps(model, params, seed, start, duration):
    """The definitional form: sqrt(p/S) sum_s exp(j (phi + omega k)) with
    one exact exponential per sinusoid and sample, from the draws of
    ``realize_channel`` (psi then phi, per tap, in tap order)."""
    rng = np.random.default_rng(seed)
    k = np.arange(start, start + duration)
    taps = np.zeros((model.n_taps, duration), dtype=complex)
    for ell in range(model.n_taps):
        psi = rng.uniform(0.0, 2.0 * np.pi, JAKES_SINUSOIDS)
        phi = rng.uniform(0.0, 2.0 * np.pi, JAKES_SINUSOIDS)
        omega = 2.0 * np.pi * model.nu_max * params.ts * np.cos(psi)
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
            ChannelModel(pdp=np.array([1.0]), nu_max=-1.0)
        with pytest.raises(ValueError):
            ChannelModel(pdp=np.array([1.0]), doppler_spectrum="flat")

    def test_single_tap_model(self):
        """The single-tap helper is a unit-power tap at delay zero."""
        model = single_tap_model()
        assert model.n_taps == 1
        assert_allclose(model.pdp, [1.0])
        assert model.doppler_spectrum == "static"


class TestEvaProfile:
    """Vehicular multipath profile resampled to the working bandwidth."""

    def test_bin_mapping_at_design_rate(self):
        """At Ts = 1/8.25 MHz the nine standard taps land on seven bins,
        with the last clipped into bin 20."""
        model = eva_model(1.0 / 8.25e6, 21, 0.0)
        assert model.n_taps == 21
        assert_array_equal(np.nonzero(model.pdp)[0], [0, 1, 3, 6, 9, 14, 20])
        assert_allclose(model.pdp.sum(), 1.0, rtol=1e-12)

    def test_first_bin_merges_two_taps(self):
        """The 0 ns and 30 ns taps share bin 0, so its power exceeds the
        strongest single tap's normalized share."""
        model = eva_model(1.0 / 8.25e6, 21, 0.0)
        assert model.pdp[0] > 0.41

    def test_mean_delay_value(self):
        """The PDP-weighted mean delay of the 21-tap profile is fixed."""
        model = eva_model(1.0 / 8.25e6, 21, 0.0)
        assert_allclose(mean_delay(model), 3.043561946127299, rtol=1e-12)

    def test_clipping_warns(self, caplog):
        """Taps beyond the modeled span are folded into the last bin with
        a logged warning."""
        with caplog.at_level("WARNING", logger="otfs_sync.channel"):
            eva_model(1.0 / 8.25e6, 10, 0.0)
        assert any("clipped" in rec.message for rec in caplog.records)

    def test_one_bin_rounding_fold_is_quiet(self, caplog):
        """At the design rate and L = 21 the 2510 ns tap rounds to bin 21,
        one past the span; that expected fold is logged at DEBUG only."""
        with caplog.at_level("DEBUG", logger="otfs_sync.channel"):
            eva_model(1.0 / 8.25e6, 21, 0.0)
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
        self.params = OtfsParams(m=16, n=8, lcp=4, ts=1e-4)

    def test_shape_and_determinism(self):
        """The realization is (taps, duration) and seed-reproducible."""
        model = eva_model(1.0 / 8.25e6, 21, 500.0)
        params = OtfsParams(m=16, n=8, lcp=4)
        one = realize_channel(model, params, 50, seed=42)
        two = realize_channel(model, params, 50, seed=42)
        assert one.taps.shape == (21, 50)
        assert_array_equal(one.taps, two.taps)
        other = realize_channel(model, params, 50, seed=43)
        assert np.any(other.taps != one.taps)

    def test_static_taps_are_constant(self):
        """A static spectrum freezes each tap at its initial value."""
        model = single_tap_model()
        real = realize_channel(model, self.params, 40, seed=1)
        assert_array_equal(real.taps, np.tile(real.taps[:, :1], (1, 40)))

    def test_zero_doppler_is_constant(self):
        """nu_max = 0 with a Jakes spectrum also freezes the taps."""
        model = ChannelModel(pdp=np.array([1.0]), nu_max=0.0,
                             doppler_spectrum="jakes")
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
        model = eva_model(params.ts, 21, 1.36 / (params.mn * params.ts))
        real = realize_channel(model, params, duration, seed=7)
        k = np.arange(duration)
        for ell, (psi, phi) in enumerate(self._draws(model, 7)):
            omega = 2.0 * np.pi * model.nu_max * params.ts * np.cos(psi)
            exact = np.sqrt(model.pdp[ell] / JAKES_SINUSOIDS) * np.exp(
                1j * (phi[:, None] + omega[:, None] * k[None, :])).sum(axis=0)
            assert_allclose(real.taps[ell], exact, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("nu_t", [0.14, 1.36])
    @pytest.mark.parametrize("duration", [1, 2, 97, PARAMS.n_t + 21 - 1])
    def test_window_matches_exact_sum(self, duration, nu_t):
        """A window at start > 0 equals the exact per-tap sum over absolute
        samples [start, start + duration), within 1e-12."""
        model = eva_model(PARAMS.ts, 21, nu_t / (PARAMS.mn * PARAMS.ts))
        real = realize_channel(model, PARAMS, duration, seed=7, start=1523)
        assert (real.start, real.stop) == (1523, 1523 + duration)
        assert_allclose(real.taps,
                        exact_taps(model, PARAMS, 7, 1523, duration),
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spectrum", ["jakes", "static"])
    def test_window_is_slice_of_full_realization(self, spectrum):
        """A window reproduces the matching slice of the start-0
        realization of the same seed, within 1e-14 (static: exactly)."""
        model = eva_model(PARAMS.ts, 21, 1.36 / (PARAMS.mn * PARAMS.ts),
                          doppler_spectrum=spectrum)
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
        included), the synthesis matches the exact sum within 1e-12."""
        pdp = np.array(powers) / np.sum(powers)
        model = ChannelModel(pdp=pdp,
                             nu_max=nu_t / (PARAMS.mn * PARAMS.ts))
        real = realize_channel(model, PARAMS, duration, seed=start,
                               start=start)
        assert_allclose(real.taps,
                        exact_taps(model, PARAMS, start, start, duration),
                        rtol=0, atol=1e-12)

    def test_zero_power_rows_exactly_zero(self):
        """Taps without PDP power are not synthesized and stay exactly 0."""
        model = eva_model(1.0 / 8.25e6, 21, 500.0)
        real = realize_channel(model, OtfsParams(m=16, n=8, lcp=4), 300,
                               seed=3)
        dead = model.pdp == 0.0
        assert dead.sum() == 14
        assert_array_equal(real.taps[dead], 0.0)
        assert np.all(real.taps[~dead] != 0.0)

    def test_static_branch_matches_per_tap_form(self):
        """A static multi-tap profile holds each tap at its k = 0 value,
        amps * S^-1/2 * sum(exp(j phi)), bit for bit."""
        model = eva_model(1.0 / 8.25e6, 21, 0.0, doppler_spectrum="static")
        real = realize_channel(model, self.params, 25, seed=11)
        scale = 1.0 / np.sqrt(JAKES_SINUSOIDS)
        for ell, (_, phi) in enumerate(self._draws(model, 11)):
            value = np.sqrt(model.pdp[ell]) * scale * np.exp(1j * phi).sum()
            assert_array_equal(real.taps[ell], np.full(25, value))

    def test_per_tap_power_matches_pdp(self):
        """Averaged over realizations, each tap's power follows the PDP."""
        model = ChannelModel(pdp=np.array([0.6, 0.3, 0.1]), nu_max=200.0)
        powers = np.zeros(3)
        n_draws = 400
        for seed in range(n_draws):
            real = realize_channel(model, self.params, 30, seed=seed)
            powers += np.mean(np.abs(real.taps) ** 2, axis=1)
        assert_allclose(powers / n_draws, model.pdp, atol=0.03)

    def test_jakes_autocorrelation(self):
        """The tap autocorrelation follows the zeroth-order Bessel curve
        of isotropic scattering, E[h(t+tau) h*(t)] = J0(2 pi nu tau Ts)."""
        nu = 100.0
        model = ChannelModel(pdp=np.array([1.0]), nu_max=nu)
        duration, lags = 200, [0, 20, 50]
        acc = np.zeros(len(lags), dtype=complex)
        n_draws = 300
        for seed in range(n_draws):
            h = realize_channel(model, self.params, duration, seed=seed).taps[0]
            for i, lag in enumerate(lags):
                span = duration - lag
                acc[i] += np.mean(h[lag:] * np.conj(h[:span]))
        estimate = acc / n_draws
        expected = j0(2 * np.pi * nu * self.params.ts * np.array(lags))
        assert_allclose(estimate.real, expected, atol=0.05)
        assert_allclose(estimate.imag, np.zeros(len(lags)), atol=0.05)


class TestApplyImpairments:
    """Timing shift, CFO rotation, and noise on the serialized stream."""

    def setup_method(self):
        self.params = OtfsParams(m=8, n=4, lcp=2)
        self.stream = (np.arange(1, 11) + 1j * np.arange(10)).astype(complex)

    def _unit_channel(self, duration):
        return ChannelRealization(taps=np.ones((1, duration), dtype=complex))

    def test_pure_delay(self):
        """A unit tap with timing offset theta shifts the stream."""
        real = self._unit_channel(20)
        out = apply_impairments(self.stream, real, Impairments(theta=5),
                                self.params)
        assert_array_equal(out[:5], np.zeros(5))
        assert_array_equal(out[5:15], self.stream)
        assert_array_equal(out[15:], np.zeros(5))

    def test_negative_delay_truncates(self):
        """A negative offset slides the stream out of the buffer head."""
        real = self._unit_channel(20)
        out = apply_impairments(self.stream, real, Impairments(theta=-3),
                                self.params)
        assert_array_equal(out[:7], self.stream[3:])
        assert_array_equal(out[7:], np.zeros(13))

    def test_multipath_superposition(self):
        """Each tap delays by its index and scales by its gain."""
        taps = np.zeros((3, 16), dtype=complex)
        taps[0, :] = 1.0
        taps[2, :] = 0.5j
        real = ChannelRealization(taps=taps)
        out = apply_impairments(self.stream, real, Impairments(), self.params)
        expected = np.zeros(16, dtype=complex)
        expected[:10] += self.stream
        expected[2:12] += 0.5j * self.stream
        assert_allclose(out, expected, atol=1e-12)

    def test_cfo_phase_ramp(self):
        """CFO multiplies sample k by exp(j 2 pi eps k / (M N))."""
        real = self._unit_channel(10)
        eps = 0.37
        out = apply_impairments(self.stream, real, Impairments(epsilon=eps),
                                self.params)
        ramp = np.exp(2j * np.pi * eps * np.arange(10) / self.params.mn)
        assert_allclose(out, self.stream * ramp, atol=1e-12)

    def test_noise_power_and_determinism(self):
        """Noise adds 10^(-snr/10) complex variance, reproducibly."""
        duration = 20000
        real = ChannelRealization(taps=np.ones((1, duration), dtype=complex))
        silence = np.zeros(duration, dtype=complex)
        out = apply_impairments(silence, real, Impairments(snr_db=10.0),
                                self.params, seed=5)
        again = apply_impairments(silence, real, Impairments(snr_db=10.0),
                                  self.params, seed=5)
        assert_array_equal(out, again)
        assert_allclose(np.mean(np.abs(out) ** 2), 0.1, rtol=0.05)

    def test_noiseless_when_snr_none(self):
        """snr_db = None adds no noise at all."""
        real = self._unit_channel(10)
        out = apply_impairments(self.stream, real, Impairments(snr_db=None),
                                self.params)
        assert_array_equal(out, self.stream)

    @pytest.mark.parametrize("theta", [0, 3, -4])
    def test_taps_live_only_at_their_reach_edges(self, theta):
        """A tap nonzero only where the stream's first sample lands, and one
        nonzero only where its last sample lands, both contribute."""
        taps = np.zeros((3, 20), dtype=complex)
        taps[0, max(0, theta)] = 1.0
        taps[2, theta + 2 + self.stream.size - 1] = 2.0
        out = apply_impairments(self.stream, ChannelRealization(taps=taps),
                                Impairments(theta=theta), self.params)
        expected = np.zeros(20, dtype=complex)
        expected[max(0, theta)] = self.stream[max(0, -theta)]
        expected[theta + 2 + self.stream.size - 1] = 2.0 * self.stream[-1]
        assert_array_equal(out, expected)

    @pytest.mark.parametrize("theta", [1960, -300, 0])
    def test_dead_taps_skipped_bit_identically(self, theta):
        """On a seeded EVA trial at L = 21, where 14 rows are exactly zero,
        the output equals the all-taps loop bit for bit."""
        params = OtfsParams(m=128, n=32, lcp=32, blocks=1)
        nu_max = 1.36 / (params.mn * params.ts)
        model = eva_model(params.ts, 21, nu_max)
        rng = np.random.default_rng(11)
        stream = rng.standard_normal(params.n_t) \
            + 1j * rng.standard_normal(params.n_t)
        real = realize_channel(model, params, 2 * params.n_t, seed=12)
        assert np.count_nonzero(np.any(real.taps, axis=1)) == 7
        imp = Impairments(theta=theta, epsilon=0.37, snr_db=20.0)
        out = apply_impairments(stream, real, imp, params, seed=13)
        expected = np.zeros(real.duration, dtype=complex)
        for ell in range(real.n_taps):
            shift = theta + ell
            lo, hi = max(0, shift), min(real.duration, stream.size + shift)
            expected[lo:hi] += real.taps[ell, lo:hi] \
                * stream[lo - shift:hi - shift]
        expected *= np.exp(2j * np.pi * imp.epsilon
                           * np.arange(real.duration) / params.mn)
        noise = np.random.default_rng(13)
        sigma = np.sqrt(10.0 ** (-imp.snr_db / 10.0) / 2.0)
        expected += sigma * (noise.standard_normal(real.duration)
                             + 1j * noise.standard_normal(real.duration))
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
        model = eva_model(params.ts, 21, 1.36 / (params.mn * params.ts))
        rng = np.random.default_rng(11)
        stream = rng.standard_normal(params.n_t) \
            + 1j * rng.standard_normal(params.n_t)
        lo, hi = stream_reach(theta, stream.size, model.n_taps, length)
        assert (lo, hi) == (max(0, theta),
                            min(length, theta + params.n_t + 20))
        full = realize_channel(model, params, length, seed=12)
        imp = Impairments(theta=theta, epsilon=0.37, snr_db=20.0)
        expected = apply_impairments(stream, full, imp, params, seed=13)
        sliced = ChannelRealization(taps=full.taps[:, lo:hi], start=lo)
        out = apply_impairments(stream, sliced, imp, params, seed=13,
                                length=length)
        assert np.array_equal(out, expected)
        window = realize_channel(model, params, hi - lo, seed=12, start=lo)
        out = apply_impairments(stream, window, imp, params, seed=13,
                                length=length)
        assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("start, stop", [(6, 15), (5, 14)])
    def test_window_missing_reach_raises(self, start, stop):
        """A realization that misses a sample of the reach is refused."""
        real = ChannelRealization(
            taps=np.ones((1, stop - start), dtype=complex), start=start)
        assert stream_reach(5, self.stream.size, 1, 20) == (5, 15)
        with pytest.raises(ValueError, match="does not cover"):
            apply_impairments(self.stream, real, Impairments(theta=5),
                              self.params, length=20)

    def test_fractional_theta_raises(self):
        """Non-integer timing offsets are refused."""
        real = self._unit_channel(10)
        with pytest.raises(ValueError):
            apply_impairments(self.stream, real, Impairments(theta=1.5),
                              self.params)


class TestExportTaps:
    """Columnar tap-gain export."""

    def test_round_trip(self, tmp_path):
        """The exported text reproduces every gain exactly."""
        taps = np.array([[1.0 + 2.0j, -0.5j], [0.25, 3.0 - 1.0j]])
        real = ChannelRealization(taps=taps)
        path = tmp_path / "taps.csv"
        export_taps(real, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,ell,re,im"
        parsed = np.zeros((2, 2), dtype=complex)
        for line in lines[1:]:
            k, ell, re, im = line.split(",")
            parsed[int(ell), int(k)] = float(re) + 1j * float(im)
        assert_array_equal(parsed, taps)

    def test_round_trip_windowed(self, tmp_path):
        """A window exports absolute sample indices k = start + j and only
        the samples it covers."""
        taps = np.array([[1.0 + 2.0j, -0.5j, 7.0], [0.25, 3.0 - 1.0j, 0.0]])
        real = ChannelRealization(taps=taps, start=40)
        path = tmp_path / "taps.csv"
        export_taps(real, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,ell,re,im"
        assert len(lines) == 1 + taps.size
        parsed = {}
        for line in lines[1:]:
            k, ell, re, im = line.split(",")
            parsed[int(ell), int(k)] = float(re) + 1j * float(im)
        assert sorted({k for _, k in parsed}) == [40, 41, 42]
        assert_array_equal([[parsed[ell, 40 + j] for j in range(3)]
                            for ell in range(2)], taps)

"""Tests for dual-domain timing-offset estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from otfs_sync.channel import (apply_impairments, mean_delay, realize_channel,
                               single_tap_model)
from otfs_sync.modem import OtfsParams, build_stream
from otfs_sync import timing
from otfs_sync.pilot import PcpSpec, build_frame
from otfs_sync.timing import (_slot_band, estimate_to, fold_offset,
                              metric_delay_iterative, metric_time_iterative)
from reference import (delay_metric_multiplies, extract_pilot, metric_delay,
                       metric_time, time_metric_multiplies)


def random_buffer(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


class TestFoldOffset:
    """Principal-interval folding."""

    @pytest.mark.parametrize("value,width,expected", [
        (0, 8, 0), (3, 8, 3), (4, 8, -4), (5, 8, -3), (-4, 8, -4),
        (-5, 8, 3), (12, 8, -4), (0.25, 1.0, 0.25), (0.75, 1.0, -0.25),
    ])
    def test_values(self, value, width, expected):
        """Folding lands in [-width/2, width/2) and preserves residues."""
        assert fold_offset(value, width) == expected


class TestDelayMetric:
    """L-lag correlation over the delay axis."""

    def setup_method(self):
        self.params = OtfsParams(m=8, n=4, lcp=2)
        self.spec = PcpSpec(length=3, m_p=4)
        rng = np.random.default_rng(17)
        self.buffer = random_buffer(rng, 64)

    def test_matches_definition(self):
        """The vectorized metric equals the literal double sum."""
        p_d = metric_delay(self.buffer, self.params, self.spec)
        r, length = self.buffer, 3
        for m in range(8):
            expected = sum(
                np.conj(r[i * 8 + m + u]) * r[i * 8 + m + u + length]
                for i in range(4) for u in range(length - 1))
            assert_allclose(p_d[m], expected, rtol=1e-12)

    def test_iterative_matches_direct(self):
        """The sliding update reproduces the direct form exactly."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            buf = random_buffer(rng, 64)
            assert_allclose(metric_delay_iterative(buf, self.params, self.spec),
                            metric_delay(buf, self.params, self.spec),
                            rtol=1e-12)

    def test_scale_invariant_argmax(self):
        """Scaling the buffer scales the metric by the squared magnitude."""
        p_d = metric_delay(self.buffer, self.params, self.spec)
        scaled = metric_delay(3.0j * self.buffer, self.params, self.spec)
        assert_allclose(scaled, 9.0 * p_d, rtol=1e-12)


class TestSlotMetric:
    """M-lag correlation over the slot axis."""

    def setup_method(self):
        self.params = OtfsParams(m=8, n=4, lcp=2)
        self.spec = PcpSpec(length=2, m_p=4)
        rng = np.random.default_rng(23)
        self.buffer = random_buffer(rng, 80)

    def test_matches_definition(self):
        """The vectorized metric equals the literal double sum."""
        p_t = metric_time(self.buffer, self.params, self.spec, mprime_p=4)
        r, length = self.buffer, 2
        for l in range(4):
            expected = sum(
                np.conj(r[(l + v) * 8 + i]) * r[(l + v + 1) * 8 + i]
                for v in range(3)
                for i in range(4 - length, 4 + length))
            assert_allclose(p_t[l], expected, rtol=1e-12)

    def test_iterative_matches_direct(self):
        """The sliding update reproduces the direct form exactly."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            buf = random_buffer(rng, 80)
            assert_allclose(
                metric_time_iterative(_slot_band(buf, self.params,
                                                 self.spec, 4 - 2)[1],
                                      self.params.n),
                metric_time(buf, self.params, self.spec, 4), rtol=1e-12)

    def test_window_anchor_below_length_raises(self):
        """The row window cannot start before row zero."""
        with pytest.raises(ValueError, match="mprime_p"):
            metric_time(self.buffer, self.params, self.spec, mprime_p=1)


class TestMetricProperties:
    """The iterative forms against the direct ones over random grids."""

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(length=st.integers(2, 8), n=st.integers(1, 12),
           extra_m=st.integers(0, 24), peak_frac=st.floats(0.0, 1.0),
           slack=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_iterative_forms_match_direct(self, length, n, extra_m,
                                          peak_frac, slack, seed):
        """At random (M, N, L), with the slot window anchored anywhere the
        delay peak can put it and a buffer of any length both metrics
        reach, each iterative form matches its direct form within 1e-10
        of the trace's largest magnitude, and the slot rows and band hold
        exactly the samples and lag-M products their definitions name."""
        m = 2 * length + extra_m
        params = OtfsParams(m=m, n=n, lcp=0)
        spec = PcpSpec(length=length, m_p=length)
        mprime_p = length + int(peak_frac * (m - 1))
        size = max(params.mn + 2 * length - 2,
                   (2 * n - 2) * m + mprime_p + length) + slack
        buf = random_buffer(np.random.default_rng(seed), size)

        p_d = metric_delay(buf, params, spec)
        assert_allclose(metric_delay_iterative(buf, params, spec), p_d,
                        rtol=0, atol=1e-10 * np.max(np.abs(p_d)))
        rows, band = _slot_band(buf, params, spec, mprime_p - length)
        w, i = np.meshgrid(np.arange(2 * n - 2),
                           mprime_p - length + np.arange(2 * length),
                           indexing="ij")
        assert_array_equal(rows, buf[np.arange(2 * n - 1)[:, None] * m
                                     + mprime_p - length
                                     + np.arange(2 * length)])
        assert_array_equal(band, np.conj(buf[w * m + i])
                           * buf[(w + 1) * m + i])
        p_t = metric_time(buf, params, spec, mprime_p)
        assert_allclose(metric_time_iterative(band, n), p_t, rtol=0,
                        atol=1e-10 * max(np.max(np.abs(p_t)), 1.0))


class TestPeakBookkeeping:
    """Index arithmetic from metric peaks to offsets."""

    @staticmethod
    def _estimate(monkeypatch, params, spec, footprint, p_d=None, p_t=None):
        """estimate_to on a zero buffer with either metric trace replaced."""
        if p_d is not None:
            monkeypatch.setattr(timing, "metric_delay_iterative",
                                lambda *args: p_d)
        if p_t is not None:
            monkeypatch.setattr(timing, "metric_time_iterative",
                                lambda *args: p_t)
        return estimate_to(np.zeros(2 * params.n_t, dtype=complex), params,
                           spec, footprint)

    @staticmethod
    def _band_starts(monkeypatch):
        """The first row of every slot band estimate_to forms, recorded."""
        starts = []

        def band(received, params, spec, lo):
            starts.append(lo)
            return _slot_band(received, params, spec, lo)

        monkeypatch.setattr(timing, "_slot_band", band)
        return starts

    def test_theta_d_offsets(self, monkeypatch):
        """The delay estimate subtracts the acquisition footprint, pilot
        anchor plus CP plus integer mean delay, from the peak row, and
        the slot band starts at the peak row."""
        params = OtfsParams(m=16, n=4, lcp=5)
        spec = PcpSpec(length=3, m_p=8)
        p_d = np.zeros(16)
        p_d[11] = 2.0
        starts = self._band_starts(monkeypatch)
        to = self._estimate(monkeypatch, params, spec, (8 - 3) + 5 + 1,
                            p_d=p_d)
        assert to.theta_d_hat == 11 - (8 - 3) - 5 - 1
        assert starts == [11]

    def test_theta_d_tie_takes_smallest(self, monkeypatch):
        """Equal peaks resolve toward the smaller row index."""
        params = OtfsParams(m=16, n=4, lcp=0)
        spec = PcpSpec(length=3, m_p=8)
        to = self._estimate(monkeypatch, params, spec, 8 - 3,
                            p_d=np.ones(16))
        assert to.theta_d_hat == -5

    def test_theta_t_argmax(self, monkeypatch):
        """The slot estimate is the plain magnitude argmax."""
        params = OtfsParams(m=16, n=4, lcp=5)
        spec = PcpSpec(length=3, m_p=8)
        p_t = np.array([1.0, -4.0, 2.0, 4.0])
        to = self._estimate(monkeypatch, params, spec, (8 - 3) + 5, p_t=p_t)
        assert to.theta_t_hat == 1
        assert to.theta_hat == to.theta_d_hat + params.m * 1

    def test_ties_take_the_smallest_index(self, monkeypatch):
        """On an all-zero buffer every metric value ties at zero, so both
        peaks take index 0: the delay estimate is the peak row minus the
        footprint, pilot anchor m_p - L plus CP plus integer mean delay,
        the slot estimate is 0, and the slot band starts at row 0."""
        params = OtfsParams(m=16, n=4, lcp=5)
        spec = PcpSpec(length=3, m_p=8)
        starts = self._band_starts(monkeypatch)
        to = estimate_to(np.zeros(2 * params.n_t, dtype=complex), params,
                         spec, footprint=(8 - 3) + 5 + 1)
        assert to.theta_d_hat == 0 - (8 - 3) - 5 - 1
        assert to.theta_t_hat == 0
        assert to.theta_hat == to.theta_d_hat
        assert starts == [0]


class TestNoiselessRecovery:
    """End-to-end estimates on a clean single-tap channel."""

    def setup_method(self):
        self.params = OtfsParams(m=32, n=8, lcp=16)
        self.spec = PcpSpec(length=2, m_p=16)
        rng = np.random.default_rng(0)
        self.stream = build_stream(build_frame(self.params, self.spec, rng),
                                   self.params)
        self.model = single_tap_model()
        self.real = realize_channel(self.model, self.params,
                                    2 * self.params.n_t, seed=1)
        self.mu = mean_delay(self.model)
        self.footprint = (self.params.lcp
                          + (self.spec.m_p - self.spec.length)
                          + int(np.floor(self.mu)))

    def test_peak_row_at_zero_offset(self):
        """With theta = 0 the delay metric peaks at the first energized
        pilot row, (m_p - L) + Lcp + floor(mu_h) with mu_h = 1."""
        received = apply_impairments(self.stream, self.real,
                                     0, 0.0, self.params)
        p_d = metric_delay(received, self.params, self.spec)
        assert int(np.argmax(np.abs(p_d))) == (16 - 2) + 16 + 1

    @pytest.mark.parametrize("theta", [-128, -1, 0, 37, 127])
    def test_exact_offset_recovery(self, theta):
        """The assembled estimate matches the injected offset exactly, its
        slot band starts at the delay peak, and its pilot is the buffer's
        pilot rows of the block at theta_hat (``extract_pilot``)."""
        advance = self.params.mn // 2 - self.footprint
        received = apply_impairments(
            self.stream, self.real, theta + advance, 0.0,
            self.params)
        to = estimate_to(received, self.params, self.spec, self.footprint)
        got = int(fold_offset(to.theta_hat - advance, self.params.n_t))
        assert got == theta
        assert to.theta_hat == to.theta_d_hat + self.params.m * to.theta_t_hat
        assert_array_equal(
            to.slot_band,
            _slot_band(received, self.params, self.spec,
                       int(np.argmax(np.abs(to.p_d))))[1])
        assert_array_equal(to.pilot, extract_pilot(
            received, to.theta_hat, self.params, self.spec))

    def test_shift_equivariance(self):
        """Moving the whole pattern by k samples moves the estimate by k."""
        base, shift = 10, 24
        rec0 = apply_impairments(self.stream, self.real,
                                 base, 0.0, self.params)
        rec1 = apply_impairments(self.stream, self.real,
                                 base + shift, 0.0, self.params)
        to0 = estimate_to(rec0, self.params, self.spec, self.footprint)
        to1 = estimate_to(rec1, self.params, self.spec, self.footprint)
        assert to1.theta_hat - to0.theta_hat == shift


class TestMultiplyCounts:
    """Closed-form complex-multiply budgets of the metric forms."""

    def test_delay_counts(self):
        """Direct costs M*N*(L-1); iterative seeds one window then pays
        2N per step."""
        params = OtfsParams(m=64, n=16, lcp=8)
        spec = PcpSpec(length=8, m_p=32)
        assert delay_metric_multiplies(params, spec, iterative=False) == \
            64 * 16 * 7
        assert delay_metric_multiplies(params, spec, iterative=True) == \
            16 * 7 + 63 * 32

    def test_time_counts(self):
        """Direct costs N*(N-1)*2L; iterative seeds one window then pays
        two row sums per step."""
        params = OtfsParams(m=64, n=16, lcp=8)
        spec = PcpSpec(length=8, m_p=32)
        assert time_metric_multiplies(params, spec, iterative=False) == \
            16 * 15 * 16
        assert time_metric_multiplies(params, spec, iterative=True) == \
            15 * 16 + 15 * 32

    def test_iterative_is_cheaper(self):
        """The sliding forms undercut the direct forms at scale."""
        params = OtfsParams(m=128, n=32, lcp=32)
        spec = PcpSpec(length=21, m_p=64)
        assert delay_metric_multiplies(params, spec, True) < \
            delay_metric_multiplies(params, spec, False)
        assert time_metric_multiplies(params, spec, True) < \
            time_metric_multiplies(params, spec, False)

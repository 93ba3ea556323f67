"""Tests for pilot construction: ZC sequences, embedding, delay-time form."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from otfs_sync.harness import ExperimentConfig, build_point, resolve_pilot
from otfs_sync.modem import OtfsParams, build_stream, qam16_symbols
from otfs_sync.pilot import (PILOT_AMPLITUDE, PcpSpec, _frame_layout,
                             build_frame, make_zc, pilot_dt_slots)
from reference import build_impulse_frame, measure_papr


class TestZadoffChu:
    """Root-1 constant-amplitude zero-autocorrelation (CAZAC) sequence,
    on which the full rank of the ML model matrix rests (``cfo``)."""

    @pytest.mark.parametrize("length", [21, 16])
    def test_constant_modulus(self, length):
        """Every sample sits on the unit circle."""
        z = make_zc(length)
        assert_allclose(np.abs(z), np.ones(length), atol=1e-12)

    @pytest.mark.parametrize("length", [21, 16])
    def test_zero_periodic_autocorrelation(self, length):
        """Circular autocorrelation vanishes at every nonzero lag."""
        z = make_zc(length)
        for lag in range(1, length):
            corr = np.vdot(z, np.roll(z, lag))
            assert abs(corr) < 1e-9 * length


class TestPcpSpec:
    """Pilot geometry bookkeeping."""

    def test_amplitude_from_power(self):
        """40 dB pilot power means per-sample amplitude 100."""
        assert PILOT_AMPLITUDE == 10.0 ** (40.0 / 20.0) == 100.0

    def test_guard_rows_span(self):
        """Reserved rows run from m_p - L through m_p + L - 1."""
        spec = PcpSpec(length=4, m_p=8)
        assert_array_equal(spec.guard_rows(), np.arange(4, 12))

    def test_default_spec_centered(self):
        """The pilot a config resolves to without ``pilot_m_p`` anchors at
        the center of both axes: m_p = M/2, and column N/2 of its grid."""
        params = OtfsParams(m=128, n=32, lcp=32)
        spec = resolve_pilot(ExperimentConfig(pilot_length=21), params)
        assert spec.m_p == 64
        pilot_grid = _frame_layout(params, spec)[0]
        assert_array_equal(np.unique(np.nonzero(pilot_grid)[1]), [16])

    def test_validate_fit_rejects_overflow(self):
        """Pilot regions sticking out of the delay axis, below row 0 or past
        row M - 1, are refused when the point is built."""
        base = ExperimentConfig(m=16, n=8, lcp=4, pilot_length=4,
                                channel="single_tap", nu_max_t=0.0)
        for m_p, rows in ((2, r"\[-2, 5\]"), (14, r"\[10, 17\]")):
            with pytest.raises(ValueError,
                               match=rf"delay rows {rows}.*rows \[0, 15\]"):
                build_point(replace(base, pilot_m_p=m_p))


class TestEmbedPcp:
    """Pilot plus delay-domain CP layout on the cached pilot grid."""

    def setup_method(self):
        self.params = OtfsParams(m=32, n=8, lcp=8)
        self.spec = PcpSpec(length=5, m_p=16)
        self.grid = _frame_layout(self.params, self.spec)[0]

    def test_pilot_rows_carry_sequence(self):
        """Rows m_p .. m_p+L-1 of column N/2 hold the scaled sequence."""
        z = 100.0 * make_zc(5)
        assert_allclose(self.grid[16:21, 4], z, atol=1e-12)

    def test_prefix_rows_repeat_tail(self):
        """Row m_p-k repeats pilot sample L-k, mirroring a cyclic prefix."""
        for k in range(1, 5):
            assert self.grid[16 - k, 4] == self.grid[16 + 5 - k, 4]

    def test_leading_guard_row_is_zero(self):
        """Row m_p-L is reserved but carries no energy."""
        assert_array_equal(self.grid[11, :], np.zeros(8))

    def test_guard_columns_zero(self):
        """All other Doppler columns of the reserved rows stay zero."""
        cols = [c for c in range(8) if c != 4]
        assert_array_equal(self.grid[np.ix_(range(11, 21), cols)],
                           np.zeros((10, 7)))

    def test_total_energy(self):
        """The embedded pilot carries P*(2L-1) total energy."""
        assert_allclose(np.sum(np.abs(self.grid) ** 2), 1e4 * 9, rtol=1e-12)

    def test_data_outside_guard_preserved(self):
        """Every row outside the reserved region is left zero for data."""
        outside = np.setdiff1d(np.arange(32), self.spec.guard_rows())
        assert_array_equal(self.grid[outside, :], np.zeros((22, 8)))


class TestPilotDtSlots:
    """Closed-form delay-time pilot versus the full transform."""

    def test_matches_grid_transform(self):
        """The per-slot pilot formula equals rows m_p .. m_p+L-1 of every
        slot of the stream built from the pilot grid."""
        params = OtfsParams(m=32, n=8, lcp=8)
        spec = PcpSpec(length=5, m_p=16)
        stream = build_stream(_frame_layout(params, spec)[0], params)
        slots = pilot_dt_slots(spec, params)
        assert slots.shape == (8, 5)
        assert_allclose(slots, stream[8:].reshape(8, 32)[:, 16:21],
                        atol=1e-10)

    def test_constant_modulus_per_sample(self):
        """Every delay-time pilot sample has magnitude sqrt(P/N)."""
        params = OtfsParams(m=128, n=32, lcp=32)
        spec = PcpSpec(length=21, m_p=64)
        slots = pilot_dt_slots(spec, params)
        assert_allclose(np.abs(slots), 100.0 / np.sqrt(32), atol=1e-9)

    def test_slot_phase_step(self):
        """Adjacent slots differ by the designed phase 2*pi*(N/2)/N."""
        params = OtfsParams(m=64, n=16, lcp=16)
        spec = PcpSpec(length=8, m_p=32)
        slots = pilot_dt_slots(spec, params)
        step = np.exp(2j * np.pi * 8 / 16)
        assert_allclose(slots[1:, :], step * slots[:-1, :], atol=1e-9)


class TestFrames:
    """Full data-plus-pilot frame assembly."""

    def test_frame_layout(self):
        """Data rows are 16-QAM, reserved rows hold only the pilot column."""
        params = OtfsParams(m=64, n=16, lcp=16)
        spec = PcpSpec(length=8, m_p=32)
        grid = build_frame(params, spec, np.random.default_rng(0))
        rows = spec.guard_rows()
        cols = [c for c in range(16) if c != 8]
        assert_array_equal(grid[np.ix_(rows, cols)], np.zeros((16, 15)))
        data_rows = np.setdiff1d(np.arange(64), rows)
        assert_allclose(np.abs(grid[data_rows, :].real) * np.sqrt(10) % 2,
                        np.ones((48, 16)), atol=1e-9)

    def test_impulse_frame_energy_matches(self):
        """The impulse reference concentrates the same pilot energy."""
        params = OtfsParams(m=64, n=16, lcp=16)
        spec = PcpSpec(length=8, m_p=32)
        rng = np.random.default_rng(1)
        grid = build_impulse_frame(params, spec, rng)
        assert_allclose(abs(grid[32, 8]) ** 2,
                        PILOT_AMPLITUDE ** 2 * 15, rtol=1e-12)
        rows = spec.guard_rows()
        pilot_only = grid[rows, :]
        assert_allclose(np.sum(np.abs(pilot_only) ** 2),
                        PILOT_AMPLITUDE ** 2 * 15, rtol=1e-12)

    def test_pcp_papr_below_impulse(self):
        """Spreading the pilot over 2L-1 rows lowers the stream PAPR
        against an equal-energy single-bin impulse."""
        params = OtfsParams(m=128, n=32, lcp=32)
        spec = PcpSpec(length=21, m_p=64)
        rng = np.random.default_rng(4)
        pcp_stream = build_stream(build_frame(params, spec, rng), params)
        rng = np.random.default_rng(4)
        imp_stream = build_stream(build_impulse_frame(params, spec, rng),
                                  params)
        assert measure_papr(pcp_stream) < measure_papr(imp_stream) - 3.0


class TestFrameLayout:
    """The cached per-geometry pilot grid and data rows."""

    GEOMETRIES = [
        (OtfsParams(m=32, n=8, lcp=16), PcpSpec(length=2, m_p=16)),
        (OtfsParams(m=128, n=32, lcp=32), PcpSpec(length=21, m_p=64)),
        (OtfsParams(m=64, n=64, lcp=16), PcpSpec(length=21, m_p=21)),
        (OtfsParams(m=256, n=16, lcp=64), PcpSpec(length=21, m_p=128)),
    ]

    @staticmethod
    def _definitional_frame(params, spec, rng):
        """Fresh data rows filled from rng on a pilot grid written row by
        row: sqrt(P) z[i] in row m_p + i of column N // 2, and its CP
        copy z[L - k] in row m_p - k."""
        z = PILOT_AMPLITUDE * make_zc(spec.length)
        grid = np.zeros((params.m, params.n), dtype=complex)
        for i in range(spec.length):
            grid[spec.m_p + i, params.n // 2] = z[i]
        for k in range(1, spec.length):
            grid[spec.m_p - k, params.n // 2] = z[spec.length - k]
        data_rows = np.setdiff1d(np.arange(params.m), spec.guard_rows())
        grid[data_rows, :] = qam16_symbols(rng, (data_rows.size, params.n))
        return grid

    @pytest.mark.parametrize("params,spec", GEOMETRIES)
    def test_matches_definitional_build(self, params, spec):
        """Two successive frames equal the definitional build bit for bit."""
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(2):
            frame = build_frame(params, spec, rng)
            expected = self._definitional_frame(params, spec, ref_rng)
            assert frame.dtype == expected.dtype
            assert frame.tobytes() == expected.tobytes()

    def test_frame_is_a_fresh_writable_array(self):
        """Writing into a returned frame changes neither the cached layout
        nor the next frame."""
        params, spec = self.GEOMETRIES[0]
        first = build_frame(params, spec, np.random.default_rng(1))
        first[:] = 7.0
        again = build_frame(params, spec, np.random.default_rng(1))
        assert again.tobytes() == self._definitional_frame(
            params, spec, np.random.default_rng(1)).tobytes()

    def test_cached_layout_is_read_only(self):
        """Both cached arrays refuse writes."""
        params, spec = self.GEOMETRIES[0]
        pilot_grid, data_rows = _frame_layout(params, spec)
        with pytest.raises(ValueError, match="read-only"):
            pilot_grid[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            data_rows[0] = 5

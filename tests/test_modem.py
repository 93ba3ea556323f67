"""Tests for the delay-Doppler modem core: the transmit stream's
transform, serialization and CP, all checked on ``build_stream``."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from otfs_sync.modem import (OtfsParams, QAM16_LEVELS, build_stream,
                             qam16_symbols)
from reference import measure_papr


class TestOtfsParams:
    """Geometry validation and derived quantities."""

    def test_derived_sizes(self):
        """N_T adds the CP once per block and MN excludes it."""
        params = OtfsParams(m=128, n=32, lcp=32)
        assert params.mn == 4096
        assert params.n_t == 4128

    @pytest.mark.parametrize("bad", [
        dict(m=0, n=8, lcp=0),
        dict(m=8, n=0, lcp=0),
        dict(m=8, n=8, lcp=-1),
        dict(m=8, n=8, lcp=65),
    ])
    def test_rejects_bad_geometry(self, bad):
        """Nonpositive dimensions and out-of-range CP lengths are refused."""
        with pytest.raises(ValueError):
            OtfsParams(**bad)


class TestQam16:
    """16-QAM constellation draw."""

    def test_levels_and_mean_power(self):
        """Symbols use the four scaled levels per axis at unit mean power."""
        rng = np.random.default_rng(7)
        symbols = qam16_symbols(rng, (20000,))
        assert np.all(np.isin(np.round(symbols.real * np.sqrt(10)),
                              [-3, -1, 1, 3]))
        assert np.all(np.isin(np.round(symbols.imag * np.sqrt(10)),
                              [-3, -1, 1, 3]))
        assert_allclose(np.mean(np.abs(symbols) ** 2), 1.0, atol=0.02)

    def test_level_table_is_unit_power(self):
        """The level table itself averages to unit symbol power."""
        per_axis = np.mean(QAM16_LEVELS ** 2)
        assert_allclose(2 * per_axis, 1.0)


def grid_of_frame(frame):
    """The grid whose delay-time frame is ``frame``: the DFT along the
    slot axis, the inverse of the spreading transform."""
    return np.fft.fft(frame, axis=1) / np.sqrt(frame.shape[1])


class TestGridTransforms:
    """Delay-time spreading."""

    def test_matches_explicit_sum(self):
        """Without a CP, stream sample l*M + m equals the definitional
        per-element tone sum X[m, l]."""
        params = OtfsParams(m=4, n=3, lcp=0)
        rng = np.random.default_rng(11)
        grid = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        stream = build_stream(grid, params)
        for m in range(4):
            for l in range(3):
                expected = sum(
                    grid[m, n] * np.exp(2j * np.pi * l * n / 3)
                    for n in range(3)) / np.sqrt(3)
                assert_allclose(stream[l * 4 + m], expected, atol=1e-12)

    def test_unitary(self):
        """The block after the CP carries the grid's energy exactly."""
        params = OtfsParams(m=16, n=8, lcp=4)
        rng = np.random.default_rng(3)
        grid = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        stream = build_stream(grid, params)
        assert_allclose(np.sum(np.abs(stream[params.lcp:]) ** 2),
                        np.sum(np.abs(grid) ** 2), rtol=1e-12)


class TestSerialization:
    """Column-major stream layout."""

    def test_stream_index_convention(self):
        """Sample l*M + m of the block is frame entry [m, l]."""
        params = OtfsParams(m=4, n=3, lcp=0)
        frame = np.arange(12, dtype=complex).reshape(4, 3)
        stream = build_stream(grid_of_frame(frame), params)
        for l in range(3):
            for m in range(4):
                assert_allclose(stream[l * 4 + m], frame[m, l], atol=1e-12)


class TestCyclicPrefix:
    """Per-block CP insertion."""

    def test_prepends_tail(self):
        """The CP is the block's last Lcp samples copied to the front."""
        params = OtfsParams(m=2, n=2, lcp=2)
        frame = np.array([[1.0, 3.0], [2.0, 4.0]], dtype=complex)
        assert_allclose(build_stream(grid_of_frame(frame), params),
                        np.array([3, 4, 1, 2, 3, 4], dtype=complex),
                        atol=1e-12)

    def test_zero_length_is_identity(self):
        """Lcp = 0 adds no sample: the stream is the MN-sample block."""
        params = OtfsParams(m=2, n=2, lcp=0)
        frame = np.array([[1.0, 3.0], [2.0, 4.0]], dtype=complex)
        assert_allclose(build_stream(grid_of_frame(frame), params),
                        np.array([1, 2, 3, 4], dtype=complex), atol=1e-12)


class TestBuildStream:
    """Transmit stream assembly."""

    def test_is_cp_prefixed_frame(self):
        """The stream of one grid is its Lcp-sample tail followed by the
        CP-free block of the same grid, bit for bit."""
        rng = np.random.default_rng(13)
        grid = rng.standard_normal((4, 4)) + 0j
        stream = build_stream(grid, OtfsParams(m=4, n=4, lcp=3))
        block = build_stream(grid, OtfsParams(m=4, n=4, lcp=0))
        assert stream.shape == (19,)
        assert_array_equal(stream[3:], block)
        assert_array_equal(stream[:3], block[-3:])


class TestPapr:
    """Peak-to-average power ratio."""

    def test_hand_example(self):
        """Powers {1, 1, 2} give peak 2 over mean 4/3, i.e. 10*log10(1.5)."""
        stream = np.array([1.0, 1.0, np.sqrt(2.0)])
        assert_allclose(measure_papr(stream), 10 * np.log10(1.5), rtol=1e-12)

    def test_constant_modulus_is_zero_db(self):
        """A constant-modulus stream has 0 dB PAPR."""
        stream = np.exp(1j * np.linspace(0, 5, 64))
        assert_allclose(measure_papr(stream), 0.0, atol=1e-12)

    def test_degenerate_streams_raise(self):
        """Empty and all-zero streams have no defined PAPR."""
        with pytest.raises(ValueError):
            measure_papr(np.array([]))
        with pytest.raises(ValueError):
            measure_papr(np.zeros(8))

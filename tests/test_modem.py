"""Tests for the delay-Doppler modem core: transforms, serialization, CP."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from otfs_sync.modem import (OtfsParams, QAM16_LEVELS, add_cp, build_stream,
                             dd_to_dt, qam16_symbols, serialize_dt)
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
        symbols = qam16_symbols(rng, 20000)
        assert np.all(np.isin(np.round(symbols.real * np.sqrt(10)),
                              [-3, -1, 1, 3]))
        assert np.all(np.isin(np.round(symbols.imag * np.sqrt(10)),
                              [-3, -1, 1, 3]))
        assert_allclose(np.mean(np.abs(symbols) ** 2), 1.0, atol=0.02)

    def test_level_table_is_unit_power(self):
        """The level table itself averages to unit symbol power."""
        per_axis = np.mean(QAM16_LEVELS ** 2)
        assert_allclose(2 * per_axis, 1.0)


class TestGridTransforms:
    """Delay-time spreading."""

    def test_matches_explicit_sum(self):
        """The transform equals the definitional per-element tone sum."""
        params = OtfsParams(m=4, n=3, lcp=0)
        rng = np.random.default_rng(11)
        grid = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        frame = dd_to_dt(grid, params)
        for m in range(4):
            for l in range(3):
                expected = sum(
                    grid[m, n] * np.exp(2j * np.pi * l * n / 3)
                    for n in range(3)) / np.sqrt(3)
                assert_allclose(frame[m, l], expected, atol=1e-12)

    def test_unitary(self):
        """Grid energy is preserved exactly by the spreading transform."""
        params = OtfsParams(m=16, n=8, lcp=4)
        rng = np.random.default_rng(3)
        grid = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        frame = dd_to_dt(grid, params)
        assert_allclose(np.sum(np.abs(frame) ** 2),
                        np.sum(np.abs(grid) ** 2), rtol=1e-12)

    def test_shape_mismatch_raises(self):
        """A grid that disagrees with the configured geometry is refused."""
        params = OtfsParams(m=8, n=16, lcp=4)
        with pytest.raises(ValueError):
            dd_to_dt(np.zeros((16, 8)), params)


class TestSerialization:
    """Column-major stream layout."""

    def test_stream_index_convention(self):
        """Sample l*M + m of the stream is frame entry [m, l]."""
        params = OtfsParams(m=4, n=3, lcp=0)
        frame = np.arange(12, dtype=complex).reshape(4, 3)
        stream = serialize_dt(frame, params)
        for l in range(3):
            for m in range(4):
                assert stream[l * 4 + m] == frame[m, l]


class TestCyclicPrefix:
    """Per-block CP insertion."""

    def test_prepends_tail(self):
        """The CP is the last Lcp samples copied to the front."""
        params = OtfsParams(m=2, n=2, lcp=2)
        samples = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        assert_array_equal(add_cp(samples, params),
                           np.array([3, 4, 1, 2, 3, 4], dtype=complex))

    def test_zero_length_is_identity(self):
        """Lcp = 0 leaves the block unchanged (as a copy)."""
        params = OtfsParams(m=2, n=2, lcp=0)
        samples = np.arange(4, dtype=complex)
        out = add_cp(samples, params)
        assert_array_equal(out, samples)
        assert out is not samples


class TestBuildStream:
    """Transmit stream assembly."""

    def test_is_cp_prefixed_frame(self):
        """The stream of one grid is its CP-prefixed serialized frame."""
        params = OtfsParams(m=4, n=4, lcp=3)
        rng = np.random.default_rng(13)
        grid = rng.standard_normal((4, 4)) + 0j
        stream = build_stream(grid, params)
        assert stream.shape == (params.n_t,)
        expected = add_cp(serialize_dt(dd_to_dt(grid, params), params),
                          params)
        assert_allclose(stream, expected, atol=1e-15)


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

"""Delay-Doppler modem core: OTFS grid transforms, serialization, CP framing.

The transmit chain is ``DdGrid -> dd_to_dt -> serialize_dt -> add_cp``,
assembled by :func:`build_stream`.  The receiver never inverts it: it
reads the pilot rows straight from the received samples.  All transforms
use the unitary 1/sqrt(N) convention so downstream phase relations (pilot
slot phase, CFO rotation) hold exactly as derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 16-QAM per-axis levels, scaled for unit average symbol power.
QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)


@dataclass(frozen=True)
class OtfsParams:
    """Grid geometry and framing of one OTFS block.

    Offsets are in normalized units, so no sampling period is needed:
    delay in samples, Doppler and CFO in units of 1/(M N) cycles per
    sample.

    Attributes
    ----------
    m : int
        Delay bins per time slot.
    n : int
        Doppler bins, equal to the number of time slots per block.
    lcp : int
        Cyclic-prefix length in samples; one CP per block.
    """

    m: int
    n: int
    lcp: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.m}x{self.n}")
        if not 0 <= self.lcp <= self.m * self.n:
            raise ValueError(f"lcp must lie in [0, M*N], got {self.lcp}")

    @property
    def mn(self) -> int:
        """Samples per block excluding the CP."""
        return self.m * self.n

    @property
    def n_t(self) -> int:
        """Samples per block including the CP (N_T = M*N + Lcp)."""
        return self.mn + self.lcp


def qam16_symbols(rng: np.random.Generator, size) -> np.ndarray:
    """Draw unit-average-power 16-QAM symbols.

    Indexes the levels with ``rng.integers(0, 4, size)``, the draws that
    ``rng.choice(QAM16_LEVELS, size=size)`` makes, without its checks.
    """
    re = QAM16_LEVELS[rng.integers(0, 4, size)]
    im = QAM16_LEVELS[rng.integers(0, 4, size)]
    return re + 1j * im


def _check_grid(grid: np.ndarray, params: OtfsParams) -> np.ndarray:
    grid = np.asarray(grid)
    if grid.shape != (params.m, params.n):
        raise ValueError(
            f"grid shape {grid.shape} does not match ({params.m}, {params.n})"
        )
    return grid


def dd_to_dt(grid: np.ndarray, params: OtfsParams) -> np.ndarray:
    """Spread a delay-Doppler grid into the delay-time domain.

    X[m, l] = (1/sqrt(N)) * sum_n D[m, n] * exp(j*2*pi*l*n/N)

    Unitary, so frame energy is preserved exactly.
    """
    grid = _check_grid(grid, params)
    return np.fft.ifft(grid, axis=1) * np.sqrt(params.n)


def serialize_dt(frame: np.ndarray, params: OtfsParams) -> np.ndarray:
    """Serialize a delay-time frame to the stream order x[l*M + m] = X[m, l]."""
    frame = _check_grid(frame, params)
    return frame.reshape(-1, order="F")


def add_cp(samples: np.ndarray, params: OtfsParams) -> np.ndarray:
    """Prepend the last Lcp samples as a cyclic prefix (one CP per block)."""
    samples = np.asarray(samples)
    if samples.shape != (params.mn,):
        raise ValueError(f"expected {params.mn} samples, got {samples.shape}")
    if params.lcp == 0:
        return samples.copy()
    return np.concatenate([samples[-params.lcp:], samples])


def build_stream(grid: np.ndarray, params: OtfsParams) -> np.ndarray:
    """The transmitted samples of one block: the CP-prefixed serialized
    delay-time frame of ``grid``."""
    return add_cp(serialize_dt(dd_to_dt(grid, params), params), params)

"""Delay-Doppler modem core: OTFS grid transforms, serialization, CP framing.

The transmit chain, delay-Doppler grid -> ISFFT to delay-time ->
serialization -> one CP, is the one function :func:`build_stream`.  The
receiver never inverts it: it reads the pilot rows straight from the
received samples.  The ISFFT uses the unitary 1/sqrt(N) convention so
downstream phase relations (pilot slot phase, CFO rotation) hold exactly
as derived.
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


def qam16_symbols(rng: np.random.Generator, size: tuple) -> np.ndarray:
    """Draw unit-average-power 16-QAM symbols, an array of shape ``size``.

    Indexes the levels with ``rng.integers(0, 4, size)``, the draws that
    ``rng.choice(QAM16_LEVELS, size=size)`` makes, without its checks:
    the real parts first, then the imaginary parts, drawn as one array.
    """
    levels = QAM16_LEVELS[rng.integers(0, 4, (2, *size))]
    return levels[0] + 1j * levels[1]


def build_stream(grid: np.ndarray, params: OtfsParams) -> np.ndarray:
    """The transmitted samples of one block: grid D spread to delay-time,
    serialized, and prefixed with its last Lcp samples (one CP).

        X[m, l] = (1/sqrt(N)) * sum_n D[m, n] * exp(j*2*pi*l*n/N),
        x[l*M + m] = X[m, l],

    unitary, so the block carries the grid's energy exactly; the stream
    is x[MN - Lcp:] followed by x.  ``grid`` is the (M, N) array
    ``pilot.build_frame`` makes for the same ``params``.
    """
    samples = (np.fft.ifft(grid, axis=1) * np.sqrt(params.n)).reshape(
        -1, order="F")
    return np.concatenate([samples[params.mn - params.lcp:], samples])

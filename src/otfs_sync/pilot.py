"""Cyclic-prefixed pilot construction and embedding on the delay-Doppler grid.

The pilot is a Zadoff-Chu sequence of length L placed in Doppler bin
N // 2 across delay bins m_p .. m_p+L-1, with its last L-1 samples
repeated as a delay-domain cyclic prefix in bins m_p-L+1 .. m_p-1.  Bin
m_p-L is reserved but left zero, so the occupied region spans 2L delay
rows of which 2L-1 carry energy.  The repetition is what the
delay-dimension timing metric correlates on, and the delay-domain CP is
what makes the channel act circularly over the protected rows
m_p .. m_p+L-1.  Doppler bin N/2 gives adjacent time slots a phase step
of pi, the conventional placement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .modem import OtfsParams, qam16_symbols

#: Per-sample pilot amplitude sqrt(P): P is 40 dB above unit data-symbol
#: power, 10^(40/20) = 100.
PILOT_AMPLITUDE = 100.0


@dataclass(frozen=True)
class PcpSpec:
    """Pilot geometry.

    Attributes
    ----------
    length : int
        Pilot sequence length L; also the channel length the receiver
        is designed for (the delay-domain CP protects L taps).
    m_p : int
        Anchor delay bin: the pilot proper occupies rows m_p .. m_p+L-1.
    """

    length: int
    m_p: int

    def validate_fit(self, params: OtfsParams) -> None:
        """Check the pilot plus its delay-domain CP fit the grid."""
        if self.m_p - self.length < 0 or self.m_p + self.length - 1 > params.m - 1:
            raise ValueError(
                f"pilot region [{self.m_p - self.length}, {self.m_p + self.length - 1}]"
                f" does not fit delay axis of size {params.m}"
            )

    def guard_rows(self) -> np.ndarray:
        """Delay rows reserved for the pilot: m_p-L .. m_p+L-1."""
        return np.arange(self.m_p - self.length, self.m_p + self.length)


def make_zc(length: int) -> np.ndarray:
    """Generate the root-1 Zadoff-Chu sequence.

    z[n] = exp(-j*pi*n*(n+1)/L) for odd L,
    z[n] = exp(-j*pi*n^2/L)     for even L.

    Constant modulus with zero periodic autocorrelation at all nonzero
    lags (root 1 is coprime with every L).
    """
    n = np.arange(length)
    if length % 2:
        phase = -np.pi * n * (n + 1) / length
    else:
        phase = -np.pi * n * n / length
    return np.exp(1j * phase)


@functools.lru_cache(maxsize=None)
def _frame_layout(params: OtfsParams, spec: PcpSpec) -> tuple:
    """Read-only pilot grid and data rows (every delay row outside
    ``guard_rows``) of one geometry.

    The pilot grid is the pilot with its delay-domain CP on an all-zero
    grid: sqrt(P)*z[i] in rows m_p+i (i = 0..L-1) of Doppler column
    c = N // 2, and the CP copies in rows m_p-k via
    D[m_p-k, c] = D[m_p+L-k, c] for k = 1..L-1.

    Every frame of a sweep point shares them; a spec that does not fit
    raises here on every call, since a raising call is not cached.
    """
    spec.validate_fit(params)
    z = PILOT_AMPLITUDE * make_zc(spec.length)
    pilot_grid = np.zeros((params.m, params.n), dtype=complex)
    pilot_grid[spec.m_p - spec.length + 1:spec.m_p + spec.length,
               params.n // 2] = np.concatenate((z[1:], z))
    data_rows = np.setdiff1d(np.arange(params.m), spec.guard_rows())
    pilot_grid.flags.writeable = data_rows.flags.writeable = False
    return pilot_grid, data_rows


def build_frame(params: OtfsParams, spec: PcpSpec,
                rng: np.random.Generator) -> np.ndarray:
    """Random 16-QAM data grid with the pilot embedded.

    The pilot grid and data rows are built once per (params, spec) and
    cached read-only (``_frame_layout``); each call copies the pilot grid
    and fills only the data rows, so the result is a fresh writable array.
    """
    pilot_grid, data_rows = _frame_layout(params, spec)
    grid = pilot_grid.copy()
    grid[data_rows, :] = qam16_symbols(rng, (data_rows.size, params.n))
    return grid


def pilot_dt_slots(spec: PcpSpec, params: OtfsParams) -> np.ndarray:
    """Transmitted delay-time pilot, slot by slot.

    Returns an (N, L) array whose row l is the delay-time content of rows
    m_p .. m_p+L-1 in slot l:

        s_l[i] = sqrt(P/N) * z[i] * exp(j*2*pi*l*(N // 2)/N)

    These are the pilot rows of the block ``modem.build_stream`` spreads
    from the pilot grid (a single-tone IDFT per row).
    """
    z = PILOT_AMPLITUDE * make_zc(spec.length) / np.sqrt(params.n)
    slot_phase = np.exp(2j * np.pi * (params.n // 2) * np.arange(params.n)
                        / params.n)
    return slot_phase[:, None] * z[None, :]

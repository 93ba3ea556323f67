"""Cyclic-prefixed pilot construction and embedding on the delay-Doppler grid.

The pilot is a Zadoff-Chu sequence of length L placed in a single Doppler
bin n_p across delay bins m_p .. m_p+L-1, with its last L-1 samples repeated
as a delay-domain cyclic prefix in bins m_p-L+1 .. m_p-1.  Bin m_p-L is
reserved but left zero, so the occupied region spans 2L delay rows of which
2L-1 carry energy.  The repetition is what the delay-dimension timing metric
correlates on, and the delay-domain CP is what makes the channel act
circularly over the protected rows m_p .. m_p+L-1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .modem import OtfsParams, qam16_symbols


@dataclass(frozen=True)
class PcpSpec:
    """Pilot geometry and sequence parameters.

    Attributes
    ----------
    length : int
        Pilot sequence length L; also the channel length the receiver
        is designed for (the delay-domain CP protects L taps).
    m_p : int
        Anchor delay bin: the pilot proper occupies rows m_p .. m_p+L-1.
    n_p : int
        Pilot Doppler bin.  N/2 gives adjacent time slots a phase step
        of pi, which is the conventional placement.
    zc_root : int
        Zadoff-Chu root, coprime with ``length``.
    power_db : float
        Per-sample pilot power above unit data-symbol power, in dB.
    """

    length: int
    m_p: int
    n_p: int
    zc_root: int = 1
    power_db: float = 40.0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"pilot length must be >= 1, got {self.length}")
        if math.gcd(self.zc_root, self.length) != 1:
            raise ValueError(
                f"zc_root {self.zc_root} is not coprime with length {self.length}"
            )

    @property
    def amplitude(self) -> float:
        """Per-sample pilot amplitude sqrt(P)."""
        return float(10.0 ** (self.power_db / 20.0))

    def validate_fit(self, params: OtfsParams) -> None:
        """Check the pilot plus its delay-domain CP fit the grid."""
        if self.m_p - self.length < 0 or self.m_p + self.length - 1 > params.m - 1:
            raise ValueError(
                f"pilot region [{self.m_p - self.length}, {self.m_p + self.length - 1}]"
                f" does not fit delay axis of size {params.m}"
            )
        if not 0 <= self.n_p <= params.n - 1:
            raise ValueError(f"pilot Doppler bin {self.n_p} outside [0, {params.n - 1}]")

    def guard_rows(self) -> np.ndarray:
        """Delay rows reserved for the pilot: m_p-L .. m_p+L-1."""
        return np.arange(self.m_p - self.length, self.m_p + self.length)


def make_zc(length: int, root: int) -> np.ndarray:
    """Generate a Zadoff-Chu sequence.

    z[n] = exp(-j*pi*root*n*(n+1)/L) for odd L,
    z[n] = exp(-j*pi*root*n^2/L)     for even L.

    Constant modulus with zero periodic autocorrelation at all nonzero
    lags whenever gcd(root, L) = 1.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if math.gcd(root, length) != 1:
        raise ValueError(f"root {root} is not coprime with length {length}")
    n = np.arange(length)
    if length % 2:
        phase = -np.pi * root * n * (n + 1) / length
    else:
        phase = -np.pi * root * n * n / length
    return np.exp(1j * phase)


def embed_pcp(data: np.ndarray, spec: PcpSpec, params: OtfsParams) -> np.ndarray:
    """Embed the pilot with its delay-domain CP and guard zeros.

    Writes sqrt(P)*z[i] into rows m_p+i (i = 0..L-1) of Doppler column n_p,
    and the CP copies into rows m_p-k via D[m_p-k, n_p] = D[m_p+L-k, n_p]
    for k = 1..L-1.  Every other entry of rows m_p-L .. m_p+L-1 (all
    Doppler columns) is zero; the data grid must already be clear there.
    """
    data = np.asarray(data)
    if data.shape != (params.m, params.n):
        raise ValueError(
            f"grid shape {data.shape} does not match ({params.m}, {params.n})"
        )
    spec.validate_fit(params)
    rows = spec.guard_rows()
    if np.any(data[rows, :] != 0):
        raise ValueError(
            "data grid carries energy inside the reserved pilot rows "
            f"[{rows[0]}, {rows[-1]}]"
        )
    z = spec.amplitude * make_zc(spec.length, spec.zc_root)
    out = data.copy().astype(complex)
    out[rows, :] = 0.0
    out[spec.m_p - spec.length + 1:spec.m_p + spec.length, spec.n_p] = \
        np.concatenate((z[1:], z))
    return out


@functools.lru_cache(maxsize=None)
def _frame_layout(params: OtfsParams, spec: PcpSpec) -> tuple:
    """Read-only pilot grid (the pilot embedded in an all-zero grid) and
    data rows (every delay row outside ``guard_rows``) of one geometry.

    Every frame of a sweep point shares them; a spec that does not fit
    raises here on every call, since a raising call is not cached.
    """
    pilot_grid = embed_pcp(np.zeros((params.m, params.n), dtype=complex),
                           spec, params)
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

        s_l[i] = sqrt(P/N) * z[i] * exp(j*2*pi*l*n_p/N)

    Matches dd_to_dt of the embedded grid exactly (single-tone IDFT).
    """
    z = spec.amplitude * make_zc(spec.length, spec.zc_root) / np.sqrt(params.n)
    slot_phase = np.exp(2j * np.pi * spec.n_p * np.arange(params.n) / params.n)
    return slot_phase[:, None] * z[None, :]

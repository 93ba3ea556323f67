"""Timing-offset estimation from the cyclic-prefixed pilot.

The pilot repeats with period L along delay (within its 2L-row region)
and steps by a fixed phase per M-sample slot along time.  Two correlation
metrics exploit this:

* the delay metric slides an L-lag correlation window over the delay axis
  and locates the pilot region modulo M;
* the slot metric slides an M-lag correlation window over the slot axis,
  restricted to the located pilot rows, and resolves the remaining
  multiple of M.

The block-start estimate relative to the observation buffer is
``theta_d_hat + M * theta_t_hat``; callers interpret it modulo the
N_T-sample block length.  Both metrics are computed in iterative form,
updating each output point from the previous one with a few new products
instead of recomputing the full window.  The direct sums that define
them, ``metric_delay`` and ``metric_time``, live in
``tests/reference.py``, where the tests compare the two.

Each metric forms only the lag products it reads.  The delay metric
reads samples [0, MN + 2L - 2).  The slot metric reads the 2L pilot
rows of slots 0 .. 2N - 2 that start at the delay peak, and its lag-M
products, the (2N - 2, 2L) slot band, are handed on in ``ToEstimate``
with both traces, so that ``cfo.coarse_cfo`` sums its correlations from
them instead of the buffer.  The index grids of both gathers are cached
read-only per geometry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .modem import OtfsParams
from .pilot import PcpSpec


@dataclass
class ToEstimate:
    """Timing-offset estimate of one buffer, with the traces it came from.

    theta_hat = theta_d_hat + M * theta_t_hat locates the block start
    relative to the observation buffer (unfolded; callers fold modulo
    N_T as needed).  ``p_d`` and ``p_t`` are the raw complex metric
    traces; ``slot_band`` (``_slot_band``, shape (2N - 2, 2L)) holds the
    lag-M products P_t sums, its first row at the |P_d| peak.
    """

    theta_d_hat: int
    theta_t_hat: int
    theta_hat: int
    p_d: np.ndarray
    p_t: np.ndarray
    slot_band: np.ndarray


def fold_offset(value, width):
    """Fold ``value`` into the principal interval [-width/2, width/2)."""
    return (value + width / 2) % width - width / 2


@functools.lru_cache(maxsize=None)
def _delay_grid(params: OtfsParams, spec: PcpSpec) -> np.ndarray:
    """Read-only index grid iM + y, i < N, y < M + L - 2: the lag products
    that each slot's windows of the delay metric cover."""
    grid = (np.arange(params.n)[:, None] * params.m
            + np.arange(params.m + spec.length - 2))
    grid.flags.writeable = False
    return grid


def _delay_products(received: np.ndarray, params: OtfsParams,
                    spec: PcpSpec) -> np.ndarray:
    """c[y] = conj(r[y]) * r[y + L] for y < MN + L - 2, the L-lag sample
    products the delay metric reads: samples [0, MN + 2L - 2)."""
    received = np.asarray(received)
    length = spec.length
    span = params.mn + length - 2
    if received.size < span + length:
        raise ValueError(
            f"buffer too short for the delay metric: need {span + length} "
            f"samples, got {received.size}"
        )
    return np.conj(received[:span]) * received[length:span + length]


def _window_sums(x: np.ndarray, width: int) -> np.ndarray:
    """Sums of every ``width``-long window of ``x``, x.size - width + 1 of
    them: the first window, then the running sum of the exchanges
    x[k + width] - x[k] that slide it one step."""
    count = x.size - width + 1
    steps = np.empty(count, dtype=complex)
    steps[0] = x[:width].sum()
    steps[1:] = x[width:] - x[:count - 1]
    return np.cumsum(steps)


def metric_delay_iterative(received: np.ndarray, params: OtfsParams,
                           spec: PcpSpec) -> np.ndarray:
    """Delay-domain metric via the sliding update.

    P_d[m+1] = P_d[m] - sum_i conj(r[iM+m]) r[iM+m+L]
                      + sum_i conj(r[iM+m+L-1]) r[iM+m+2L-1]

    Each step exchanges the oldest lag product of every window for the
    newest one: 2N multiplies per output point instead of the direct
    form's N(L-1).  The trace is the first window followed by the running
    sum of these exchanges.  The direct form that defines it,

        P_d[m] = sum_{i=0}^{N-1} sum_{u=0}^{L-2}
                 conj(r[iM + m + u]) r[iM + m + u + L],   m = 0 .. M-1,

    is ``metric_delay`` in ``tests/reference.py``.
    """
    prods = _delay_products(received, params, spec)
    # lag products summed over the N slots, at each delay offset
    sums = prods[_delay_grid(params, spec)].sum(axis=0)
    return _window_sums(sums, spec.length - 1)


@functools.lru_cache(maxsize=None)
def _slot_grid(params: OtfsParams, spec: PcpSpec) -> np.ndarray:
    """Read-only index grid vM + i, v < 2N - 1, i < 2L: the pilot rows of
    every slot the slot band reads, relative to its first row."""
    grid = (np.arange(2 * params.n - 1)[:, None] * params.m
            + np.arange(2 * spec.length))
    grid.flags.writeable = False
    return grid


def _slot_band(received: np.ndarray, params: OtfsParams, spec: PcpSpec,
               lo: int) -> np.ndarray:
    """D[w, i] = conj(r[wM + lo + i]) r[(w+1)M + lo + i], lo >= 0.

    The lag-M products of the 2L pilot rows lo .. lo + 2L - 1 over the
    2N - 2 slot lags w that the sliding window reaches, shape
    (2N - 2, 2L): every product the slot metric and the coarse CFO read.
    """
    needed = (2 * params.n - 2) * params.m + lo + 2 * spec.length
    received = np.asarray(received)
    if received.size < needed:
        raise ValueError(
            f"buffer too short for the slot metric: need {needed} samples, "
            f"got {received.size}"
        )
    rows = received[lo:][_slot_grid(params, spec)]
    return np.conj(rows[:-1]) * rows[1:]


def metric_time_iterative(band: np.ndarray) -> np.ndarray:
    """Slot-domain metric via the sliding update, from the slot band.

    P_t[l+1] = P_t[l] - sum_i conj(r[lM+i]) r[(l+1)M+i]
                      + sum_i conj(r[(l+N-1)M+i]) r[(l+N)M+i]

    2 * 2L new products per output point instead of the direct form's
    (N-1) * 2L.  The trace is the first window followed by the running
    sum of these exchanges, over the row sums of ``band``
    (``_slot_band``, 2N - 2 slot lags, so N output points).  The
    direct form that defines it,

        P_t[l] = sum_{i=m'_p-L}^{m'_p+L-1} sum_{v=0}^{N-2}
                 conj(r[(l+v)M + i]) r[(l+v+1)M + i],   l = 0 .. N-1,

    summing all N-1 slot-lag terms for every candidate l, including
    windows that straddle the following block, is ``metric_time`` in
    ``tests/reference.py``.
    """
    return _window_sums(band.sum(axis=1), band.shape[0] // 2)


def estimate_to(received: np.ndarray, params: OtfsParams, spec: PcpSpec,
                footprint: int) -> ToEstimate:
    """Run the full dual-domain timing estimate on one buffer.

    Both metrics use their iterative forms; the direct forms that define
    them are ``metric_delay`` and ``metric_time`` in
    ``tests/reference.py``.  The delay stage takes the peak row argmax
    |P_d|, and theta_d_hat = peak - footprint, where ``footprint`` is
    the row at which the first energised pilot row of a block that starts
    at sample 0 lands (``harness.PointContext``).  The slot band starts
    at the peak row, and the slot stage takes theta_t_hat = argmax |P_t|.
    Both argmaxes resolve ties to the smallest index, and theta_hat is
    reported without range folding.  The estimate carries both traces
    and the slot band, whose rows theta_t_hat .. theta_t_hat + N - 2
    ``cfo.coarse_cfo`` reads.
    """
    p_d = metric_delay_iterative(received, params, spec)
    peak = int(np.abs(p_d).argmax())
    band = _slot_band(received, params, spec, peak)
    p_t = metric_time_iterative(band)
    theta_d_hat = peak - footprint
    theta_t_hat = int(np.abs(p_t).argmax())
    return ToEstimate(theta_d_hat=theta_d_hat, theta_t_hat=theta_t_hat,
                      theta_hat=theta_d_hat + params.m * theta_t_hat,
                      p_d=p_d, p_t=p_t, slot_band=band)

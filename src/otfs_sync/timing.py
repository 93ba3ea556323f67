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
reads samples [0, MN + 2L - 2).  The slot metric reads the 2L located
pilot rows of slots 0 .. 2N - 2, and its lag-M products, the
(2N - 2, 2L) slot band, are handed on in ``TimingMetrics`` so that
``cfo.coarse_cfo`` sums its correlations from them instead of the
buffer.  The index grids of both gathers are cached read-only per
geometry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .modem import OtfsParams
from .pilot import PcpSpec


@dataclass
class TimingMetrics:
    """Raw complex metric traces for one buffer, and the slot band
    (``_slot_band``, shape (2N - 2, 2L)) that P_t sums."""

    p_d: np.ndarray
    p_t: np.ndarray
    slot_band: np.ndarray


@dataclass
class ToEstimate:
    """Timing-offset estimate and its intermediate quantities.

    theta_hat = theta_d_hat + M * theta_t_hat locates the block start
    relative to the observation buffer (unfolded; callers fold modulo
    N_T as needed).  mprime_p - L is the row at which |P_d| peaked and
    anchors the slot-domain search window.
    """

    theta_d_hat: int
    theta_t_hat: int
    theta_hat: int
    mprime_p: int


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
    m, length = params.m, spec.length
    prods = _delay_products(received, params, spec)
    # lag products summed over the N slots, at each delay offset
    sums = prods[_delay_grid(params, spec)].sum(axis=0)
    steps = np.empty(m, dtype=complex)
    steps[0] = sums[:length - 1].sum()
    steps[1:] = sums[length - 1:] - sums[:m - 1]
    return np.cumsum(steps)


@functools.lru_cache(maxsize=None)
def _slot_grid(params: OtfsParams, spec: PcpSpec) -> np.ndarray:
    """Read-only index grid vM + i, v < 2N - 1, i < 2L: the pilot rows of
    every slot the slot band reads, relative to its first row."""
    grid = (np.arange(2 * params.n - 1)[:, None] * params.m
            + np.arange(2 * spec.length))
    grid.flags.writeable = False
    return grid


def _slot_band(received: np.ndarray, params: OtfsParams, spec: PcpSpec,
               mprime_p: int) -> np.ndarray:
    """D[w, i] = conj(r[wM + lo + i]) r[(w+1)M + lo + i], lo = mprime_p - L.

    The lag-M products of the 2L pilot rows lo .. lo + 2L - 1 over the
    2N - 2 slot lags w that the sliding window reaches, shape
    (2N - 2, 2L): every product the slot metric and the coarse CFO read.
    """
    length = spec.length
    lo = mprime_p - length
    if lo < 0:
        raise ValueError(
            f"slot metric window starts at row {lo}; mprime_p={mprime_p} "
            f"must be >= pilot length {length}"
        )
    needed = (2 * params.n - 2) * params.m + mprime_p + length
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
    rowsums = band.sum(axis=1)
    n = band.shape[0] // 2 + 1
    steps = np.empty(n, dtype=complex)
    steps[0] = rowsums[:n - 1].sum()
    steps[1:] = rowsums[n - 1:] - rowsums[:n - 1]
    return np.cumsum(steps)


def estimate_to(received: np.ndarray, params: OtfsParams, spec: PcpSpec,
                mu_h: float) -> tuple[ToEstimate, TimingMetrics]:
    """Run the full dual-domain timing estimate on one buffer.

    Both metrics use their iterative forms; the direct forms that define
    them are ``metric_delay`` and ``metric_time`` in
    ``tests/reference.py``.  The delay stage takes the peak row argmax
    |P_d|, and theta_d_hat = peak - (m_p - L) - Lcp - floor(mu_h).  The
    slot-domain window is anchored at that peak, mprime_p = peak + L, and
    the slot stage takes theta_t_hat = argmax |P_t|.  Both argmaxes
    resolve ties to the smallest index, and theta_hat is reported without
    range folding.  The slot band the slot metric is summed from is
    returned with the traces for ``cfo.coarse_cfo``, which reads its rows
    theta_t_hat .. theta_t_hat + N - 2.
    """
    p_d = metric_delay_iterative(received, params, spec)
    peak = int(np.abs(p_d).argmax())
    mprime_p = peak + spec.length
    band = _slot_band(received, params, spec, mprime_p)
    p_t = metric_time_iterative(band)
    theta_d_hat = (peak - (spec.m_p - spec.length) - params.lcp
                   - math.floor(mu_h))
    theta_t_hat = int(np.abs(p_t).argmax())
    return (
        ToEstimate(theta_d_hat=theta_d_hat, theta_t_hat=theta_t_hat,
                   theta_hat=theta_d_hat + params.m * theta_t_hat,
                   mprime_p=mprime_p),
        TimingMetrics(p_d=p_d, p_t=p_t, slot_band=band),
    )

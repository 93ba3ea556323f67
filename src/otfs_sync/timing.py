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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modem import OtfsParams
from .pilot import PcpSpec


@dataclass
class TimingMetrics:
    """Raw complex metric traces for one buffer."""

    p_d: np.ndarray
    p_t: np.ndarray


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


def _delay_products(received: np.ndarray, params: OtfsParams,
                    spec: PcpSpec) -> np.ndarray:
    """c[y] = conj(r[y]) * r[y + L], the L-lag sample products of a buffer
    long enough for every window of the delay metric."""
    received = np.asarray(received)
    m, n, length = params.m, params.n, spec.length
    needed = (n - 1) * m + (m - 1) + (length - 2) + length + 1
    if received.size < needed:
        raise ValueError(
            f"buffer too short for the delay metric: need {needed} samples, "
            f"got {received.size}"
        )
    if length < 2:
        raise ValueError(
            "the delay metric needs a pilot of length >= 2 (its window "
            "sums L-1 lag products)"
        )
    return np.conj(received[:-length]) * received[length:]


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
    m, n, length = params.m, params.n, spec.length
    prods = _delay_products(received, params, spec)
    # lag products summed over the N slots, at each delay offset
    sums = prods[np.arange(n)[:, None] * m
                 + np.arange(m + length - 2)].sum(axis=0)
    steps = np.empty(m, dtype=complex)
    steps[0] = sums[:length - 1].sum()
    steps[1:] = sums[length - 1:] - sums[:m - 1]
    return np.cumsum(steps)


def estimate_theta_d(p_d: np.ndarray, spec: PcpSpec, params: OtfsParams,
                     mu_h: float) -> int:
    """Delay-stage offset from the metric peak.

    theta_d_hat = argmax |P_d| - (m_p - L) - Lcp - floor(mu_h); ties
    resolve to the smallest index, and the result is reported without
    range folding.
    """
    peak = int(np.argmax(np.abs(p_d)))
    return peak - (spec.m_p - spec.length) - params.lcp - int(np.floor(mu_h))


def _slot_products(received: np.ndarray, m: int) -> np.ndarray:
    """d[y] = conj(r[y]) * r[y + M], the slot-lag sample products."""
    return np.conj(received[:-m]) * received[m:]


def _slot_row_sums(received: np.ndarray, params: OtfsParams, spec: PcpSpec,
                   mprime_p: int) -> np.ndarray:
    """rowsum[w] = sum_i conj(r[wM + i]) r[(w+1)M + i] over the pilot rows.

    Rows i run over mprime_p - L .. mprime_p + L - 1 and w over the 2N-1
    slot lags reachable by the sliding window.
    """
    m, n, length = params.m, params.n, spec.length
    lo = mprime_p - length
    if lo < 0:
        raise ValueError(
            f"slot metric window starts at row {lo}; mprime_p={mprime_p} "
            f"must be >= pilot length {length}"
        )
    needed = (2 * n - 2) * m + mprime_p + length
    received = np.asarray(received)
    if received.size < needed:
        raise ValueError(
            f"buffer too short for the slot metric: need {needed} samples, "
            f"got {received.size}"
        )
    prods = _slot_products(received, m)
    idx = np.arange(2 * n - 2)[:, None] * m + np.arange(lo, lo + 2 * length)
    return prods[idx].sum(axis=1)


def metric_time_iterative(received: np.ndarray, params: OtfsParams,
                          spec: PcpSpec, mprime_p: int) -> np.ndarray:
    """Slot-domain metric via the sliding update.

    P_t[l+1] = P_t[l] - sum_i conj(r[lM+i]) r[(l+1)M+i]
                      + sum_i conj(r[(l+N-1)M+i]) r[(l+N)M+i]

    2 * 2L new products per output point instead of the direct form's
    (N-1) * 2L.  The trace is the first window followed by the running
    sum of these exchanges.  The direct form that defines it,

        P_t[l] = sum_{i=m'_p-L}^{m'_p+L-1} sum_{v=0}^{N-2}
                 conj(r[(l+v)M + i]) r[(l+v+1)M + i],   l = 0 .. N-1,

    summing all N-1 slot-lag terms for every candidate l, including
    windows that straddle the following block, is ``metric_time`` in
    ``tests/reference.py``.
    """
    rowsums = _slot_row_sums(received, params, spec, mprime_p)
    n = params.n
    steps = np.empty(n, dtype=complex)
    steps[0] = rowsums[:n - 1].sum()
    steps[1:] = rowsums[n - 1:] - rowsums[:n - 1]
    return np.cumsum(steps)


def estimate_theta_t(p_t: np.ndarray) -> int:
    """Slot-stage offset: argmax |P_t|, ties to the smallest index."""
    return int(np.argmax(np.abs(p_t)))


def estimate_to(received: np.ndarray, params: OtfsParams, spec: PcpSpec,
                mu_h: float) -> tuple[ToEstimate, TimingMetrics]:
    """Run the full dual-domain timing estimate on one buffer.

    Both metrics use their iterative forms; the direct forms that define
    them are ``metric_delay`` and ``metric_time`` in
    ``tests/reference.py``.  The slot-domain window is anchored at the
    measured delay peak (mprime_p - L = argmax |P_d|), which by
    construction equals theta_d_hat + (m_p - L) + Lcp + floor(mu_h).
    """
    p_d = metric_delay_iterative(received, params, spec)
    theta_d_hat = estimate_theta_d(p_d, spec, params, mu_h)
    mprime_p = int(np.argmax(np.abs(p_d))) + spec.length
    p_t = metric_time_iterative(received, params, spec, mprime_p)
    theta_t_hat = estimate_theta_t(p_t)
    theta_hat = theta_d_hat + params.m * theta_t_hat
    return (
        ToEstimate(theta_d_hat=theta_d_hat, theta_t_hat=theta_t_hat,
                   theta_hat=theta_hat, mprime_p=mprime_p),
        TimingMetrics(p_d=p_d, p_t=p_t),
    )

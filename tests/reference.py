"""Definitional forms the trial path is checked against.

The library computes each quantity one fast way; the tests compare it
with the form that defines it, kept here so that ``src/`` holds only the
trial path:

* ``metric_delay`` and ``metric_time`` are the direct sums behind
  ``timing.metric_delay_iterative`` and ``timing.metric_time_iterative``
  (criterion 1); the ``*_multiplies`` functions count both forms' work;
* ``coarse_cfo_gather`` gathers the coarse CFO's row correlations from
  the buffer, where ``cfo.coarse_cfo`` sums them from the timing stage's
  slot band;
* ``bem_basis`` is the GCE-BEM (Leus, EUSIPCO 2004): the Q tones at
  any oversampling K evaluated at all N L pilot samples, of which
  ``cfo.build_workspace`` evaluates only each slot's first row at
  K = ``cfo.BEM_K``; ``build_g`` is the dense model matrix made of it,
  whose projector ``cfo.build_workspace`` factors as P kron I_L
  (criteria 2 and 4 and every ``TestFactoredWorkspace`` comparison);
* ``beta_coefficients`` is the banded reduction that
  ``cfo.MlWorkspace.beta`` computes from P, and ``ml_cost_fast`` the
  per-point cost that ``cfo.fine_cfo`` evaluates a stage at a time
  (criteria 2 and 9);
* ``bem_order`` is the paper's model-order rule, which
  ``cfo.matched_order`` replaces on the trial path (criteria 8a and 8b),
  and ``bem_fit_nmse`` measures how well a tone set fits known taps
  (criterion 8b);
* ``measure_papr``, ``build_impulse_frame`` and ``read_csv`` are the
  yardsticks of the PAPR comparison and of the CSV round trip;
* ``trial_words`` hands a direct ``harness.run_trial`` call the seeding
  words that a run gives its trial.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from otfs_sync.cfo import OpCounter, _phase_advance_cfo, pilot_sample_indices
from otfs_sync.harness import _child_words
from otfs_sync.modem import OtfsParams, qam16_symbols
from otfs_sync.pilot import (PILOT_AMPLITUDE, PcpSpec, _frame_layout,
                             pilot_dt_slots)
from otfs_sync.timing import ToEstimate, _delay_products, _slot_band


# Timing metrics (otfs_sync.timing): the direct forms and the multiply
# counts of both forms.


def metric_delay(received: np.ndarray, params: OtfsParams,
                 spec: PcpSpec) -> np.ndarray:
    """Delay-domain correlation metric, direct form.

    P_d[m] = sum_{i=0}^{N-1} sum_{u=0}^{L-2}
             conj(r[iM + m + u]) r[iM + m + u + L],   m = 0 .. M-1.
    """
    m, n, length = params.m, params.n, spec.length
    prods = _delay_products(received, params, spec)
    windows = sliding_window_view(prods, length - 1).sum(axis=-1)
    idx = np.arange(n)[:, None] * m + np.arange(m)[None, :]
    return windows[idx].sum(axis=0)


def metric_time(received: np.ndarray, params: OtfsParams, spec: PcpSpec,
                mprime_p: int) -> np.ndarray:
    """Slot-domain correlation metric, direct form.

    P_t[l] = sum_{i=m'_p-L}^{m'_p+L-1} sum_{v=0}^{N-2}
             conj(r[(l+v)M + i]) r[(l+v+1)M + i],   l = 0 .. N-1.

    All N-1 slot-lag terms are summed for every candidate l, including
    windows that straddle the following block.
    """
    rowsums = _slot_band(received, params, spec, mprime_p).sum(axis=1)
    n = params.n
    return sliding_window_view(rowsums, n - 1).sum(axis=-1)


def delay_metric_multiplies(params: OtfsParams, spec: PcpSpec,
                            iterative: bool) -> int:
    """Complex multiply count for one full delay-metric trace."""
    m, n, length = params.m, params.n, spec.length
    if iterative:
        return n * (length - 1) + (m - 1) * 2 * n
    return m * n * (length - 1)


def time_metric_multiplies(params: OtfsParams, spec: PcpSpec,
                           iterative: bool) -> int:
    """Complex multiply count for one full slot-metric trace."""
    n, length = params.n, spec.length
    per_rowsum = 2 * length
    if iterative:
        return (n - 1) * per_rowsum + (n - 1) * 2 * per_rowsum
    return n * (n - 1) * per_rowsum

# Coarse CFO (otfs_sync.cfo): the row correlations gathered from the
# buffer.


def coarse_cfo_gather(received: np.ndarray, to: ToEstimate,
                      params: OtfsParams, spec: PcpSpec) -> float:
    """Coarse CFO from the lag-M row correlations gathered from the buffer.

    corr[i] = sum_{v=0}^{N-2} conj(r[(theta_t + v) M + i])
              r[(theta_t + v + 1) M + i]

    over the 2L-1 rows i = mprime_p - L .. mprime_p + L - 2, turned into
    a CFO as ``cfo.coarse_cfo`` does; ``cfo.coarse_cfo`` sums the same
    products from the timing stage's slot band instead.
    """
    received = np.asarray(received)
    m, n, length = params.m, params.n, spec.length
    rows = np.arange(to.mprime_p - length, to.mprime_p + length - 1)
    idx = (to.theta_t_hat + np.arange(n - 1))[:, None] * m + rows[None, :]
    if idx.min() < 0 or idx.max() + m >= received.size:
        raise ValueError(
            "buffer too short for the coarse CFO window at the estimated "
            "timing offset"
        )
    corr = (np.conj(received[idx]) * received[idx + m]).sum(axis=0)
    return _phase_advance_cfo(corr, n)

# ML cost (otfs_sync.cfo): the paper's model-order rule, the dense model
# matrix, the banded reduction of the NL x NL projector, the per-point
# trigonometric cost, and the least-squares fit that measures the basis.


def bem_order(k: int, nu_max_t: float) -> int:
    """Model order Q = ceil(2 K nu_max_t) + 1, nu_max_t = nu_max M N Ts.

    One basis tone per resolvable Doppler bin of the K-times oversampled
    block, covering the band +-nu_max, plus the DC tone.
    """
    if k < 1:
        raise ValueError("oversampling factor k must be >= 1")
    if nu_max_t < 0:
        raise ValueError("nu_max_t must be >= 0")
    return int(math.ceil(2.0 * k * nu_max_t)) + 1


def bem_basis(params: OtfsParams, spec: PcpSpec, k: int,
              q: int) -> np.ndarray:
    """GCE-BEM tone matrix over one block's pilot samples, shape (N L, Q).

    B[l L + a, q] = e^{j 2 pi f_q k_{l,a}} with the tones f_q =
    (q - floor(Q/2)) / (K M N) cycles per sample, q = 0 .. Q-1, centered
    on DC, and k_{l,a} the stream index of pilot row a in slot l
    (``cfo.pilot_sample_indices``), rows in pilot-vector order.
    """
    freqs = (np.arange(q) - q // 2) / (k * params.mn)
    idx = pilot_sample_indices(params, spec)
    return np.exp(2j * np.pi * idx.reshape(-1, 1).astype(float) * freqs)


def build_g(params: OtfsParams, spec: PcpSpec,
            basis: np.ndarray) -> np.ndarray:
    """Model matrix G mapping BEM coefficients to noiseless pilot rows.

    G[l L + a, ell Q + q] = p_l[(a - ell) mod L] * B[k_{l,a}, q], where
    p_l is the transmitted delay-time pilot of slot l, B the (N L, Q)
    tone matrix ``basis`` (``bem_basis``, or any tone set) and k_{l,a}
    the stream index of pilot row a in slot l.  The cyclic shift reflects
    the delay-domain prefix: within the protected rows the channel acts
    circularly on the pilot.  Shape (N L, L Q); its rows l L and columns
    0 .. Q-1 are the slot factor S of ``cfo.build_workspace``.
    """
    n, length, q = params.n, spec.length, basis.shape[1]
    slots = pilot_dt_slots(spec, params)
    shift = (np.arange(length)[:, None] - np.arange(length)[None, :]) % length
    shifted = slots[:, shift]
    g4 = shifted[:, :, :, None] * basis.reshape(n, length, q)[:, :, None, :]
    return g4.reshape(n * length, length * q)


def beta_coefficients(r_p: np.ndarray, lam: np.ndarray, params: OtfsParams,
                      counter: OpCounter | None = None) -> np.ndarray:
    """Banded-projector reduction of the cost to N complex coefficients.

    beta[m] = sum_k Lambda[k + m L, k] conj(r_p[k + m L]) r_p[k] for
    m = 0 .. N-1.  Lambda is nonzero only on diagonals at multiples of L
    (its slot-profile factor is an N x N projector, its delay factor the
    identity), so these N numbers carry the whole quadratic form.
    """
    nl = r_p.size
    length = nl // params.n
    beta = np.empty(params.n, dtype=complex)
    for m_lag in range(params.n):
        off = m_lag * length
        diag = np.diagonal(lam, offset=-off)
        beta[m_lag] = np.sum(diag * np.conj(r_p[off:]) * r_p[:nl - off])
        if counter is not None:
            counter.add(2 * (nl - off))
    return beta


def ml_cost_fast(r_p: np.ndarray, lam: np.ndarray, params: OtfsParams,
                 eps_tilde: float, beta: np.ndarray | None = None,
                 counter: OpCounter | None = None) -> float:
    """Trigonometric-polynomial form of the ML cost.

    g(eps) = -beta[0] + 2 Re sum_{m=0}^{N-1} beta[m] e^{j 2 pi m eps / N}.

    With beta precomputed, each grid point costs N complex multiplies
    regardless of L, versus (N L)^2 for the matrix form.  ``eps_tilde``
    is one offset, which gives a float, or an array of them, which gives
    the array of their costs, each evaluated with its own exact phasors.
    """
    if beta is None:
        beta = beta_coefficients(r_p, lam, params, counter=counter)
    phases = np.exp(2j * np.pi * np.multiply.outer(
        eps_tilde, np.arange(params.n)) / params.n)
    if counter is not None:
        counter.add(phases.size)
    costs = -beta[0].real + 2.0 * np.real(phases @ beta)
    return costs if np.ndim(costs) else float(costs)


def bem_fit_nmse(taps: np.ndarray, params: OtfsParams, spec: PcpSpec,
                 basis: np.ndarray) -> float:
    """NMSE of the best BEM fit to known tap gains over the pilot region.

    ``taps`` has one row per tap and one column per sample from 0, such
    as the rows of a start-0 ``ChannelRealization``; each tap's
    trajectory at the pilot sample indices is least-squares fitted onto
    the tone set ``basis`` (``bem_basis``), and the pooled residual power
    over signal power is returned.  This measures the expressiveness of
    the basis, independent of any estimator.
    """
    targets = taps[:, pilot_sample_indices(params, spec).ravel()].T
    coef, *_ = np.linalg.lstsq(basis, targets, rcond=None)
    resid = basis @ coef - targets
    return float(np.sum(np.abs(resid) ** 2) / np.sum(np.abs(targets) ** 2))

# Stream statistics (otfs_sync.modem).


def measure_papr(stream: np.ndarray) -> float:
    """Peak-to-average power ratio of a sample stream, in dB."""
    stream = np.asarray(stream)
    if stream.size == 0:
        raise ValueError("empty stream")
    power = np.abs(stream) ** 2
    mean = power.mean()
    if mean == 0:
        raise ValueError("all-zero stream has no defined PAPR")
    return 10.0 * np.log10(power.max() / mean)

# Pilot reference frame (otfs_sync.pilot).


def build_impulse_frame(params: OtfsParams, spec: PcpSpec,
                        rng: np.random.Generator) -> np.ndarray:
    """Same data layout but a single-bin impulse pilot of equal total energy.

    Reference frame for PAPR comparisons: all pilot energy P*(2L-1) is
    concentrated in the one bin (m_p, N // 2).
    """
    data_rows = _frame_layout(params, spec)[1]
    grid = np.zeros((params.m, params.n), dtype=complex)
    grid[data_rows, :] = qam16_symbols(rng, (data_rows.size, params.n))
    total_energy = PILOT_AMPLITUDE ** 2 * (2 * spec.length - 1)
    grid[spec.m_p, params.n // 2] = np.sqrt(total_energy)
    return grid

# Trials and output files (otfs_sync.harness).


def trial_words(seed: int, trial_idx: int) -> np.ndarray:
    """The (4, 4) seeding words of trial ``trial_idx`` of a run at
    ``seed``: its row of a one-trial :func:`_child_words` pass."""
    return _child_words(seed, trial_idx, 1)[0]


def read_csv(path) -> tuple:
    """Inverse of :func:`write_csv`: (header tuple, list of string rows)."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = tuple(lines[0].split(","))
    return header, [tuple(line.split(",")) for line in lines[1:]]

"""Carrier-frequency-offset estimation from the cyclic-prefixed pilot.

Two stages:

* ``coarse_cfo`` reads the CFO from the mean phase advance between
  adjacent pilot slots (ambiguity window of one Doppler-axis width N),
  summed from the lag-M products the slot timing metric formed (the
  slot band of ``timing.ToEstimate``), so it reads no buffer sample;
* ``fine_cfo`` refines it by maximizing a maximum-likelihood cost built
  on a generalized complex-exponential basis expansion (GCE-BEM) of the
  channel taps over the pilot region.

The ML cost projects the de-rotated pilot observation onto the column
space of the model matrix G, with projector Lambda.  That projector is
Kronecker-factored, Lambda = P kron I_L, with P the N x N projector onto
the span of an N x Q slot factor S.  Two pilot properties give this:

* the pilot is rank one per slot: slot l carries the same ZC sequence z
  times a slot phase, so the block of G for tone q is S[:, q] kron
  (D_q Z), where S[l, q] is the slot phase times tone q at the slot's
  first pilot row, D_q the tone's unit-modulus phase ramp over the L
  pilot rows, and Z the L x L circulant of z;
* Z has full rank: a ZC sequence is CAZAC, so its DFT, the circulant's
  eigenvalues, has constant nonzero modulus.

So col(G) = span(S) kron C^L exactly.  ``build_workspace`` forms S
straight from the Q tones and keeps only the N x N projector P; G is
never formed, and the NL x NL Lambda only for the matrix search.  G,
and the GCE-BEM tone matrix it is made of, live in
``tests/reference.py``, where the tests check the factoring against
them.  With L = 21 and Q = 7, P takes 4.1 / 16 / 66 kB at 256x16 /
128x32 / 64x64, against 2.6 / 8.8 / 32.1 MB for G and Lambda.  Lambda
is exactly banded with nonzero diagonals only at multiples of L, which
yields an equivalent trigonometric-polynomial form of the cost whose
per-grid-point work is independent of L.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .modem import OtfsParams
from .pilot import PcpSpec, pilot_dt_slots
from .timing import ToEstimate, fold_offset

logger = logging.getLogger(__name__)

#: Numerical-rank floor of ``projection``: singular values at or below
#: RANK_TOL times the largest are dropped, the same cut as
#: cond(G^H G) > 1e12.
RANK_TOL = 1e-6

#: Grid steps of ``fine_cfo``'s two stages, in Doppler bins.
COARSE_STEP = 1e-2
FINE_STEP = 1e-4


@dataclass
class OpCounter:
    """Running complex-multiply count for cost evaluations."""

    multiplies: int = 0

    def add(self, count: int) -> None:
        self.multiplies += int(count)


@dataclass
class CfoEstimate:
    """Fine CFO estimate plus the evaluated cost samples."""

    eps_fine: float
    cost_trace: np.ndarray


def coarse_cfo(to: ToEstimate, params: OtfsParams, spec: PcpSpec) -> float:
    """Slot-to-slot phase-advance CFO estimate.

    Averages, over the 2L-1 energy-bearing pilot rows located by the
    timing stage, the angle of the lag-M correlation after removing the
    pilot's designed per-slot phase step 2*pi*(N//2)/N.  The row
    correlations are sums of the timing stage's own lag-M products: rows
    theta_t_hat .. theta_t_hat + N - 2 and the first 2L-1 columns of
    ``to.slot_band``, so no sample of the buffer is read again.  Its
    columns start at the delay-metric peak, which is where the first
    energy-bearing pilot row lands; the band's last column carries no
    pilot energy and is excluded.  The definition, which gathers the same
    products from the buffer, is ``coarse_cfo_gather`` in
    ``tests/reference.py``.

    The per-row angles are taken on the branch centered at the angle of
    the summed row correlations (``_phase_advance_cfo``).
    """
    rows = to.slot_band[to.theta_t_hat:to.theta_t_hat + params.n - 1,
                        :2 * spec.length - 1]
    return _phase_advance_cfo(rows.sum(axis=0), params.n)


def _phase_advance_cfo(corr: np.ndarray, n: int) -> float:
    """CFO, modulo N in [-N/2, N/2), from the lag-M row correlations.

    The magnitude-weighted consensus, the angle of the summed row
    correlations, sits within the cluster of row angles, so recentering
    on it keeps every row away from the +-pi branch cut no matter where
    the CFO falls inside the ambiguity window.  Averaging raw angles
    instead would mix wrapped and unwrapped rows whenever the true phase
    advance lands near +-pi.  Rows whose correlation magnitude is
    negligible are skipped with a warning.
    """
    corr = corr * np.exp(-2j * np.pi * (n // 2) / n)
    mags = np.abs(corr)
    kept = corr[mags > 1e-12 * max(mags.max(), 1e-300)]
    if kept.size < corr.size:
        logger.warning(
            "coarse CFO: skipping %d pilot rows with negligible "
            "correlation magnitude", corr.size - kept.size)
    if kept.size == 0:
        raise ValueError("coarse CFO: no pilot rows with usable energy")
    pivot = float(np.angle(kept.sum()))
    spread = np.angle(kept * np.exp(-1j * pivot))
    upsilon = pivot + float(spread.mean())
    eps = n / (2.0 * np.pi) * upsilon
    return float(fold_offset(eps, n))


#: BEM oversampling factor K of the experiments: the tone spacing is
#: 1/(K M N) cycles per sample.
BEM_K = 4


def matched_order(nu_max_t: float) -> int:
    """Fine-CFO model order Q = 2 floor(K nu_max_t / 2 + 1/2) + 1, K = BEM_K.

    ``nu_max_t`` is the maximum Doppler normalized by the block duration
    (nu_max M N Ts).  Adjacent tones sit 1/K cycles per block apart, so
    the Q tones form the symmetric set nearest +-nu_max_t / 2, half the
    Doppler band.  A wider set also fits a CFO shift of its own size and
    flattens the ML cost (README, "Operating-point notes").  floor(x +
    1/2) rounds half up: nu_max_t = 0.25 gives Q = 3 where ``round``
    would give 1.  A negative ``nu_max_t`` is refused earlier, by
    ``channel.ChannelModel``.
    """
    return 2 * math.floor(BEM_K * nu_max_t / 2.0 + 0.5) + 1


@functools.lru_cache(maxsize=None)
def pilot_sample_indices(params: OtfsParams, spec: PcpSpec) -> np.ndarray:
    """Block-relative stream indices of the protected pilot rows.

    Row a of slot l sits at Lcp + l M + m_p + a; shape (N, L), ascending
    in stream order, cached read-only per geometry.
    """
    idx = (params.lcp + np.arange(params.n)[:, None] * params.m
           + spec.m_p + np.arange(spec.length)[None, :])
    idx.flags.writeable = False
    return idx


def extract_pilot(received: np.ndarray, block_start: int,
                  params: OtfsParams, spec: PcpSpec) -> np.ndarray:
    """Stack the received pilot rows of the block at ``block_start``.

    Returns the length-N*L vector ordered slot-major (slot 0 rows first).
    """
    received = np.asarray(received)
    idx = pilot_sample_indices(params, spec)
    if block_start + idx[0, 0] < 0 \
            or block_start + idx[-1, -1] >= received.size:
        raise ValueError(
            f"pilot rows of the block at {block_start} fall outside the "
            f"buffer of {received.size} samples"
        )
    return received[block_start + idx].ravel()


def projection(g: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the numerical column space of G.

    One thin SVD G = U diag(s) V^H; the left singular vectors U_r whose
    singular values exceed RANK_TOL * s_max span the kept space, and
    U_r U_r^H is returned: Hermitian and idempotent by construction
    (rank-truncated projector, Golub & Van Loan, *Matrix Computations*,
    5.5).  Dropping a direction, i.e. rank below the column count, logs
    a warning.  ``build_workspace`` passes the N x Q slot factor S, whose
    projector P gives Lambda = P kron I_L.
    """
    u, s, _ = np.linalg.svd(g, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    if rank < g.shape[1]:
        cond = (s[0] / s[-1]) ** 2 if s[-1] > 0 else np.inf
        logger.warning(
            "projection: cond(G^H G) = %.3e exceeds %.1e; keeping rank %d "
            "of %d", cond, RANK_TOL ** -2, rank, g.shape[1])
    u_r = u[:, :rank]
    return u_r @ u_r.conj().T


@dataclass(frozen=True)
class MlWorkspace:
    """Precomputed per-geometry objects for the ML cost.

    Built once per (params, spec, Q) and shared read-only by every trial
    of a point.  It stores only the N x N slot projector ``p``, made
    read-only; ``lam`` is rebuilt on each access for the matrix search,
    so no NL x NL array is kept.
    """

    params: OtfsParams
    spec: PcpSpec
    p: np.ndarray

    def __post_init__(self) -> None:
        self.p.flags.writeable = False

    @property
    def lam(self) -> np.ndarray:
        """Projector onto col(G): P kron I_L, shape (N L, N L)."""
        return np.kron(self.p, np.eye(self.spec.length))

    def beta(self, r_p: np.ndarray,
             counter: OpCounter | None = None) -> np.ndarray:
        """Banded reduction of the cost to N coefficients, without Lambda.

        Its definition is beta[m] = sum_k Lambda[k + m L, k]
        conj(r_p[k + m L]) r_p[k], m = 0 .. N-1 (``beta_coefficients`` in
        ``tests/reference.py``): Lambda is nonzero only on diagonals at
        multiples of L.  From the slot projector it is beta[m] =
        sum_l P[l + m, l] <R_{l+m}, R_l> with R = r_p as (N, L): one
        (N x L) @ (L x N) product of slot rows, then the lag-m
        subdiagonal sums of P times it.  That is N^2 L + N (N + 1) / 2
        complex multiplies; the counter keeps the definition's
        convention L N (N + 1).
        """
        n = self.params.n
        rows = np.asarray(r_p).reshape(n, -1)
        if counter is not None:
            counter.add(rows.shape[1] * n * (n + 1))
        terms = (self.p * (rows.conj() @ rows.T)).ravel()
        band_idx, band_starts = _lag_bands(n)
        return np.add.reduceat(terms[band_idx], band_starts)


@functools.lru_cache(maxsize=None)
def _lag_bands(n: int) -> tuple:
    """Flat indices of an N x N lower triangle sorted by lag m (entry
    (l + m, l), lag 0 first), and where each lag's run starts."""
    rows, cols = np.tril_indices(n)
    band_idx = (rows * n + cols)[np.argsort(rows - cols, kind="stable")]
    band_starts = np.concatenate([[0], np.cumsum(np.arange(n, 1, -1))])
    band_idx.flags.writeable = band_starts.flags.writeable = False
    return band_idx, band_starts


def build_workspace(params: OtfsParams, spec: PcpSpec,
                    q: int) -> MlWorkspace:
    """Slot projector P of the Q-tone model's column space.

    The tones sit at (q - floor(Q/2)) / (K M N) cycles per sample, K =
    BEM_K.  The slot factor is S[l, q] = s_l[0] e^{j 2 pi f_q k_l}: the
    slot-l pilot sample (slot phase times a constant) times tone q at
    the slot's first pilot row k_l.  These are G's rows at each slot's
    first pilot row and its columns for delay shift 0 (``build_g`` in
    ``tests/reference.py``).  Each relative singular value of S appears L
    times among G's, so ``projection`` truncates S exactly where it would
    truncate G, and rank(G) = L rank(S).  Q comes from
    :func:`matched_order`, so it is at least 1; more tones than slots
    leave G rank deficient, which raises ``ValueError``.
    """
    if params.n < q:
        raise ValueError(
            f"model matrix is rank deficient: Q={q} basis tones need at "
            f"least Q slots, got N={params.n} (L={spec.length})"
        )
    freqs = (np.arange(q) - q // 2) / (BEM_K * params.mn)
    first = pilot_sample_indices(params, spec)[:, :1]
    tones = np.exp(2j * np.pi * first.astype(float) * freqs)
    s = pilot_dt_slots(spec, params)[:, :1] * tones
    return MlWorkspace(params=params, spec=spec, p=projection(s))


def _gamma_phases(params: OtfsParams, spec: PcpSpec,
                  eps_tilde: float) -> np.ndarray:
    """Diagonal of Gamma(eps): e^{j 2 pi eps k / (M N)} at pilot samples."""
    return np.exp(2j * np.pi * eps_tilde
                  * pilot_sample_indices(params, spec).ravel() / params.mn)


def ml_cost(r_p: np.ndarray, lam: np.ndarray, params: OtfsParams,
            spec: PcpSpec, eps_tilde: float,
            counter: OpCounter | None = None) -> float:
    """Matrix form of the ML cost, the ground truth.

    g(eps) = r_p^H Gamma(eps) Lambda Gamma^H(eps) r_p; maximizing over
    eps picks the trial CFO whose de-rotation leaves the observation
    closest to the BEM model's column space.
    """
    v = np.conj(_gamma_phases(params, spec, eps_tilde)) * r_p
    nl = r_p.size
    if counter is not None:
        counter.add(nl * nl + 2 * nl)
    return float(np.real(np.vdot(v, lam @ v)))


@functools.lru_cache(maxsize=None)
def _tone_ramp(n: int) -> np.ndarray:
    """Read-only 2 pi j m, m = 0 .. N-1: the exponent of the phasors
    e^{j 2 pi m eps / N} before the factor eps / N."""
    ramp = 2j * np.pi * np.arange(n)
    ramp.flags.writeable = False
    return ramp


@functools.lru_cache(maxsize=None)
def _phase_table(n: int, step: float, steps: int) -> tuple:
    """One fine-search stage's grid, read-only: the offsets (k - steps)
    step, k = 0 .. 2 steps, of its points from the stage center, and
    their phasors T[k, m] = e^{j 2 pi m (k - steps) step / N}, m = 0 ..
    N-1."""
    offsets = np.arange(-steps, steps + 1) * step
    table = np.exp(2j * np.pi * offsets[:, None] * np.arange(n)[None, :] / n)
    offsets.flags.writeable = table.flags.writeable = False
    return offsets, table


def fine_cfo(r_p: np.ndarray, workspace: MlWorkspace, eps_coarse: float,
             half_width: float = 0.5, use_fast: bool = True,
             counter: OpCounter | None = None) -> CfoEstimate:
    """Two-stage grid maximization of the ML cost around the coarse CFO.

    Stage one scans eps_coarse +- half_width at COARSE_STEP; stage two
    rescans one coarse step around the stage-one peak at FINE_STEP.  All
    evaluated (eps, cost) pairs are kept in ``cost_trace`` in evaluation
    order.  A peak on the stage-one boundary logs a warning since the
    true CFO may sit outside the searched range.

    The fast path evaluates a whole stage at once.  Its grid points are
    eps_c + k step around the stage center eps_c, so a point's phasors
    factor as e^{j 2 pi m eps_c / N} times row k of the table
    T[k, m] = e^{j 2 pi m k step / N}.  The table and the grid offsets
    are cached read-only together per (N, step, steps), one lookup per
    stage (``_phase_table``), as is the exponent 2 pi j m of the center
    phasors.  A stage's costs are -beta[0] + 2 Re(T @ (beta * e^{j 2 pi
    m eps_c / N})): N exponentials per stage instead of N per grid point,
    with beta from the workspace's slot projector.  They agree to rounding, not bit for bit, with the
    cost evaluated one point at a time, -beta[0] + 2 Re sum_m beta[m]
    e^{j 2 pi m eps / N} (``ml_cost_fast`` in ``tests/reference.py``).
    The counter keeps the convention of N multiplies per grid point, the
    cost of one phasor-weighted sum.  The matrix path (``use_fast`` off)
    builds Lambda once per call and evaluates ``ml_cost`` at each point.
    """
    params, spec, n = workspace.params, workspace.spec, workspace.params.n
    if use_fast:
        beta = workspace.beta(r_p, counter=counter)
    else:
        lam = workspace.lam

    def evaluate(center: float, step: float, steps: int) -> tuple:
        offsets, table = _phase_table(n, step, steps)
        grid = center + offsets
        if not use_fast:
            return grid, np.array([
                ml_cost(r_p, lam, params, spec, e, counter=counter)
                for e in grid
            ])
        if counter is not None:
            counter.add(n * grid.size)
        rotated = beta * np.exp(_tone_ramp(n) * center / n)
        return grid, -beta[0].real + 2.0 * (table @ rotated).real

    grid1, costs1 = evaluate(eps_coarse, COARSE_STEP,
                             int(round(half_width / COARSE_STEP)))
    best1 = int(costs1.argmax())
    if best1 == 0 or best1 == grid1.size - 1:
        logger.warning(
            "fine CFO: cost peak on the search boundary at %.4f; the true "
            "offset may lie outside +-%.2f of the coarse estimate",
            grid1[best1], half_width)
    grid2, costs2 = evaluate(grid1[best1], FINE_STEP,
                             int(round(COARSE_STEP / FINE_STEP)))
    eps_fine = float(grid2[costs2.argmax()])
    trace = np.empty((grid1.size + grid2.size, 2))
    trace[:grid1.size, 0], trace[grid1.size:, 0] = grid1, grid2
    trace[:grid1.size, 1], trace[grid1.size:, 1] = costs1, costs2
    return CfoEstimate(eps_fine=eps_fine, cost_trace=trace)

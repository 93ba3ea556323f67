"""Linear time-varying channel generation and impairment injection.

Channels are tapped delay lines: tap ``ell`` delays by ``ell`` samples and
carries a complex gain process h[ell, k].  Gains are zero-mean complex
Gaussian with per-tap average power set by the PDP (power delay profile)
and a Jakes Doppler spectrum synthesized as a sum of equal-power sinusoids
with random arrival angles and phases.  Impairments (integer timing offset,
normalized CFO) are injected on the serialized stream; :func:`noise_sigma`
and :func:`unit_noise` define the AWGN that the trial adds on top.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .modem import OtfsParams

logger = logging.getLogger(__name__)

#: 3GPP Extended Vehicular A power delay profile (excess delay ns, power dB).
EVA_DELAYS_NS = np.array(
    [0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0])
EVA_POWERS_DB = np.array(
    [0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9])

#: Sampling period (s) that maps the EVA delays onto sample bins.  Every
#: other quantity is normalized, so this is the only place it is needed.
EVA_TS = 1.0 / 8.25e6

#: Sinusoids per tap in the sum-of-sinusoids Doppler synthesis.
JAKES_SINUSOIDS = 64

#: Widest synthesis block in samples (low Doppler would allow wider).
MAX_BLOCK = 512

#: Taylor terms of exp(j omega x) per block.  Blocks keep |omega x| <= 1/2,
#: where the remainder is below 0.5^15 / 15! ~ 2.3e-17 < 2^-53.
TAYLOR_TERMS = 15


@dataclass(frozen=True)
class ChannelModel:
    """Statistical description of the tapped-delay-line channel.

    Attributes
    ----------
    pdp : ndarray
        Per-tap average powers, normalized to sum to one.  Length sets
        the channel length in taps.
    nu_max_t : float
        Maximum Doppler frequency times the block duration, nu_max M N Ts;
        0 freezes each tap at its initial value.
    """

    pdp: np.ndarray
    nu_max_t: float = 0.0

    def __post_init__(self) -> None:
        pdp = np.asarray(self.pdp, dtype=float)
        object.__setattr__(self, "pdp", pdp)
        if pdp.ndim != 1 or pdp.size < 1:
            raise ValueError("pdp must be a nonempty 1-D power sequence")
        if np.any(pdp < 0):
            raise ValueError("pdp powers must be nonnegative")
        if abs(pdp.sum() - 1.0) > 1e-12:
            raise ValueError(f"pdp must sum to 1, got {pdp.sum()!r}")
        if self.nu_max_t < 0:
            raise ValueError("nu_max_t must be >= 0")

    @property
    def n_taps(self) -> int:
        return int(self.pdp.size)

    # Computed on first use, so building a point does not pay for them.
    @functools.cached_property
    def delays(self) -> np.ndarray:
        """Read-only delay bins of the taps that carry power,
        ``np.flatnonzero(pdp)``."""
        delays = np.flatnonzero(self.pdp)
        delays.flags.writeable = False
        return delays

    @functools.cached_property
    def gains(self) -> np.ndarray:
        """Read-only per-sinusoid amplitudes sqrt(p_ell) / sqrt(S) of the
        taps at ``delays``, S = JAKES_SINUSOIDS."""
        gains = np.sqrt(self.pdp[self.delays]) \
            * (1.0 / np.sqrt(JAKES_SINUSOIDS))
        gains.flags.writeable = False
        return gains


@dataclass
class ChannelRealization:
    """Sampled gains h[ell, k] of the taps that carry power.

    Row i of ``taps`` is the tap at integer delay bin ``delays[i]``;
    ``delays`` is ascending, and a delay bin without power has no row.
    Column j holds absolute sample k = start + j, so the realization
    covers samples [start, start + duration).
    """

    taps: np.ndarray
    delays: np.ndarray
    start: int = 0

    @property
    def duration(self) -> int:
        return self.taps.shape[1]

    @property
    def stop(self) -> int:
        return self.start + self.duration


def single_tap_model(nu_max_t: float = 0.0) -> ChannelModel:
    """Unit-power single tap at delay zero."""
    return ChannelModel(pdp=np.array([1.0]), nu_max_t=nu_max_t)


def eva_model(length: int, nu_max_t: float) -> ChannelModel:
    """EVA profile resampled to the sampling period ``EVA_TS`` over
    ``length`` taps.

    Each standard tap is mapped to the nearest sample bin (clipped to the
    last bin when a delay exceeds the span); powers landing in the same
    bin add, and the result is renormalized to unit total power.  A tap
    that rounds to just one bin past the span (the 2510 ns tap at the
    design rate and 21 taps) is folded in as expected and logged at
    DEBUG; a tap further out means the span truncates the profile and is
    logged as a WARNING.
    """
    bins = np.rint(EVA_DELAYS_NS * 1e-9 / EVA_TS).astype(int)
    clipped = np.minimum(bins, length - 1)
    if np.any(bins > length):
        logger.warning(
            "EVA taps beyond %d bins clipped to the last bin", length)
    elif np.any(bins == length):
        logger.debug(
            "EVA tap rounding to bin %d folded into the last bin", length)
    pdp = np.zeros(length)
    np.add.at(pdp, clipped, 10.0 ** (EVA_POWERS_DB / 10.0))
    return ChannelModel(pdp=pdp / pdp.sum(), nu_max_t=nu_max_t)


def mean_delay(model: ChannelModel) -> float:
    """PDP-weighted mean delay mu_h = sum (ell+1) p_ell / sum p_ell.

    The (ell+1) weighting makes a single tap at delay zero report 1,
    matching the one-sample offset the timing metric's peak carries for
    flat channels; floor(mu_h) is the bias subtracted by the delay-stage
    timing estimator.
    """
    weights = np.arange(1, model.n_taps + 1)
    return float(weights @ model.pdp / model.pdp.sum())


def _phasor_rows(base: np.ndarray, step: np.ndarray,
                 count: int) -> np.ndarray:
    """exp(j (base + step i)) for i = 0 .. count-1, stacked on axis -2.

    Built by doubling, t[n:2n] = t[:n] exp(j step n), so only
    ceil(log2 count) + 1 exponentials are taken per entry of ``base`` and
    each row is a product of at most that many exactly rounded phasors,
    with no running-product drift.
    """
    table = np.empty(base.shape[:-1] + (count, base.shape[-1]),
                     dtype=complex)
    table[..., 0, :] = np.exp(1j * base)
    n = 1
    while n < count:
        m = min(n, count - n)
        table[..., n:n + m, :] = (table[..., :m, :]
                                  * np.exp(1j * n * step)[..., None, :])
        n *= 2
    return table


@functools.lru_cache(maxsize=None)
def _power_table(width: int, omega_max: float) -> np.ndarray:
    """Read-only T[p, i] = (j omega_max x_i)^p / p! for p < TAYLOR_TERMS,
    at the block offsets x_i = i - (width - 1) / 2, i = 0 .. width-1."""
    step = 1j * omega_max * (np.arange(width) - (width - 1) / 2.0)
    table = np.empty((TAYLOR_TERMS, width), dtype=complex)
    table[0] = 1.0
    for p in range(1, TAYLOR_TERMS):
        table[p] = table[p - 1] * step / p
    table.flags.writeable = False
    return table


def realize_channel(model: ChannelModel, params: OtfsParams, duration: int,
                    seed, start: int = 0) -> ChannelRealization:
    """Draw one channel realization over samples [start, start + duration).

    Each tap is an independent sum of S = JAKES_SINUSOIDS equal-power
    complex sinusoids with arrival angles psi and phases phi uniform on
    [0, 2*pi),

        h[ell, k] = sqrt(p_ell / S) sum_s exp(j (phi_s + omega_s k)),
        omega_s = omega_max cos(psi_s),  omega_max = 2 pi nu_max_t / (M N),

    so the Doppler spectrum is the classical Jakes shape with maximum
    frequency ``model.nu_max_t`` cycles per block (the random-angle model
    of Zheng & Xiao, IEEE Trans. Commun. 2003).  An omega_max of zero
    (nu_max_t = 0, or a Doppler so small that omega_max underflows)
    freezes every tap at its k = 0 value.

    The draws do not depend on the window: every tap draws its psi then
    phi, in tap order, whether or not it carries power, so a window
    matches the same samples of the start-0 realization of the same seed
    to rounding, and the draws of tap ell do not depend on which taps are
    live.  Only the taps with nonzero power, ``model.delays``, are
    synthesized and returned, one row each; a dead bin gets no row.

    The sum is a block Taylor expansion.  With blocks of width
    W = min(MAX_BLOCK, floor(1 / omega_max) + 1), centres
    c_b = start + b W + (W - 1) / 2 and k = c_b + x, |x| <= (W - 1) / 2,
    every |omega_s x| <= 1/2, and

        h[ell, c_b + x] = sum_p A[ell, b, p] (j omega_max x)^p / p!,
        A[ell, b, p] = sum_s exp(j (phi_s + omega_s c_b)) g_ell cos^p(psi_s),

    to TAYLOR_TERMS terms.  The (blocks x S) centre phasors are built by
    doubling (:func:`_phasor_rows`), and the power table (TAYLOR_TERMS x
    W) is cached per (W, omega_max), so a tap takes S (ceil(log2 blocks)
    + 1) exponentials and TAYLOR_TERMS multiply-adds per sample, and each
    sample is within a few ulps of the exact exp(j (phi + omega k)) sum.
    """
    if duration < 1:
        raise ValueError("duration must be >= 1")
    rng = np.random.default_rng(seed)
    delays, gains = model.delays, model.gains
    draws = rng.uniform(0.0, 2.0 * np.pi,
                        (model.n_taps, 2, JAKES_SINUSOIDS))[delays]
    psi, phi = draws[:, 0], draws[:, 1]
    omega_max = 2.0 * np.pi * model.nu_max_t / params.mn
    if omega_max == 0.0:
        initial = np.exp(1j * phi).sum(axis=1, keepdims=True)
        taps = np.repeat(gains[:, None] * initial, duration, axis=1)
        return ChannelRealization(taps=taps, delays=delays, start=start)
    cos_psi = np.cos(psi)
    omega = omega_max * cos_psi
    width = int(min(MAX_BLOCK - 1, 1.0 / omega_max)) + 1
    blocks = -(-duration // width)
    centres = _phasor_rows(phi + omega * (start + (width - 1) / 2.0),
                           omega * width, blocks)
    coeffs = np.empty(cos_psi.shape + (TAYLOR_TERMS,), dtype=complex)
    coeffs[..., 0] = gains[:, None]
    coeffs[..., 1:] = cos_psi[..., None]
    np.cumprod(coeffs, axis=-1, out=coeffs)
    # Both products stay same-dtype and the second stays 2-D, so each
    # runs in BLAS; a broadcast or mixed-dtype stacked matmul does not.
    expansion = np.matmul(centres, coeffs)
    taps = (expansion.reshape(delays.size * blocks, TAYLOR_TERMS)
            @ _power_table(width, omega_max))
    taps = taps.reshape(delays.size, blocks * width)[:, :duration]
    return ChannelRealization(taps=taps, delays=delays, start=start)


def stream_reach(shift: int, n_samples: int, n_taps: int,
                 length: int) -> tuple:
    """Buffer samples [lo, hi) whose tap gains a shifted stream reads.

    A stream of ``n_samples`` delayed by ``shift`` through ``n_taps`` taps
    lands on [shift, shift + n_samples + n_taps - 1); this is that span
    clipped to the buffer [0, length).  ``lo == hi`` when it misses the
    buffer.
    """
    lo = min(max(0, shift), length)
    hi = max(lo, min(length, shift + n_samples + n_taps - 1))
    return lo, hi


def noise_sigma(snr_db: float) -> float:
    """Per-component noise scale sqrt(10^(-snr_db/10) / 2).

    ``noise_sigma(snr_db) * unit_noise(...)`` has complex variance
    10^(-snr_db/10) against unit-power data.
    """
    return np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)


def unit_noise(length: int, seed) -> np.ndarray:
    """Noise shape w = a + j b, with a and b standard normal, in that order.

    This is the only draw the noise stream sees, so one seed gives the
    same w at every SNR.  Both parts come from one (2, length) draw,
    written into the real and imaginary parts.
    """
    draws = np.random.default_rng(seed).standard_normal((2, length))
    w = np.empty(length, dtype=complex)
    w.real, w.imag = draws
    return w


def apply_impairments(stream: np.ndarray, real: ChannelRealization,
                      theta: int, epsilon: float, params: OtfsParams,
                      length: int | None = None) -> np.ndarray:
    """Propagate ``stream`` through the channel with TO and CFO, noiselessly.

    r[k] = e^{j 2 pi eps k / (M N)} * sum_ell h[ell, k] s[k - ell - theta]

    for k = 0 .. length-1, with s taken as zero outside its support.
    ``theta`` is the integer timing offset in samples (delay-resolution
    units) and ``epsilon`` the CFO normalized by the Doppler resolution
    1/(M N Ts).  The CFO phase index k counts received samples from the
    start of the observation buffer.  ``length`` defaults to the end of the
    realization, ``real.stop``.

    The sum runs over the realization's rows, tap ``real.delays[i]``
    delaying by that many samples.  Taps are indexed by absolute sample,
    relative to ``real.start``; the realization must cover the samples the
    stream reaches through its largest delay (:func:`stream_reach`), or
    this raises ``ValueError``.  Outside that reach the buffer is zero, so
    the CFO ramp is applied only over it.
    """
    stream = np.asarray(stream, dtype=complex)
    if stream.ndim != 1:
        raise ValueError("stream must be 1-D")
    if not float(theta).is_integer():
        raise ValueError(f"timing offset must be an integer, got {theta!r}")
    theta = int(theta)
    length = real.stop if length is None else int(length)
    lo, hi = stream_reach(theta, stream.size, int(real.delays[-1]) + 1,
                          length)
    if lo < hi and (lo < real.start or hi > real.stop):
        raise ValueError(
            f"channel window [{real.start}, {real.stop}) does not cover "
            f"the stream's reach [{lo}, {hi})")
    out = np.zeros(length, dtype=complex)
    for ell, row in zip(real.delays, real.taps):
        shift = theta + int(ell)
        first = max(0, shift)
        last = min(length, stream.size + shift)
        if first >= last:
            continue
        out[first:last] += (row[first - real.start:last - real.start]
                            * stream[first - shift:last - shift])
    if epsilon != 0.0:
        out[lo:hi] *= np.exp(2j * np.pi * epsilon * np.arange(lo, hi)
                             / params.mn)
    return out


def tap_rows(real: ChannelRealization):
    """Yield the realization's gains as (k, ell, re, im) rows.

    One block of rows per tap the realization holds, ``ell`` its delay
    bin, so bins without power are not listed.  ``k`` is the absolute
    sample index, so a windowed realization yields only its window,
    [start, start + duration).
    """
    for ell, row in zip(real.delays, real.taps):
        for j, tap in enumerate(row):
            yield real.start + j, ell, float(tap.real), float(tap.imag)

"""Linear time-varying channel generation and impairment injection.

Channels are tapped delay lines: tap ``ell`` delays by ``ell`` samples and
carries a complex gain process h[ell, k].  Gains are zero-mean complex
Gaussian with per-tap average power set by the PDP (power delay profile)
and a Jakes Doppler spectrum synthesized as a sum of equal-power sinusoids
with random arrival angles and phases.  Impairments (integer timing offset,
normalized CFO, AWGN) are injected on the serialized stream.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .modem import OtfsParams

logger = logging.getLogger(__name__)

#: 3GPP Extended Vehicular A power delay profile (excess delay ns, power dB).
EVA_DELAYS_NS = np.array(
    [0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0])
EVA_POWERS_DB = np.array(
    [0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9])

#: Sinusoids per tap in the sum-of-sinusoids Doppler synthesis.
JAKES_SINUSOIDS = 64


@dataclass(frozen=True)
class ChannelModel:
    """Statistical description of the tapped-delay-line channel.

    Attributes
    ----------
    pdp : ndarray
        Per-tap average powers, normalized to sum to one.  Length sets
        the channel length in taps.
    nu_max : float
        Maximum Doppler frequency in Hz.
    doppler_spectrum : str
        ``"jakes"`` for time-varying taps, ``"static"`` to freeze each
        tap at its initial value.
    """

    pdp: np.ndarray
    nu_max: float = 0.0
    doppler_spectrum: str = "jakes"

    def __post_init__(self) -> None:
        pdp = np.asarray(self.pdp, dtype=float)
        object.__setattr__(self, "pdp", pdp)
        if pdp.ndim != 1 or pdp.size < 1:
            raise ValueError("pdp must be a nonempty 1-D power sequence")
        if np.any(pdp < 0):
            raise ValueError("pdp powers must be nonnegative")
        if abs(pdp.sum() - 1.0) > 1e-12:
            raise ValueError(f"pdp must sum to 1, got {pdp.sum()!r}")
        if self.nu_max < 0:
            raise ValueError("nu_max must be >= 0")
        if self.doppler_spectrum not in ("jakes", "static"):
            raise ValueError(
                f"doppler_spectrum must be 'jakes' or 'static', "
                f"got {self.doppler_spectrum!r}"
            )

    @property
    def n_taps(self) -> int:
        return int(self.pdp.size)


@dataclass
class ChannelRealization:
    """Sampled tap gains h[ell, k], one row per tap.

    Column j holds absolute sample k = start + j, so the realization
    covers samples [start, start + duration).
    """

    taps: np.ndarray
    start: int = 0

    @property
    def n_taps(self) -> int:
        return self.taps.shape[0]

    @property
    def duration(self) -> int:
        return self.taps.shape[1]

    @property
    def stop(self) -> int:
        return self.start + self.duration


@dataclass(frozen=True)
class Impairments:
    """Receiver-side impairments applied to the transmitted stream.

    theta is the integer timing offset in samples (delay-resolution
    units); epsilon is the CFO normalized by the Doppler resolution
    1/(M N Ts); snr_db is the data-region SNR, or None for noiseless.
    """

    theta: int = 0
    epsilon: float = 0.0
    snr_db: float | None = None


def single_tap_model(doppler_spectrum: str = "static",
                     nu_max: float = 0.0) -> ChannelModel:
    """Unit-power single tap at delay zero."""
    return ChannelModel(pdp=np.array([1.0]), nu_max=nu_max,
                        doppler_spectrum=doppler_spectrum)


def eva_model(ts: float, length: int, nu_max: float,
              doppler_spectrum: str = "jakes") -> ChannelModel:
    """EVA profile resampled to the sampling period ``ts`` over ``length`` taps.

    Each standard tap is mapped to the nearest sample bin (clipped to the
    last bin when a delay exceeds the span); powers landing in the same
    bin add, and the result is renormalized to unit total power.  A tap
    that rounds to just one bin past the span (the 2510 ns tap at the
    design rate and 21 taps) is folded in as expected and logged at
    DEBUG; a tap further out means the span truncates the profile and is
    logged as a WARNING.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    bins = np.rint(EVA_DELAYS_NS * 1e-9 / ts).astype(int)
    clipped = np.minimum(bins, length - 1)
    if np.any(bins > length):
        logger.warning(
            "EVA taps beyond %d bins clipped to the last bin", length)
    elif np.any(bins == length):
        logger.debug(
            "EVA tap rounding to bin %d folded into the last bin", length)
    pdp = np.zeros(length)
    np.add.at(pdp, clipped, 10.0 ** (EVA_POWERS_DB / 10.0))
    return ChannelModel(pdp=pdp / pdp.sum(), nu_max=nu_max,
                        doppler_spectrum=doppler_spectrum)


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


def realize_channel(model: ChannelModel, params: OtfsParams, duration: int,
                    seed, start: int = 0) -> ChannelRealization:
    """Draw one channel realization over samples [start, start + duration).

    Each tap is an independent sum of S = JAKES_SINUSOIDS equal-power
    complex sinusoids with arrival angles psi and phases phi uniform on
    [0, 2*pi),

        h[ell, k] = sqrt(p_ell / S) sum_s exp(j (phi_s + omega_s k)),
        omega_s = 2 pi nu_max Ts cos(psi_s),

    so the Doppler spectrum is the classical Jakes shape with maximum
    frequency ``model.nu_max`` (the random-angle model of Zheng & Xiao,
    IEEE Trans. Commun. 2003).  A static spectrum freezes every tap at its
    k = 0 value.

    The draws do not depend on the window: every tap draws its psi then
    phi, in tap order, whether or not it carries power, so a window
    matches the same samples of the start-0 realization of the same seed
    to rounding, and the draws of tap ell do not depend on which taps are
    live.  Only taps
    with nonzero power are synthesized; the others stay exactly zero.
    The sum is a blocked product: with k = start + b R + r and
    R = ceil(sqrt(duration)), row b of the (blocks x R) tap grid is
    exp(j (phi + omega (start + b R))) @ exp(j omega r).  Both phasor
    tables are built by doubling (:func:`_phasor_rows`), so a tap takes
    S (ceil(log2 blocks) + ceil(log2 R) + 2) exponentials and each sample
    is within a few ulps of the exact exp(j (phi + omega k)) sum.
    """
    if duration < 1:
        raise ValueError("duration must be >= 1")
    rng = np.random.default_rng(seed)
    n_taps = model.n_taps
    draws = rng.uniform(0.0, 2.0 * np.pi, (n_taps, 2, JAKES_SINUSOIDS))
    psi, phi = draws[:, 0], draws[:, 1]
    gains = np.sqrt(model.pdp) * (1.0 / np.sqrt(JAKES_SINUSOIDS))
    if model.doppler_spectrum == "static" or model.nu_max == 0.0:
        initial = np.exp(1j * phi).sum(axis=1)
        taps = np.repeat((gains * initial)[:, None], duration, axis=1)
        return ChannelRealization(taps=taps, start=start)
    live = np.flatnonzero(model.pdp)
    omega = 2.0 * np.pi * model.nu_max * params.ts * np.cos(psi[live])
    width = math.isqrt(duration - 1) + 1
    blocks = -(-duration // width)
    outer = _phasor_rows(phi[live] + omega * start, omega * width, blocks)
    inner = _phasor_rows(np.zeros_like(omega), omega, width)
    sums = np.matmul(outer, inner.swapaxes(-1, -2))
    taps = np.zeros((n_taps, duration), dtype=complex)
    taps[live] = (gains[live, None]
                  * sums.reshape(live.size, blocks * width)[:, :duration])
    return ChannelRealization(taps=taps, start=start)


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


def apply_impairments(stream: np.ndarray, real: ChannelRealization,
                      imp: Impairments, params: OtfsParams,
                      seed=None, length: int | None = None) -> np.ndarray:
    """Propagate ``stream`` through the channel with TO, CFO, and noise.

    r[k] = e^{j 2 pi eps k / (M N)} * sum_ell h[ell, k] s[k - ell - theta]
           + eta[k]

    for k = 0 .. length-1, with s taken as zero outside its support and
    eta complex white Gaussian with variance 10^(-snr_db/10) (unit-power
    data convention).  The CFO phase index k counts received samples from
    the start of the observation buffer.  ``length`` defaults to the end
    of the realization, ``real.stop``.

    Taps are indexed by absolute sample, relative to ``real.start``; the
    realization must cover the samples the stream reaches
    (:func:`stream_reach`), or this raises ``ValueError``.  Outside that
    reach the buffer is zero until noise is added, so the CFO ramp is
    applied only over it.  Taps that are zero over the reach (dead PDP
    bins) are skipped; adding their zero products would leave every
    output sample bit-identical.
    """
    stream = np.asarray(stream, dtype=complex)
    if stream.ndim != 1:
        raise ValueError("stream must be 1-D")
    if not float(imp.theta).is_integer():
        raise ValueError(f"timing offset must be an integer, got {imp.theta!r}")
    theta = int(imp.theta)
    length = real.stop if length is None else int(length)
    lo, hi = stream_reach(theta, stream.size, real.n_taps, length)
    if lo < hi and (lo < real.start or hi > real.stop):
        raise ValueError(
            f"channel window [{real.start}, {real.stop}) does not cover "
            f"the stream's reach [{lo}, {hi})")
    out = np.zeros(length, dtype=complex)
    live = np.any(real.taps[:, lo - real.start:hi - real.start], axis=1)
    for ell in np.flatnonzero(live):
        shift = theta + int(ell)
        first = max(0, shift)
        last = min(length, stream.size + shift)
        if first >= last:
            continue
        out[first:last] += (real.taps[ell, first - real.start:
                                      last - real.start]
                            * stream[first - shift:last - shift])
    if imp.epsilon != 0.0:
        out[lo:hi] *= np.exp(2j * np.pi * imp.epsilon * np.arange(lo, hi)
                             / params.mn)
    if imp.snr_db is not None:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(10.0 ** (-imp.snr_db / 10.0) / 2.0)
        out += sigma * (rng.standard_normal(length)
                        + 1j * rng.standard_normal(length))
    return out


def export_taps(real: ChannelRealization, path) -> None:
    """Write the realization as columnar text: k, ell, re, im.

    ``k`` is the absolute sample index, so a windowed realization exports
    only its window, [start, start + duration).
    """
    with open(path, "w") as fh:
        fh.write("k,ell,re,im\n")
        for ell in range(real.n_taps):
            row = real.taps[ell]
            for j in range(real.duration):
                fh.write(f"{real.start + j},{ell},{float(row[j].real)!r},"
                         f"{float(row[j].imag)!r}\n")

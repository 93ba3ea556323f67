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
    """Sampled tap gains h[ell, k], one row per tap."""

    taps: np.ndarray

    @property
    def n_taps(self) -> int:
        return self.taps.shape[0]

    @property
    def duration(self) -> int:
        return self.taps.shape[1]


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
    bin add, and the result is renormalized to unit total power.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    bins = np.rint(EVA_DELAYS_NS * 1e-9 / ts).astype(int)
    clipped = np.minimum(bins, length - 1)
    if np.any(bins != clipped):
        logger.warning(
            "EVA taps beyond %d bins clipped to the last bin", length)
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


def realize_channel(model: ChannelModel, params: OtfsParams, duration: int,
                    seed) -> ChannelRealization:
    """Draw one channel realization over ``duration`` samples.

    Each tap is an independent sum of S = JAKES_SINUSOIDS equal-power
    complex sinusoids with arrival angles psi and phases phi uniform on
    [0, 2*pi),

        h[ell, k] = sqrt(p_ell / S) sum_s exp(j (phi_s + omega_s k)),
        omega_s = 2 pi nu_max Ts cos(psi_s),

    so the Doppler spectrum is the classical Jakes shape with maximum
    frequency ``model.nu_max`` (the random-angle model of Zheng & Xiao,
    IEEE Trans. Commun. 2003).  A static spectrum freezes every tap at its
    k = 0 value.

    Every tap draws its psi then phi, in tap order, whether or not it
    carries power, so the draws of tap ell do not depend on which taps
    are live.  Only taps with nonzero power are synthesized; the others
    stay exactly zero.  The sum is a blocked product: with k = b R + r and
    R = ceil(sqrt(duration)), row b of the (blocks x R) tap grid is
    exp(j (phi + omega b R)) @ exp(j omega r), so only S (blocks + R)
    exponentials are taken per tap and each sample is one exact phasor
    product away from exp(j (phi + omega k)), with no running-product
    drift.
    """
    if duration < 1:
        raise ValueError("duration must be >= 1")
    rng = np.random.default_rng(seed)
    n_taps = model.n_taps
    psi = np.empty((n_taps, JAKES_SINUSOIDS))
    phi = np.empty((n_taps, JAKES_SINUSOIDS))
    for ell in range(n_taps):
        psi[ell] = rng.uniform(0.0, 2.0 * np.pi, JAKES_SINUSOIDS)
        phi[ell] = rng.uniform(0.0, 2.0 * np.pi, JAKES_SINUSOIDS)
    gains = np.sqrt(model.pdp) * (1.0 / np.sqrt(JAKES_SINUSOIDS))
    if model.doppler_spectrum == "static" or model.nu_max == 0.0:
        start = np.exp(1j * phi).sum(axis=1)
        taps = np.repeat((gains * start)[:, None], duration, axis=1)
        return ChannelRealization(taps=taps)
    live = np.flatnonzero(model.pdp)
    omega = 2.0 * np.pi * model.nu_max * params.ts * np.cos(psi[live])
    width = math.isqrt(duration - 1) + 1
    blocks = -(-duration // width)
    outer = np.exp(1j * (phi[live][:, None, :] + omega[:, None, :]
                         * (np.arange(blocks) * width)[None, :, None]))
    inner = np.exp(1j * omega[:, :, None] * np.arange(width)[None, None, :])
    sums = np.matmul(outer, inner).reshape(live.size, blocks * width)
    taps = np.zeros((n_taps, duration), dtype=complex)
    taps[live] = gains[live, None] * sums[:, :duration]
    return ChannelRealization(taps=taps)


def apply_impairments(stream: np.ndarray, real: ChannelRealization,
                      imp: Impairments, params: OtfsParams,
                      seed=None) -> np.ndarray:
    """Propagate ``stream`` through the channel with TO, CFO, and noise.

    r[k] = e^{j 2 pi eps k / (M N)} * sum_ell h[ell, k] s[k - ell - theta]
           + eta[k]

    for k = 0 .. duration-1, with s taken as zero outside its support and
    eta complex white Gaussian with variance 10^(-snr_db/10) (unit-power
    data convention).  The CFO phase index k counts received samples from
    the start of the observation buffer.  Taps that are zero over the
    samples the stream reaches (dead PDP bins) are skipped; adding their
    zero products would leave every output sample bit-identical.
    """
    stream = np.asarray(stream, dtype=complex)
    if stream.ndim != 1:
        raise ValueError("stream must be 1-D")
    if not float(imp.theta).is_integer():
        raise ValueError(f"timing offset must be an integer, got {imp.theta!r}")
    theta = int(imp.theta)
    duration = real.duration
    out = np.zeros(duration, dtype=complex)
    first, last = max(0, theta), max(0, theta + stream.size + real.n_taps - 1)
    for ell in np.flatnonzero(np.any(real.taps[:, first:last], axis=1)):
        shift = theta + int(ell)
        lo = max(0, shift)
        hi = min(duration, stream.size + shift)
        if lo >= hi:
            continue
        out[lo:hi] += real.taps[ell, lo:hi] * stream[lo - shift:hi - shift]
    if imp.epsilon != 0.0:
        out *= np.exp(2j * np.pi * imp.epsilon * np.arange(duration)
                      / params.mn)
    if imp.snr_db is not None:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(10.0 ** (-imp.snr_db / 10.0) / 2.0)
        out += sigma * (rng.standard_normal(duration)
                        + 1j * rng.standard_normal(duration))
    return out


def export_taps(real: ChannelRealization, path) -> None:
    """Write the realization as columnar text: k, ell, re, im."""
    with open(path, "w") as fh:
        fh.write("k,ell,re,im\n")
        for ell in range(real.n_taps):
            row = real.taps[ell]
            for k in range(real.duration):
                fh.write(f"{k},{ell},{float(row[k].real)!r},"
                         f"{float(row[k].imag)!r}\n")

"""Monte-Carlo experiment harness: configs, trials, aggregation, file IO.

An experiment is a sweep along one axis (data SNR or normalized
Doppler), optionally repeated per grid geometry; each sweep point runs
independent trials through the full chain: frame build -> channel ->
impairments -> timing sync -> coarse CFO -> fine CFO.  A trial's seeding
words are derived from the root seed and the trial index alone, so a
trial reuses the same data, channel, offsets, and unit-variance noise
shape at every sweep point; sweep points then differ only through the
swept quantity (common-random-numbers pairing), which makes trend
comparisons across points far less noisy than independent draws would.
A run is trial-major: every point's context is built first, then one
:func:`run_trial` call per trial index, handed that trial's words,
covers every point of every results file in one pass, making each
artefact on the first point that needs it.

Outputs are flat text: a results CSV with one row per sweep point, a
manifest echoing every resolved config key, and (for snapshots) the raw
metric traces, ML cost trace, and channel tap gains.  Floats are written
with ``repr`` so a round trip through the CSV is exact.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import __version__
from .cfo import (COARSE_STEP, MlWorkspace, build_workspace, coarse_cfo,
                  extract_pilot, fine_cfo, matched_order)
from .channel import (ChannelModel, apply_impairments, eva_model,
                      mean_delay, noise_sigma, realize_channel,
                      single_tap_model, stream_reach, tap_rows, unit_noise)
from .modem import OtfsParams, build_stream
from .pilot import PcpSpec, build_frame
from .timing import estimate_to, fold_offset

logger = logging.getLogger(__name__)

#: Errors the estimators raise on inputs they cannot handle; a trial that
#: hits one is counted as failed.  Anything else is a bug and propagates.
#: A config that cannot run (too many model tones for the slots, no trial,
#: a search window narrower than one coarse step) fails in
#: :func:`build_point`, before any trial.
ESTIMATOR_ERRORS = (ValueError,)


@dataclass
class ExperimentConfig:
    """Flat description of one experiment; every field is a config key.

    Geometry and pilot fields mirror :class:`OtfsParams` and
    :class:`PcpSpec`; ``pilot_m_p`` of ``None`` places the pilot at the
    grid center.  ``nu_max_t`` is the maximum Doppler times the block
    duration (nu_max * M * N * Ts), passed to the channel model as is; 0
    makes the channel static.

    ``theta``/``epsilon`` of ``None`` draw uniformly per trial (theta over
    [-MN/2, MN/2) integer, epsilon over +-(N/2 - nu_max_t)); fixed values
    make every trial use that offset, and a fixed theta must lie in the
    same range.  theta counts from the centred acquisition point that
    :func:`build_point` derives.

    Each trial transmits one block, and the fine-CFO search evaluates the
    trigonometric-polynomial ML cost over a BEM of order
    ``cfo.matched_order(nu_max_t)``.
    """

    # grid geometry and framing
    m: int = 128
    n: int = 32
    lcp: int = 32
    # pilot
    pilot_length: int = 21
    pilot_m_p: int | None = None
    # channel
    channel: str = "eva"
    nu_max_t: float = 1.36
    snr_db: float | None = 20.0
    # impairment draws
    theta: int | None = None
    epsilon: float | None = None
    # estimator settings
    cfo_half_width: float = 0.5
    # harness
    trials: int = 500
    seed: int = 1
    sweep: str = "snr_db"
    sweep_values: tuple = (0.0, 10.0, 20.0)
    geometries: tuple = ()


@dataclass
class TrialResult:
    """Outcome of one trial; failures carry a stage label instead of data."""

    theta_true: int
    eps_true: float
    theta_hat: int | None = None
    eps_coarse: float | None = None
    eps_fine: float | None = None
    failure: str | None = None


@dataclass
class PointSummary:
    """Aggregate statistics of one sweep point.

    Failed trials are counted and excluded from every average; variance
    is the population variance (ddof = 0) of the timing error, and the
    CFO mean-square errors fold estimate-minus-truth into the width-N
    principal interval first.
    """

    sweep_value: object
    to_err_mean: float
    to_err_var: float
    cfo_mse_coarse: float
    cfo_mse_fine: float
    trials: int
    failures: int


#: The results CSV header: the :class:`PointSummary` fields, in order.
RESULT_COLUMNS = tuple(f.name for f in dataclasses.fields(PointSummary))


@dataclass(frozen=True)
class PointContext:
    """Per-sweep-point objects built once and shared read-only by trials.

    ``footprint`` = Lcp + m_p - L + floor(mu), mu the channel's mean
    delay, is the delay-metric row of the first energised pilot row of a
    block that starts at sample 0: ``timing.estimate_to`` subtracts it
    from the delay peak.  ``advance`` = MN/2 - footprint is the
    receiver's acquisition offset (:func:`build_point`).
    """

    params: OtfsParams
    spec: PcpSpec
    model: ChannelModel
    footprint: int
    workspace: MlWorkspace
    advance: int


def resolve_pilot(config: ExperimentConfig, params: OtfsParams) -> PcpSpec:
    """Pilot spec from config: the delay anchor at the grid center unless
    ``pilot_m_p`` sets it."""
    m_p = params.m // 2 if config.pilot_m_p is None else config.pilot_m_p
    return PcpSpec(length=config.pilot_length, m_p=m_p)


def resolve_channel(config: ExperimentConfig) -> ChannelModel:
    if config.channel == "eva":
        return eva_model(config.pilot_length, config.nu_max_t)
    if config.channel == "single_tap":
        return single_tap_model(config.nu_max_t)
    raise ValueError(f"unknown channel kind {config.channel!r}")


def build_point(config: ExperimentConfig) -> PointContext:
    """Resolve one sweep point's geometry, channel, and ML workspace.

    Refuses, with ``ValueError``, a config that would run no trial, a
    negative seed, a fine search with less than one ``COARSE_STEP`` per
    side, a pilot shorter than 2, a fixed theta outside [-MN/2, MN/2),
    or a pilot whose received footprint leaves its slot: its rows, from
    the first reserved row m_p - L to the last pilot row m_p + L - 1
    spread by the largest delay d_max that carries power, must lie in
    the slot's rows [0, M - 1], or the pilot does not fit the grid and
    the delay metric wraps into the next slot.  No other place checks
    the pilot's fit.

    The receiver's acquisition offset ``advance`` = MN/2 - ``footprint``
    (:class:`PointContext`) is derived, not set: a trial shifts the
    stream by theta + advance and subtracts advance from the estimate
    again, which keeps the whole correlation footprint inside the 2 n_t
    buffer for every theta in [-MN/2, MN/2).
    """
    if config.trials < 1:
        raise ValueError(f"trials must be >= 1, got {config.trials}")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    if config.pilot_length < 2:
        raise ValueError("the delay metric needs a pilot of length >= 2 "
                         "(its window sums L-1 lag products)")
    if round(config.cfo_half_width / COARSE_STEP) < 1:
        raise ValueError(
            f"cfo_half_width must be at least one coarse step "
            f"({COARSE_STEP}), got {config.cfo_half_width!r}")
    params = OtfsParams(m=config.m, n=config.n, lcp=config.lcp)
    if config.theta is not None \
            and not -params.mn // 2 <= config.theta < params.mn // 2:
        raise ValueError(
            f"theta must lie in [-MN/2, MN/2) = [{-params.mn // 2}, "
            f"{params.mn // 2}), got {config.theta}")
    model = resolve_channel(config)
    spec = resolve_pilot(config, params)
    first = spec.m_p - spec.length
    reach = spec.m_p + spec.length - 1 + int(model.delays[-1])
    if first < 0 or reach > params.m - 1:
        raise ValueError(
            f"received pilot footprint spans delay rows [{first}, {reach}] "
            f"(m_p - L to m_p + L - 1 + largest tap delay), outside the "
            f"slot's rows [0, {params.m - 1}]; move pilot_m_p")
    footprint = params.lcp + first + math.floor(mean_delay(model))
    workspace = build_workspace(params, spec,
                                matched_order(config.nu_max_t))
    return PointContext(params=params, spec=spec, model=model,
                        footprint=footprint, workspace=workspace,
                        advance=params.mn // 2 - footprint)


#: numpy's ``SeedSequence`` constants (``numpy/random/bit_generator.pyx``):
#: the entropy hash, the output hash, the pool mix and the pool size.
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_POOL = 4

#: Trial indices per seeding pass of a run: it bounds a pass's words at
#: 128 kB.
_TABLE_BLOCK = 1024


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """Read-only c[j] = init * mult^j mod 2^32, j = 0 .. count, shaped
    (count + 1, 1, 1) to broadcast over a pool's trial and child axes."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    table = np.array(consts, dtype=np.uint32).reshape(-1, 1, 1)
    table.flags.writeable = False
    return table


def _hashmix(value, consts: np.ndarray, j: int, count: int) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``value`` with hash constants j .. j
    + count - 1, one per leading row of the result."""
    value = value ^ consts[j:j + count]
    value *= consts[j + 1:j + count + 1]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of pool words x with hashed words y."""
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    out ^= out >> 16
    return out


def _child_words(seed: int, start: int, count: int) -> np.ndarray:
    """(count, 4, 4) uint64: row [t - start, c] is
    ``SeedSequence([seed, t], spawn_key=(c,)).generate_state(4,
    np.uint64)``, the words that seed child c of trial t's ``PCG64``, for
    t in [start, start + count) below 2^32.

    One pass of numpy's algorithm over every (trial, child) at once.  The
    entropy is the seed's little-endian 32-bit words, the trial's word,
    zeros up to the pool size (added because there is a spawn key) and
    the child's word.  Its first four words fill the pool, which is
    cross-mixed; each later word is mixed into every pool word; the
    output hash then draws eight 32-bit words, paired low word first.
    Every hash constant depends only on its position, so one array step
    applies it to every (trial, child).
    """
    seed_words = [(seed >> shift) & 0xFFFFFFFF
                  for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.uint32(w) for w in seed_words]
    entropy.append(np.arange(start, start + count, dtype=np.uint32)[:, None])
    entropy += [np.uint32(0)] * (_POOL - len(entropy))
    entropy.append(np.arange(4, dtype=np.uint32))
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * len(entropy))
    pool = np.empty((_POOL, count, 1), dtype=np.uint32)
    for i, word in enumerate(entropy[:_POOL]):
        pool[i] = word
    pool, j = _hashmix(pool, a, 0, _POOL), _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a, j, _POOL - 1))
        j += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, a, j, _POOL))
        j += _POOL
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]],
                   _hash_consts(_INIT_B, _MULT_B, 8), 0, 8).astype(np.uint64)
    words = out[0::2] | (out[1::2] << np.uint64(32))
    return np.ascontiguousarray(words.transpose(1, 2, 0))


class _Words(ISeedSequence):
    """Hands ``PCG64`` four seeding words computed ahead of time."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("_Words holds exactly PCG64's four uint64 "
                             "seeding words")
        return self.words


def _child_rng(words: np.ndarray, child: int) -> np.random.Generator:
    """Generator of child ``child`` of a trial from its seeding words, a
    (4, 4) row of :func:`_child_words`: 0 draws the data, 1 the channel,
    2 the noise and 3 the offsets."""
    return np.random.Generator(np.random.PCG64(_Words(words[child])))


def _draw_offsets(words: np.ndarray, theta: int | None, mn: int) -> tuple:
    """(theta, u) from child 3: theta drawn over [-MN/2, MN/2) unless
    fixed, then the uniform u that sets epsilon unless that is fixed."""
    rng = _child_rng(words, 3)
    if theta is None:
        theta = rng.integers(-mn // 2, mn // 2)
    return int(theta), float(rng.uniform(0.0, 1.0))


def run_trial(points: list, words: np.ndarray,
              traces: dict | None = None) -> list:
    """One trial index at every (config, ctx) pair of ``points``: a result
    per point.

    ``words`` are the trial's seeding words, its (4, 4) row of
    :func:`_child_words`, which fix the seed and the trial index; every
    point of a call shares that seed.  This is the only place the receive
    chain is written out and the only place noise is added.  Each
    artefact is keyed by exactly the values it is computed from and made
    on its key's first use, from a child generator (:func:`_child_rng`)
    built only then:

    * offset draws (child 3): theta setting, MN.  theta is drawn over
      [-MN/2, MN/2) unless fixed, then a uniform u sets epsilon unless
      that is fixed;
    * frame and stream (child 0): geometry, pilot;
    * channel realization (child 1): the channel model's pdp and nu*T,
      MN, and the window [lo, hi) of the 2 n_t buffer that the shifted
      stream reaches (:func:`stream_reach`);
    * unit noise shape w (child 2): buffer length, drawn only for a noisy
      point;
    * noiseless received buffer, read-only: stream, realization, shift,
      epsilon.  Only the latest one is kept, and a point with another
      key replaces it.  In a run, points share it only when they differ
      in ``snr_db`` alone, and :func:`_run_tables` lists such points next
      to each other, so each is made once; another order only remakes
      it, bit for bit.

    A point receives ``clean + noise_sigma(snr_db) * w``.  Since no draw
    depends on the point, points share draws (common random numbers), and
    the results equal one-point calls bit for bit.  Nothing outlives the
    call.

    A ``traces`` dict, when given, receives each stage's artifacts as they
    are made: the channel ``realization`` (that window), the timing
    estimate ``to`` with its metric traces and slot band, and the
    fine-CFO ``estimate``; with several points, the last point's.
    """
    traces = {} if traces is None else traces
    made, results, clean_key = {}, [], None

    def once(key, make):
        if key not in made:
            made[key] = make()
        return made[key]

    for config, ctx in points:
        params, spec = ctx.params, ctx.spec
        theta, u = once(("offsets", config.theta, params.mn),
                        lambda: _draw_offsets(words, config.theta, params.mn))
        eps = (u - 0.5) * (params.n - 2.0 * config.nu_max_t) \
            if config.epsilon is None else float(config.epsilon)
        shift, length = theta + ctx.advance, 2 * params.n_t
        lo, hi = stream_reach(shift, params.n_t, ctx.model.n_taps, length)
        # Plain values, not the params and spec objects: a tuple of them
        # hashes without a Python call.
        stream_key = ("stream", params.m, params.n, params.lcp, spec.length,
                      spec.m_p)
        real_key = ("realization", ctx.model.pdp.tobytes(),
                    ctx.model.nu_max_t, params.mn, lo, hi)
        real = traces["realization"] = once(real_key, lambda: realize_channel(
            ctx.model, params, hi - lo, _child_rng(words, 1), start=lo))
        if (stream_key, real_key, shift, eps) != clean_key:
            clean_key = (stream_key, real_key, shift, eps)
            stream = once(stream_key, lambda: build_stream(build_frame(
                params, spec, _child_rng(words, 0)), params))
            clean = apply_impairments(stream, real, shift, eps, params,
                                      length=length)
            # Every noiseless point that shares it receives this array.
            clean.flags.writeable = False
        received = clean
        if config.snr_db is not None:
            w = once(("noise", length),
                     lambda: unit_noise(length, _child_rng(words, 2)))
            received = clean + noise_sigma(config.snr_db) * w

        result = TrialResult(theta_true=theta, eps_true=eps)
        stage = "timing"
        try:
            to = traces["to"] = estimate_to(received, params, spec,
                                            ctx.footprint)
            result.theta_hat = int(fold_offset(to.theta_hat - ctx.advance,
                                               params.n_t))
            stage = "coarse"
            result.eps_coarse = coarse_cfo(to, params, spec)
            stage = "fine"
            r_p = extract_pilot(received, to.theta_hat, params, spec)
            estimate = fine_cfo(r_p, ctx.workspace, result.eps_coarse,
                                half_width=config.cfo_half_width)
            traces["estimate"] = estimate
            result.eps_fine = float(fold_offset(estimate.eps_fine, params.n))
        except ESTIMATOR_ERRORS as exc:
            result.failure = f"{stage}: {exc}"
        results.append(result)
    return results


def aggregate(sweep_value, results, ctx: PointContext) -> PointSummary:
    """Reduce one point's trial results to the summary row."""
    ok = [r for r in results if r.failure is None]
    to_err = np.array([fold_offset(r.theta_hat - r.theta_true,
                                   ctx.params.n_t) for r in ok])
    ce = np.array([fold_offset(r.eps_coarse - r.eps_true, ctx.params.n)
                   for r in ok])
    fe = np.array([fold_offset(r.eps_fine - r.eps_true, ctx.params.n)
                   for r in ok])
    return PointSummary(
        sweep_value=sweep_value,
        to_err_mean=float(to_err.mean()) if ok else float("nan"),
        to_err_var=float(to_err.var()) if ok else float("nan"),
        cfo_mse_coarse=float(np.mean(ce ** 2)) if ok else float("nan"),
        cfo_mse_fine=float(np.mean(fe ** 2)) if ok else float("nan"),
        trials=len(results),
        failures=len(results) - len(ok),
    )


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    """Columnar text with exact float round-trip; header-only when empty."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(cell) for cell in row) + "\n")


#: How ``None`` is spelled for each optional key: the first word is the
#: one written, every word is accepted on input.
_NONE_WORDS = {"pilot_m_p": ("auto", "none"), "snr_db": ("none", "off"),
               "theta": ("random",), "epsilon": ("random",)}


def config_items(config: ExperimentConfig) -> list:
    """(key, value-string) pairs for every config field, in field order."""
    items = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name in ("sweep_values", "geometries"):
            if f.name == "geometries":
                text = ",".join(f"{m}x{n}" for m, n in value)
            else:
                text = ",".join(_format_cell(v) for v in value)
        elif value is None:
            text = _NONE_WORDS[f.name][0]
        else:
            text = _format_cell(value)
        items.append((f.name, text))
    return items


def write_manifest(path, config: ExperimentConfig) -> None:
    """Echo the fully resolved config; identical configs give identical files."""
    with open(path, "w") as fh:
        fh.write(f"version={__version__}\n")
        for key, text in config_items(config):
            fh.write(f"{key}={text}\n")


#: Annotation text of each config field, e.g. ``"int | None"``.
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _finite(text: str) -> float:
    """The float ``text`` spells; nan and +-inf raise ``ValueError``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_value(name: str, text: str):
    """Convert one config value of a known key from its text form.  Every
    key that is not an int, a tuple, ``channel`` or ``sweep`` is a float,
    and a float must be finite."""
    text = text.strip()
    low = text.lower()
    kind = _FIELD_TYPES[name]
    if low in _NONE_WORDS.get(name, ()):
        return None
    if name == "sweep_values":
        return tuple(_finite(v) for v in text.split(",") if v.strip())
    if name == "geometries":
        pairs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            m_txt, n_txt = part.lower().split("x")
            pairs.append((int(m_txt), int(n_txt)))
        return tuple(pairs)
    if name in ("channel", "sweep"):
        return low
    if kind.startswith("int"):
        return int(text)
    return _finite(text)


def _parse_item(key: str, text: str):
    """The value of one (key, text) pair; an unknown key or a value that
    does not parse raises ``ValueError`` naming the key."""
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return _parse_value(key, text)
    except ValueError as exc:
        raise ValueError(f"config key {key}: {exc}") from exc


def update_config(config: ExperimentConfig, items) -> ExperimentConfig:
    """``config`` with each (key, text) pair parsed and set; of repeated
    keys the last pair wins.  A value that does not parse raises
    ``ValueError`` naming its key."""
    return replace(config, **{key: _parse_item(key, text)
                              for key, text in items})


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` lines over the defaults; '#' starts a
    comment, and of repeated keys the last line wins.  An error names its
    line."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, "
                             f"got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        try:
            values[key] = _parse_item(key, value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from exc
    return replace(ExperimentConfig(), **values)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def sweep_axis(config: ExperimentConfig) -> str:
    """The configured sweep axis, ``snr_db`` or ``nu_max_t``; any other
    value raises ``ValueError``."""
    if config.sweep not in ("snr_db", "nu_max_t"):
        raise ValueError(f"unknown sweep axis {config.sweep!r}")
    return config.sweep


def context_key(config: ExperimentConfig) -> tuple:
    """Cache key of the point context: every config field but ``snr_db``.

    The data SNR only scales the noise drawn per trial, so points that
    differ in nothing else share one :func:`build_point` result.
    """
    return tuple(getattr(config, f.name) for f in dataclasses.fields(config)
                 if f.name != "snr_db")


def _run_tables(tables: dict) -> dict:
    """Summaries of ``tables``, {results filename: [(sweep value, config),
    ...]}, per file and in point order.

    Every point's context is built first, one :func:`build_point` per
    distinct :func:`context_key`, so an input error stops the run before
    any trial.  Then one :func:`run_trial` call per trial index covers
    every point of every file, which makes each trial artefact once per
    distinct input.  The points share the seed and trial count of the
    first one; the trials' seeding words come from one
    :func:`_child_words` pass per block of ``_TABLE_BLOCK`` trial
    indices.  The run logs one INFO line; failure warnings and
    aggregation follow in point order.
    """
    contexts, labels, points = {}, [], []
    for filename, rows in tables.items():
        for value, config in rows:
            key = context_key(config)
            if key not in contexts:
                contexts[key] = build_point(config)
            labels.append((filename, value))
            points.append((config, contexts[key]))
    seed, trials = points[0][0].seed, points[0][0].trials
    tic = time.perf_counter()
    results = [[] for _ in points]
    for start in range(0, trials, _TABLE_BLOCK):
        for words in _child_words(seed, start,
                                  min(_TABLE_BLOCK, trials - start)):
            for point, result in zip(results, run_trial(points, words)):
                point.append(result)
    if logger.isEnabledFor(logging.INFO):
        logger.info("%s done in %.3f s (%d trials each)",
                    "; ".join(f"{filename}: {rows[0][1].sweep}="
                              + ",".join(str(value) for value, _ in rows)
                              for filename, rows in tables.items()),
                    time.perf_counter() - tic, trials)
    summaries = {filename: [] for filename in tables}
    for (filename, value), (_, ctx), point_results in zip(labels, points,
                                                          results):
        for t, r in enumerate(point_results):
            if r.failure is not None:
                logger.warning("point %s: trial %d failed (%s)", value, t,
                               r.failure)
        summaries[filename].append(aggregate(value, point_results, ctx))
    return summaries


def _run_and_write(tables: dict, config: ExperimentConfig,
                   out_dir) -> dict:
    """:func:`_run_tables` of ``tables``, then one results CSV per file
    and the manifest of ``config`` in ``out_dir``; returns the
    summaries."""
    emitted = _run_tables(tables)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for filename, summaries in emitted.items():
        write_csv(out / filename, RESULT_COLUMNS,
                  [dataclasses.astuple(s) for s in summaries])
    write_manifest(out / "manifest.txt", config)
    return emitted


def run_sweep(config: ExperimentConfig, out_dir) -> dict:
    """Full sweep; returns {csv filename: [PointSummary, ...]}.

    With ``geometries`` set, the whole axis is swept once per geometry and
    written to ``results_{M}x{N}.csv`` each; otherwise everything lands in
    ``results.csv``.  A point is its file's config with the
    :func:`sweep_axis` key set to the point's sweep value.  All files run
    as one :func:`_run_tables`, and nothing is written before every trial
    has run.
    """
    if not config.sweep_values:
        raise ValueError("sweep_values is empty: a sweep needs at least "
                         "one point")
    axis = sweep_axis(config)
    variants = [(f"results_{m}x{n}.csv", replace(config, m=m, n=n))
                for m, n in config.geometries] \
        or [("results.csv", config)]
    return _run_and_write({filename: [(v, replace(variant, **{axis: v}))
                                      for v in config.sweep_values]
                           for filename, variant in variants},
                          config, out_dir)


def run_single(config: ExperimentConfig, out_dir) -> PointSummary:
    """One sweep point at the config's scalar settings: a one-point table
    whose sweep value is the config's value of the :func:`sweep_axis`."""
    axis = sweep_axis(config)
    [summary] = _run_and_write(
        {"results.csv": [(getattr(config, axis), config)]},
        config, out_dir)["results.csv"]
    return summary


def run_snapshot(config: ExperimentConfig, out_dir) -> dict:
    """Single-trial deep dive: trial 0 of :func:`run_trial`, traced.

    Emits the raw metric, cost, and channel traces of the same pipeline
    that ``run`` and ``sweep`` execute, seeded from a one-trial
    :func:`_child_words` pass as a run's trial 0 is; a failed trial
    raises ``ValueError`` naming its stage.

    Files: ``metric_delay.csv`` and ``metric_time.csv`` with columns
    (index, abs, angle); ``cost_trace.csv`` with the evaluated fine-CFO
    grid (eps, cost); ``channel_taps.csv`` with the realization's gains
    (k, ell, re, im) (:func:`channel.tap_rows`); and
    ``estimate.txt`` with the trial's truths and estimates.
    """
    traces = {}
    [result] = run_trial([(config, build_point(config))],
                         _child_words(config.seed, 0, 1)[0], traces)
    if result.failure is not None:
        raise ValueError(f"snapshot trial failed at {result.failure}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    to = traces["to"]
    for name, trace in (("metric_delay.csv", to.p_d),
                        ("metric_time.csv", to.p_t)):
        rows = [(i, float(np.abs(v)), float(np.angle(v)))
                for i, v in enumerate(trace)]
        write_csv(out / name, ("index", "abs", "angle"), rows)
    write_csv(out / "cost_trace.csv", ("eps", "cost"),
              [(float(e), float(c))
               for e, c in traces["estimate"].cost_trace])
    write_csv(out / "channel_taps.csv", ("k", "ell", "re", "im"),
              tap_rows(traces["realization"]))
    report = {
        "theta_true": result.theta_true,
        "theta_hat": result.theta_hat,
        "theta_d_hat": to.theta_d_hat,
        "theta_t_hat": to.theta_t_hat,
        "metric_delay_argmax": int(np.argmax(np.abs(to.p_d))),
        "metric_time_argmax": int(np.argmax(np.abs(to.p_t))),
        "eps_true": result.eps_true,
        "eps_coarse": result.eps_coarse,
        "eps_fine": result.eps_fine,
    }
    with open(out / "estimate.txt", "w") as fh:
        for key, value in report.items():
            fh.write(f"{key}={_format_cell(value)}\n")
    write_manifest(out / "manifest.txt", config)
    return report

"""Monte-Carlo experiment harness: configs, trials, aggregation, file IO.

An experiment is a sweep along one axis (data SNR, normalized Doppler, or
grid geometry); each sweep point runs independent trials through the full
chain: frame build -> channel -> impairments -> timing sync -> coarse CFO
-> fine CFO.  Per-trial random seeds are derived from the root seed by
trial index alone, so a trial reuses the same data, channel, offsets, and
unit-variance noise shape at every sweep point; sweep points then differ
only through the swept quantity (common-random-numbers pairing), which
makes trend comparisons across points far less noisy than independent
draws would.

Outputs are flat text: a results CSV with one row per sweep point, a
manifest echoing every resolved config key, and (for snapshots) the raw
metric traces, ML cost trace, and channel tap export.  Floats are written
with ``repr`` so a round trip through the CSV is exact.
"""

from __future__ import annotations

import dataclasses
import logging
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .cfo import (MlWorkspace, SingularModelError, build_bem,
                  build_workspace, coarse_cfo, extract_pilot, fine_cfo)
from .channel import (ChannelModel, Impairments, apply_impairments,
                      eva_model, export_taps, mean_delay, realize_channel,
                      single_tap_model, stream_reach)
from .modem import OtfsParams, build_stream
from .pilot import PcpSpec, build_frame
from .timing import estimate_to, fold_offset

logger = logging.getLogger(__name__)

RESULT_COLUMNS = ("sweep_value", "to_err_mean", "to_err_var",
                  "cfo_mse_coarse", "cfo_mse_fine", "trials", "failures")

#: Errors the estimators raise on inputs they cannot handle; a trial that
#: hits one is counted as failed.  Anything else is a bug and propagates.
ESTIMATOR_ERRORS = (ValueError, SingularModelError, np.linalg.LinAlgError)


@dataclass
class ExperimentConfig:
    """Flat description of one experiment; every field is a config key.

    Geometry and pilot fields mirror :class:`OtfsParams` and
    :class:`PcpSpec`; ``pilot_m_p``/``pilot_n_p`` of ``None`` place the
    pilot at the grid center.  ``nu_max_t`` is the maximum Doppler
    normalized by the block duration (nu_max * M * N * Ts).

    ``advance`` is the receiver's acquisition offset: the transmitted
    stream is shifted by ``theta + advance`` before the buffer is cut, and
    ``advance`` is subtracted from the estimate again, so it cancels for a
    working estimator and merely positions the pattern inside the scan.
    ``"centered"`` chooses the offset that keeps the whole correlation
    footprint inside the buffer for every theta in the draw range.

    ``theta``/``epsilon`` of ``None`` draw uniformly per trial (theta over
    [-MN/2, MN/2) integer, epsilon over +-(N - nu_max_t)/2); fixed values
    make every trial use that offset.

    Modes: ``bias_correction_known_pdp`` subtracts floor(mu_h) computed
    from the power delay profile inside the timing estimator; when off,
    the CP is lengthened by floor(mu_h) instead and the estimator assumes
    zero mean delay.  ``bem_literal_exponent`` doubles the basis-tone
    exponent (a documented variant switch), ``fast_cost`` selects the
    trigonometric-polynomial ML cost over the matrix form.
    """

    # grid geometry and framing
    m: int = 128
    n: int = 32
    lcp: int = 32
    ts: float = 1.0 / 8.25e6
    blocks: int = 1
    # pilot
    pilot_length: int = 21
    pilot_m_p: int | None = None
    pilot_n_p: int | None = None
    pilot_zc_root: int = 1
    pilot_power_db: float = 40.0
    # channel
    channel: str = "eva"
    doppler_spectrum: str = "jakes"
    nu_max_t: float = 1.36
    snr_db: float | None = 20.0
    # impairment draws
    theta: int | None = None
    epsilon: float | None = None
    advance: int | str = "centered"
    # estimator settings
    bem_k: int = 4
    bem_q: int | None = None
    cfo_half_width: float = 0.5
    # modes
    bias_correction_known_pdp: bool = True
    bem_literal_exponent: bool = False
    fast_cost: bool = True
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
    t_timing: float = 0.0
    t_coarse: float = 0.0
    t_fine: float = 0.0
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


@dataclass(frozen=True)
class PointContext:
    """Per-sweep-point objects built once and shared read-only by trials."""

    params: OtfsParams
    spec: PcpSpec
    model: ChannelModel
    mu_est: float
    workspace: MlWorkspace
    advance: int
    eps_span: float


def resolve_pilot(config: ExperimentConfig, params: OtfsParams) -> PcpSpec:
    """Pilot spec from config, defaulting the anchors to the grid center."""
    m_p = params.m // 2 if config.pilot_m_p is None else config.pilot_m_p
    n_p = params.n // 2 if config.pilot_n_p is None else config.pilot_n_p
    spec = PcpSpec(length=config.pilot_length, m_p=m_p, n_p=n_p,
                   zc_root=config.pilot_zc_root,
                   power_db=config.pilot_power_db)
    spec.validate_fit(params)
    return spec


def resolve_channel(config: ExperimentConfig,
                    params: OtfsParams) -> ChannelModel:
    nu_max = config.nu_max_t / (params.mn * params.ts)
    if config.channel == "eva":
        return eva_model(params.ts, config.pilot_length, nu_max,
                         doppler_spectrum=config.doppler_spectrum)
    if config.channel == "single_tap":
        return single_tap_model(doppler_spectrum=config.doppler_spectrum,
                                nu_max=nu_max)
    raise ValueError(f"unknown channel kind {config.channel!r}")


def build_point(config: ExperimentConfig) -> PointContext:
    """Resolve one sweep point's geometry, channel, and ML workspace."""
    params = OtfsParams(m=config.m, n=config.n, lcp=config.lcp,
                        ts=config.ts, blocks=config.blocks)
    model = resolve_channel(config, params)
    mu_model = mean_delay(model)
    if config.bias_correction_known_pdp:
        mu_est = mu_model
    else:
        params = replace(params, lcp=params.lcp + int(np.floor(mu_model)))
        mu_est = 0.0
    spec = resolve_pilot(config, params)
    if config.advance == "centered":
        footprint = params.lcp + (spec.m_p - spec.length) \
            + int(np.floor(mu_model))
        advance = params.mn // 2 - footprint
    else:
        advance = int(config.advance)
    bem = build_bem(params, spec, k=config.bem_k, nu_max=model.nu_max,
                    q=config.bem_q,
                    literal_exponent=config.bem_literal_exponent)
    workspace = build_workspace(params, spec, bem)
    eps_span = params.n - 2.0 * model.nu_max * params.mn * params.ts
    return PointContext(params=params, spec=spec, model=model,
                        mu_est=mu_est, workspace=workspace,
                        advance=advance, eps_span=eps_span)


def trial_streams(root_seed: int, trial_idx: int) -> list:
    """Independent generators for data, channel, noise, and offset draws.

    Seeds depend only on (root_seed, trial_idx), never on the sweep point,
    so the same trial index reproduces the same randomness at every point.
    """
    ss = np.random.SeedSequence([int(root_seed), int(trial_idx)])
    return [np.random.default_rng(child) for child in ss.spawn(4)]


def run_trial(config: ExperimentConfig, ctx: PointContext,
              trial_idx: int, traces: dict | None = None) -> TrialResult:
    """One end-to-end trial: synthesize, impair, synchronize.

    This is the only place the receive chain is written out.  The channel
    is synthesized only over the samples of the 2 n_t buffer that the
    shifted stream reaches (:func:`stream_reach`); the rest of the buffer
    carries noise alone.  A ``traces`` dict, when given, receives each
    stage's artifacts as they are made: the channel ``realization`` (that
    window), the timing estimate ``to`` and its ``metrics``, and the
    fine-CFO ``estimate``.
    """
    params, spec = ctx.params, ctx.spec
    traces = {} if traces is None else traces
    r_data, r_chan, r_noise, r_draw = trial_streams(config.seed, trial_idx)
    if config.theta is None:
        theta = int(r_draw.integers(-params.mn // 2, params.mn // 2))
    else:
        theta = int(config.theta)
    u = float(r_draw.uniform(0.0, 1.0))
    eps = (u - 0.5) * ctx.eps_span if config.epsilon is None \
        else float(config.epsilon)

    grids = [build_frame(params, spec, r_data)
             for _ in range(params.blocks)]
    stream = build_stream(grids, params)
    shift, length = theta + ctx.advance, 2 * params.n_t
    lo, hi = stream_reach(shift, stream.size, ctx.model.n_taps, length)
    # A stream that misses the buffer reads no taps; one sample keeps the
    # realization nonempty.
    realization = realize_channel(ctx.model, params, max(hi - lo, 1), r_chan,
                                  start=lo)
    traces["realization"] = realization
    received = apply_impairments(
        stream, realization,
        Impairments(theta=shift, epsilon=eps, snr_db=config.snr_db),
        params, r_noise, length=length)

    result = TrialResult(theta_true=theta, eps_true=eps)
    tic = time.perf_counter()
    try:
        to, metrics = estimate_to(received, params, spec, ctx.mu_est)
        traces.update(to=to, metrics=metrics)
        result.theta_hat = int(fold_offset(to.theta_hat - ctx.advance,
                                           params.n_t))
    except ESTIMATOR_ERRORS as exc:
        result.failure = f"timing: {exc}"
        return result
    finally:
        result.t_timing = time.perf_counter() - tic

    tic = time.perf_counter()
    try:
        result.eps_coarse = coarse_cfo(received, to, params, spec)
    except ESTIMATOR_ERRORS as exc:
        result.failure = f"coarse: {exc}"
        return result
    finally:
        result.t_coarse = time.perf_counter() - tic

    tic = time.perf_counter()
    try:
        r_p = extract_pilot(received, to.theta_hat, params, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            estimate = fine_cfo(r_p, ctx.workspace, result.eps_coarse,
                                half_width=config.cfo_half_width,
                                use_fast=config.fast_cost)
        traces["estimate"] = estimate
        result.eps_fine = float(fold_offset(estimate.eps_fine, params.n))
    except ESTIMATOR_ERRORS as exc:
        result.failure = f"fine: {exc}"
        return result
    finally:
        result.t_fine = time.perf_counter() - tic
    return result


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


def run_point(config: ExperimentConfig, sweep_value,
              ctx: PointContext | None = None) -> PointSummary:
    """Run all trials of one sweep point and aggregate them."""
    if ctx is None:
        ctx = build_point(config)
    results = [run_trial(config, ctx, t) for t in range(config.trials)]
    for r in results:
        if r.failure is not None:
            logger.warning("trial failed (%s)", r.failure)
    return aggregate(sweep_value, results, ctx)


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


def read_csv(path) -> tuple:
    """Inverse of :func:`write_csv`: (header tuple, list of string rows)."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = tuple(lines[0].split(","))
    return header, [tuple(line.split(",")) for line in lines[1:]]


def summary_rows(summaries) -> list:
    return [(s.sweep_value, s.to_err_mean, s.to_err_var, s.cfo_mse_coarse,
             s.cfo_mse_fine, s.trials, s.failures) for s in summaries]


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
            text = "auto" if f.name in ("pilot_m_p", "pilot_n_p", "bem_q") \
                else ("none" if f.name == "snr_db" else "random")
        elif isinstance(value, bool):
            text = "true" if value else "false"
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


_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _parse_value(name: str, text: str):
    """Convert one config value from its text form."""
    text = text.strip()
    low = text.lower()
    if name in ("pilot_m_p", "pilot_n_p", "bem_q"):
        return None if low in ("auto", "none") else int(text)
    if name == "snr_db":
        return None if low in ("none", "off") else float(text)
    if name == "theta":
        return None if low == "random" else int(text)
    if name == "epsilon":
        return None if low == "random" else float(text)
    if name == "advance":
        return "centered" if low == "centered" else int(text)
    if name in ("bias_correction_known_pdp", "bem_literal_exponent",
                "fast_cost"):
        if low not in _BOOL_WORDS:
            raise ValueError(f"config key {name} expects a boolean, "
                             f"got {text!r}")
        return _BOOL_WORDS[low]
    if name == "sweep_values":
        return tuple(float(v) for v in text.split(",") if v.strip())
    if name == "geometries":
        pairs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            m_txt, n_txt = part.lower().split("x")
            pairs.append((int(m_txt), int(n_txt)))
        return tuple(pairs)
    if name in ("channel", "doppler_spectrum", "sweep"):
        return low
    field_types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    if name not in field_types:
        raise ValueError(f"unknown config key {name!r}")
    if field_types[name] == "int":
        return int(text)
    if field_types[name] == "float":
        return float(text)
    return text


def parse_config(text: str, base: ExperimentConfig | None = None
                 ) -> ExperimentConfig:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    config = base if base is not None else ExperimentConfig()
    updates = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, "
                             f"got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        updates[key] = _parse_value(key, value)
    return replace(config, **updates)


def load_config(path, base: ExperimentConfig | None = None
                ) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), base=base)


def sweep_axis_configs(config: ExperimentConfig):
    """Yield (sweep_value, point config) pairs along the configured axis."""
    if config.sweep in ("snr_db", "nu_max_t"):
        for value in config.sweep_values:
            yield value, replace(config, **{config.sweep: value})
    elif config.sweep == "geometry":
        if not config.geometries:
            raise ValueError("sweep=geometry needs the geometries key")
        for m, n in config.geometries:
            yield f"{m}x{n}", replace(config, m=m, n=n)
    else:
        raise ValueError(f"unknown sweep axis {config.sweep!r}")


def context_key(config: ExperimentConfig) -> tuple:
    """Cache key of the point context: every config field but ``snr_db``.

    The data SNR only scales the noise drawn per trial, so points that
    differ in nothing else share one :func:`build_point` result.
    """
    return dataclasses.astuple(replace(config, snr_db=None))


def run_sweep(config: ExperimentConfig, out_dir) -> dict:
    """Full sweep; returns {csv filename: [PointSummary, ...]}.

    With a non-geometry axis and several ``geometries``, the whole axis is
    swept once per geometry and written to ``results_{M}x{N}.csv`` each;
    otherwise everything lands in ``results.csv``.  Point contexts are
    cached so an SNR sweep builds its ML workspace once.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.sweep != "geometry" and config.geometries:
        variants = [(f"results_{m}x{n}.csv", replace(config, m=m, n=n))
                    for m, n in config.geometries]
    else:
        variants = [("results.csv", config)]

    emitted = {}
    for filename, variant in variants:
        summaries = []
        cache = {}
        for value, point_cfg in sweep_axis_configs(variant):
            key = context_key(point_cfg)
            if key not in cache:
                cache[key] = build_point(point_cfg)
            tic = time.perf_counter()
            summary = run_point(point_cfg, value, ctx=cache[key])
            logger.info("point %s=%s done in %.1f s (%d trials)",
                        variant.sweep, value, time.perf_counter() - tic,
                        point_cfg.trials)
            summaries.append(summary)
        write_csv(out / filename, RESULT_COLUMNS, summary_rows(summaries))
        emitted[filename] = summaries
    write_manifest(out / "manifest.txt", config)
    return emitted


def run_single(config: ExperimentConfig, out_dir) -> PointSummary:
    """One sweep point at the config's scalar settings."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    value = config.snr_db if config.sweep == "snr_db" else config.nu_max_t
    summary = run_point(config, value)
    write_csv(out / "results.csv", RESULT_COLUMNS, summary_rows([summary]))
    write_manifest(out / "manifest.txt", config)
    return summary


def run_snapshot(config: ExperimentConfig, out_dir) -> dict:
    """Single-trial deep dive: trial 0 of :func:`run_trial`, traced.

    Emits the raw metric, cost, and channel traces of the same pipeline
    that ``run`` and ``sweep`` execute; a failed trial raises
    ``ValueError`` naming its stage.

    Files: ``metric_delay.csv`` and ``metric_time.csv`` with columns
    (index, abs, angle); ``cost_trace.csv`` with the evaluated fine-CFO
    grid (eps, cost); ``channel_taps.csv`` from the tap export; and
    ``estimate.txt`` with the trial's truths and estimates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traces = {}
    result = run_trial(config, build_point(config), 0, traces)
    if result.failure is not None:
        raise ValueError(f"snapshot trial failed at {result.failure}")
    to, metrics = traces["to"], traces["metrics"]

    for name, trace in (("metric_delay.csv", metrics.p_d),
                        ("metric_time.csv", metrics.p_t)):
        rows = [(i, float(np.abs(v)), float(np.angle(v)))
                for i, v in enumerate(trace)]
        write_csv(out / name, ("index", "abs", "angle"), rows)
    write_csv(out / "cost_trace.csv", ("eps", "cost"),
              [(float(e), float(c))
               for e, c in traces["estimate"].cost_trace])
    export_taps(traces["realization"], out / "channel_taps.csv")
    report = {
        "theta_true": result.theta_true,
        "theta_hat": result.theta_hat,
        "theta_d_hat": to.theta_d_hat,
        "theta_t_hat": to.theta_t_hat,
        "metric_delay_argmax": int(np.argmax(np.abs(metrics.p_d))),
        "metric_time_argmax": int(np.argmax(np.abs(metrics.p_t))),
        "eps_true": result.eps_true,
        "eps_coarse": result.eps_coarse,
        "eps_fine": result.eps_fine,
    }
    with open(out / "estimate.txt", "w") as fh:
        for key, value in report.items():
            fh.write(f"{key}={_format_cell(value)}\n")
    write_manifest(out / "manifest.txt", config)
    return report

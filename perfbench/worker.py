"""One pass of one workload, in its own process: ``run.py`` starts it.

The pass calls the user's entry point, ``otfs_sync.cli.main(["sweep",
...])``, in this process, one trial at a time.  Untraced, it wraps only
``harness.build_point`` (to time set-up) and ``harness.aggregate`` (to see
each trial's estimates for the gate); traced, it also wraps every public
library function (see ``spans.py``), passes an ``OpCounter`` into each
fine-CFO search and counts the estimators' guard-rail warnings.

The BLAS thread pins must be in the environment before numpy is imported,
so ``run.py`` sets them when it starts this process.

Writes ``result.json`` into ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.metadata
import inspect
import io
import json
import logging
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if any(os.environ.get(pin) != "1" for pin in PINS):
    sys.exit(f"worker: set {', '.join(PINS)} to 1 before numpy is imported")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
from otfs_sync import cfo, cli, harness  # noqa: E402
from run import STAGE_SHARES  # noqa: E402
from workloads import WORKLOADS, round_seed  # noqa: E402


class Recorder:
    """Set-up time and per-trial estimates, seen through two harness calls."""

    def __init__(self):
        self.setup = 0.0
        self.records: list = []

    def reset(self) -> None:
        self.setup, self.records = 0.0, []

    def install(self) -> None:
        build_point = harness.build_point

        @functools.wraps(build_point)
        def timed_build_point(*args, **kwargs):
            tic = time.perf_counter()
            try:
                return build_point(*args, **kwargs)
            finally:
                self.setup += time.perf_counter() - tic

        aggregate = harness.aggregate
        signature = inspect.signature(aggregate)

        @functools.wraps(aggregate)
        def recording_aggregate(*args, **kwargs):
            call = signature.bind(*args, **kwargs).arguments
            params = call["ctx"].params
            point = f"{params.m}x{params.n}@{call['sweep_value']}"
            self.records += [trial_record(point, r, params)
                             for r in call["results"]]
            return aggregate(*args, **kwargs)

        spans.rebind(build_point, timed_build_point)
        spans.rebind(aggregate, recording_aggregate)


def trial_record(point: str, result, params) -> gate.TrialRecord:
    if result.failure is not None:
        return gate.TrialRecord(point, None, None, None, result.failure)
    return gate.TrialRecord(
        point,
        gate.fold(result.theta_hat - result.theta_true, params.n_t),
        gate.fold(result.eps_coarse - result.eps_true, params.n),
        gate.fold(result.eps_fine - result.eps_true, params.n),
        None)


class FineCfoWork:
    """Multiplies and grid points of every fine-CFO search.

    Passes an ``OpCounter`` through ``fine_cfo``'s ``counter=`` keyword and
    checks each fast-path count against criterion 9's invariant.
    """

    def __init__(self):
        self.calls = 0
        self.multiplies = 0
        self.grid_points = 0
        self.mismatches: list = []

    def install(self) -> None:
        fine_cfo = cfo.fine_cfo
        signature = inspect.signature(fine_cfo)

        @functools.wraps(fine_cfo)
        def counted(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            counter = call.arguments["counter"]
            if counter is None:
                counter = call.arguments["counter"] = cfo.OpCounter()
            before = counter.multiplies
            estimate = fine_cfo(*call.args, **call.kwargs)
            used = counter.multiplies - before
            grid = len(estimate.cost_trace)
            n = call.arguments["workspace"].params.n
            length = call.arguments["r_p"].size // n
            expected = gate.fine_cfo_multiplies(n, length, grid)
            if call.arguments["use_fast"] and used != expected:
                self.mismatches.append(
                    f"fine_cfo at N={n}, L={length}: {used} multiplies over "
                    f"{grid} grid points, criterion 9 gives {expected}")
            self.calls += 1
            self.multiplies += used
            self.grid_points += grid
            return estimate

        spans.rebind(fine_cfo, counted)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = (f"{blas.get('name')} {blas.get('version')} "
                     f"({blas.get('openblas configuration', '')})").strip()
    except (TypeError, KeyError):
        blas_text = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"), "blas": blas_text,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "thread_pins": {pin: os.environ[pin] for pin in PINS}}


def sweep(workload, trials: int, seed: int | None, out: Path) -> float:
    """One sweep through the CLI; returns its wall time."""
    argv = ["sweep", "--config", str(ROOT / workload.config),
            *workload.flags, "--trials", str(trials), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        tic = time.perf_counter()
        status = cli.main(argv)
        wall = time.perf_counter() - tic
    if status != 0:
        raise RuntimeError(f"otfs-sync {' '.join(argv)} exited {status}")
    return wall


class HostProbe:
    """Times a fixed computation to follow the shared host's speed.

    The host's speed drifts by up to 2x over seconds to minutes (other
    tenants), far more than a regression bound.  Each timed round is
    bracketed by probes, and its time is rescaled to the host speed at
    which the probe takes ``REFERENCE_S``.  A probe tracks a workload only
    when it does the same kind of work as the workload's dominant layer:
    "array" is a sequential phasor product over a 64 x 8192 array (the
    channel synthesis), "python" is small numpy calls in a Python loop (the
    fine-CFO search).  Buffers are allocated once, so the probe does not
    see the program's allocator state.
    """

    #: median probe time on the baseline machine (see README.md)
    REFERENCE_S = {"array": 0.014, "python": 0.010}

    def __init__(self, kind: str):
        self.kind = kind
        self._source = np.exp(1j * np.linspace(0.0, 1.0, 64 * 8192)
                              ).reshape(64, 8192)
        self._buffer = np.empty_like(self._source)
        self._beta = np.arange(8) * (1 + 1j)
        self._lags = np.arange(8)

    def measure(self) -> float:
        """Probe time relative to the reference: above 1 is a slow host."""
        tic = time.perf_counter()
        if self.kind == "array":
            for _ in range(3):
                np.copyto(self._buffer, self._source)
                np.cumprod(self._buffer, axis=1, out=self._buffer)
        else:
            for k in range(1500):
                float(np.real(self._beta @ np.exp(
                    2j * np.pi * self._lags * k / 4000)))
        return (time.perf_counter() - tic) / self.REFERENCE_S[self.kind]


def layer_metrics(workload, tracer, rounds, fine, guard, records) -> dict:
    """Per-layer metrics of a traced pass (see BENCHMARK.json)."""
    stats = spans.SpanStats(tracer)

    def ms(name, q=50):
        durations = stats.durations(name)
        if durations.size == 0:
            raise RuntimeError(f"{name} was never called")
        return 1e3 * float(np.percentile(durations, q))

    n_rounds = len(rounds)
    io_time = (stats.durations("harness.write_csv").sum()
               + stats.durations("harness.write_manifest").sum())
    builds = stats.calls("harness.build_point")
    trial_time = stats.durations("harness.run_trial")
    metrics = {
        "channel.realize_channel.ms_p50": ms("channel.realize_channel"),
        "channel.realize_channel.ms_p90": ms("channel.realize_channel", 90),
        "channel.realize_channel.samples":
            stats.calls("channel.realize_channel"),
        "channel.apply_impairments.ms_p50": ms("channel.apply_impairments"),
        "cfo.fine_cfo.ms_p50": ms("cfo.fine_cfo"),
        "cfo.fine_cfo.ms_p90": ms("cfo.fine_cfo", 90),
        "cfo.fine_cfo.samples": stats.calls("cfo.fine_cfo"),
        "cfo.fine_cfo.multiplies_per_trial": fine.multiplies / fine.calls,
        "cfo.fine_cfo.grid_points_per_trial": fine.grid_points / fine.calls,
        "cfo.build_workspace.ms": ms("cfo.build_workspace"),
        "cfo.build_workspace.calls":
            stats.calls("cfo.build_workspace") / n_rounds,
        "harness.build_point.calls": builds / n_rounds,
        "harness.workspace_reuse": stats.calls("harness.aggregate") / builds,
        "timing.estimate_to.ms_p50": ms("timing.estimate_to"),
        "cfo.coarse_cfo.ms_p50": ms("cfo.coarse_cfo"),
        "pilot.build_frame.ms_p50": ms("pilot.build_frame"),
        "modem.build_stream.ms_p50": ms("modem.build_stream"),
        "harness.run_trial.self_ms_p50":
            1e3 * float(np.median(stats.self_times("harness.run_trial"))),
        "harness.io.ms": 1e3 * float(io_time) / n_rounds,
        "harness.run_trial.self_share":
            float(stats.self_times("harness.run_trial").sum()
                  / trial_time.sum()),
    }
    for stage in STAGE_SHARES:
        metrics[f"{stage}.trial_share"] = stats.share_under(
            stage, "harness.run_trial")
    for stage in ("timing", "coarse", "fine"):
        metrics[f"harness.failures.{stage}"] = sum(
            1 for r in records
            if r.failure is not None and r.failure.startswith(f"{stage}:"))
    metrics.update(guard.counts)
    metrics["harness.trials"] = len(records)
    metrics["harness.failed_share"] = (gate.failed(records, workload.exact)
                                       / len(records))
    # Per point over all rounds: one round holds a single trial per point.
    points = {}
    for r in records:
        if r.failure is None:
            points.setdefault(r.point, []).append(r)
    metrics["harness.to_err_var"] = float(np.mean(
        [np.var([r.timing_err for r in p]) for p in points.values()]))
    for column, attr in (("cfo_mse_coarse", "coarse_err"),
                         ("cfo_mse_fine", "fine_err")):
        metrics[f"harness.{column}"] = float(np.mean(
            [np.mean([getattr(r, attr) ** 2 for r in p])
             for p in points.values()]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--panel", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out = args.out
    result = {"env": environment(), "problems": [], "attempted": 0,
              "failed": 0}

    recorder = Recorder()
    recorder.install()

    def checked(trials, records, sweep_dir):
        result["problems"] += [
            f"{sweep_dir.name}: {p}" for p in
            gate.check_sweep(workload, sweep_dir, records, trials)]
        result["attempted"] += len(records)
        result["failed"] += gate.failed(records, workload.exact)

    # The panel (or a one-trial sweep) also warms up imports and caches.
    first = workload.panel_trials if args.panel else 1
    sweep(workload, first, None, out / "panel")
    checked(first, recorder.records, out / "panel")
    if args.panel:
        means = gate.table_means(out / "panel", workload)
        result["panel_accuracy"] = means
        result["problems"] += gate.check_accuracy(
            workload.name, means, json.loads(gate.REFERENCE.read_text()))

    if args.traced:
        tracer = spans.Tracer()
        tracer.install()
        fine = FineCfoWork()
        fine.install()
        guard = spans.GuardRailCounter()
        for name in ("otfs_sync.cfo", "otfs_sync.harness"):
            logging.getLogger(name).addHandler(guard)

    probe = HostProbe(workload.probe)
    rounds, records = [], []
    before = probe.measure()
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < args.seconds:
        recorder.reset()
        seed = round_seed(args.seed, len(rounds))
        round_dir = out / "rounds" / f"r{len(rounds):03d}"
        wall = sweep(workload, workload.round_trials, seed, round_dir)
        after = probe.measure()
        checked(workload.round_trials, recorder.records, round_dir)
        records += recorder.records
        rounds.append({"seed": seed, "wall": wall, "setup": recorder.setup,
                       "trials": len(recorder.records),
                       "slowdown": (before + after) / 2})
        before = after

    result["rounds"] = rounds
    trials = sum(r["trials"] for r in rounds)
    result["raw_trials_per_s"] = trials / sum(r["wall"] - r["setup"]
                                              for r in rounds)
    result["trials_per_s"] = trials / sum((r["wall"] - r["setup"])
                                          / r["slowdown"] for r in rounds)
    result["raw_setup_s"] = statistics.median(r["setup"] for r in rounds)
    result["setup_s"] = statistics.median(r["setup"] / r["slowdown"]
                                          for r in rounds)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.traced:
        result["problems"] += fine.mismatches
        result["layers"] = layer_metrics(workload, tracer, rounds, fine,
                                         guard, records)
        tracer.save(out / "spans.npz")
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

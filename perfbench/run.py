"""Benchmark of the otfs-sync Monte-Carlo simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds 25 --trace 0|1

Runs one workload (see ``workloads.py``) through ``otfs-sync sweep`` in a
process of its own with one BLAS thread, checks the outputs, and prints one
JSON object as its last line of output.  ``--trace 0`` reports the
end-to-end metrics of a timed pass.  ``--trace 1`` runs an untraced pass
and a traced pass of the same rounds, reports the per-layer metrics of the
traced one and the tracing overhead, and checks that both passes wrote
byte-identical files.  The metrics, units and workloads are listed in
``BENCHMARK.json``; ``perfbench/README.md`` says what each one is for.

Exits non-zero, without a result line, when the checkout lacks the library
or a pass fails, and with ``"correct": false`` when an output is wrong.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Wall-clock limit of one invocation, within the 180 s a run may take.
DEADLINE_S = 170.0

UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
STAGE_SHARES = ("pilot.build_frame", "modem.build_stream",
                "channel.realize_channel", "channel.apply_impairments",
                "timing.estimate_to", "cfo.coarse_cfo", "cfo.extract_pilot",
                "cfo.fine_cfo")
LAYER_UNITS = {
    "channel.realize_channel.ms_p50": "ms",
    "channel.realize_channel.ms_p90": "ms",
    "channel.realize_channel.samples": "count",
    "channel.apply_impairments.ms_p50": "ms",
    "cfo.fine_cfo.ms_p50": "ms",
    "cfo.fine_cfo.ms_p90": "ms",
    "cfo.fine_cfo.samples": "count",
    "cfo.fine_cfo.multiplies_per_trial": "count",
    "cfo.fine_cfo.grid_points_per_trial": "count",
    "cfo.build_workspace.ms": "ms",
    "cfo.build_workspace.calls": "count",
    "harness.build_point.calls": "count",
    "harness.workspace_reuse": "ratio",
    "timing.estimate_to.ms_p50": "ms",
    "cfo.coarse_cfo.ms_p50": "ms",
    "pilot.build_frame.ms_p50": "ms",
    "modem.build_stream.ms_p50": "ms",
    "harness.run_trial.self_ms_p50": "ms",
    "harness.io.ms": "ms",
    "harness.run_trial.self_share": "share",
    **{f"{stage}.trial_share": "share" for stage in STAGE_SHARES},
    "harness.failures.timing": "count",
    "harness.failures.coarse": "count",
    "harness.failures.fine": "count",
    "cfo.fine_cfo.boundary_hits": "count",
    "cfo.projection.ridge_fallbacks": "count",
    "cfo.coarse_cfo.rows_skipped": "count",
    "harness.trials": "count",
    "harness.failed_share": "share",
    "harness.to_err_var": "sq_samples",
    "harness.cfo_mse_coarse": "sq_bins",
    "harness.cfo_mse_fine": "sq_bins",
    "trace.trials_per_s": "1/s",
    "trace.overhead": "ratio",
}


def pass_once(workload, seed, seconds, out: Path, traced: int, panel: int,
              deadline: float) -> dict:
    """Run one worker process with the BLAS pins; return its result."""
    out.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload",
            workload.name, "--seed", str(seed), "--seconds", str(seconds),
            "--out", str(out), "--traced", str(traced), "--panel", str(panel)]
    with open(out / "worker.log", "w") as log:
        try:
            status = subprocess.run(
                argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic())).returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
    if status != 0:
        tail = (out / "worker.log").read_text().splitlines()[-20:]
        sys.exit(f"run.py: {workload.name} pass ({out.name}) failed "
                 f"({status}):\n" + "\n".join(tail))
    return json.loads((out / "result.json").read_text())


def identical_rounds(a: Path, b: Path) -> list:
    """Files of the rounds both passes ran that differ byte for byte."""
    differ = []
    common = sorted({p.name for p in (a / "rounds").iterdir()}
                    & {p.name for p in (b / "rounds").iterdir()})
    for name in common:
        files = sorted(p.name for p in (a / "rounds" / name).iterdir())
        others = sorted(p.name for p in (b / "rounds" / name).iterdir())
        if files != others:
            differ.append(f"{name}: {files} vs {others}")
            continue
        _, mismatch, errors = filecmp.cmpfiles(a / "rounds" / name,
                                               b / "rounds" / name, files,
                                               shallow=False)
        differ += [f"{name}/{f}" for f in mismatch + errors]
    if not common:
        differ.append("no round ran in both passes")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="otfs-sync simulator benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    load = os.getloadavg()
    workload = WORKLOADS[args.workload]
    missing = [p for p in ("src/otfs_sync/cli.py", workload.config)
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"run.py: not an otfs-sync checkout, missing {missing}")

    out = ROOT / ".bench_out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    # Traced, the untraced and the traced pass share the run's seconds.
    seconds = args.seconds / 2 if args.trace else args.seconds
    timed = pass_once(workload, args.seed, seconds, out / "timed",
                      traced=0, panel=1 - args.trace, deadline=deadline)
    problems = timed["problems"]
    attempted, failed = timed["attempted"], timed["failed"]
    if args.trace:
        traced = pass_once(workload, args.seed, seconds, out / "traced",
                           traced=1, panel=0, deadline=deadline)
        problems += traced["problems"]
        problems += [f"traced pass changed {f}" for f in
                     identical_rounds(out / "timed", out / "traced")]
        attempted += traced["attempted"]
        failed += traced["failed"]
        values = dict(traced["layers"])
        values["trace.trials_per_s"] = traced["trials_per_s"]
        values["trace.overhead"] = (timed["trials_per_s"]
                                    / traced["trials_per_s"])
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                   for k, v in values.items()}
    else:
        metrics = {k: {"value": timed[k], "unit": unit}
                   for k, unit in UNITS.items()}
        print("accuracy panel: " + json.dumps(timed["panel_accuracy"]))

    env = dict(timed["env"], loadavg_at_start=load)
    (out / "env.json").write_text(json.dumps(env, indent=1))
    print("environment: " + json.dumps(env))
    print(f"rounds: {len(timed['rounds'])} timed, trials "
          f"{sum(r['trials'] for r in timed['rounds'])}; as measured, before "
          f"rescaling to the reference host speed: trials_per_s "
          f"{timed['raw_trials_per_s']!r}, setup_s {timed['raw_setup_s']!r}")
    for problem in problems:
        print(f"WRONG: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

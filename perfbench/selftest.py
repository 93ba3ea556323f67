"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that a short run of every workload, untraced and traced, prints
every metric BENCHMARK.json names with its unit and passes the gate; that
the gate rejects hand-made wrong outputs; and that the benchmark refuses
to run in a directory that holds only itself.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

failures = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def short_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists the workloads run.py knows")
    for name in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, name, trace)
            what = f"{name} --trace {trace}"
            check(proc.returncode == 0,
                  f"{what} exits 0 ({proc.stderr[-300:]})")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what} prints the result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{what} passes the gate with no failed trial")
            expected = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{what} emits every listed metric with "
                  f"its unit (extra {set(got) - set(expected)}, missing "
                  f"{set(expected) - set(got)})")
            check(all(math.isfinite(v["value"])
                      for v in result["metrics"].values()),
                  f"{what} metric values are finite")


def gate_rejects_wrong_outputs() -> None:
    good = gate.TrialRecord("32x8@0.0", 0, 0.0, 3e-5, None)
    check(gate.check_trials([good], exact=True) == [],
          "gate accepts an exact noiseless estimate")
    for bad, why in (
            (gate.TrialRecord("32x8@0.0", 0, 0.0, 3e-4, None),
             "a CFO estimate 3e-4 off"),
            (gate.TrialRecord("32x8@0.0", 1, 0.0, 0.0, None),
             "a timing estimate one sample off"),
            (gate.TrialRecord("32x8@0.0", None, None, None, "fine: boom"),
             "a failed trial")):
        check(gate.check_trials([good, bad], exact=True) != [],
              f"gate rejects {why} on the noiseless workload")
        check(gate.failed([good, bad], exact=True) == 1,
              f"{why} counts as failed on the noiseless workload")
    check(gate.check_trials(
        [gate.TrialRecord("128x32@0.0", 1, math.nan, 0.0, None)], False) != [],
        "gate rejects a non-finite fading estimate")

    row = ("20.0", "-0.5", "1.7", "0.07", "0.0016", "4", "0")
    header = gate.RESULT_COLUMNS
    expected = (("results.csv", 1),)
    check(gate.check_tables({"results.csv": (header, [row])}, expected, 4)
          == [], "gate accepts a well-formed results.csv")
    nan_row = row[:4] + ("nan",) + row[5:]
    for tables, why in (
            ({"results.csv": (header, [nan_row])}, "a non-finite statistic"),
            ({"results.csv": (header[:-1], [row[:-1]])}, "a dropped column"),
            ({"results.csv": (header, [row, row])}, "an extra row"),
            ({}, "a missing file")):
        check(gate.check_tables(tables, expected, 4) != [],
              f"gate rejects {why}")

    reference = json.loads(gate.REFERENCE.read_text())
    panel = reference["snr_sweep"]
    check(gate.check_accuracy("snr_sweep", panel, reference) == [],
          "gate accepts the seed commit's accuracy panel")
    worse = dict(panel, cfo_mse_fine=panel["cfo_mse_fine"] * 1.3)
    check(gate.check_accuracy("snr_sweep", worse, reference) != [],
          "gate rejects a 30% worse fine-CFO MSE on the accuracy panel")
    check(gate.fine_cfo_multiplies(8, 2, 302) == 2560,
          "criterion 9 count at (N, L) = (8, 2) over 302 grid points")


def refuses_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "snr_sweep", 0)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
          "run.py exits non-zero without a result outside a checkout")
    shutil.rmtree(bare)


if __name__ == "__main__":
    gate_rejects_wrong_outputs()
    refuses_bare_directory()
    short_runs()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)

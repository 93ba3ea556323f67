"""Pinned outputs: the shipped configs reproduce the checked-in files.

Each case reruns one command through ``cli.main`` and compares its files
with ``tests/data/pinned/<case>/``.  The manifest and the estimate's
integers match exactly, and so do the results' sweep value, timing error
and count columns.  The CFO values (``cfo_*`` columns, ``eps_*`` keys,
and the snapshot cost trace's ``eps`` and ``cost`` columns) match to
1e-12 relative, so the check also holds on another BLAS build.

A change that moves a pinned number on purpose regenerates the files with

    PYTHONPATH=src python tests/test_pinned.py

and reports each moved value, old and new.
"""

import math
import shutil
import tempfile
from pathlib import Path

import pytest

from otfs_sync.cli import main

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "data" / "pinned"

#: Case name: (command line without --out, the files it pins).
CASES = {
    "sweep_snr": (["sweep", "--config", "configs/sweep_snr.cfg",
                   "--trials", "5"], ("results*.csv", "manifest.txt")),
    "sweep_doppler_geometries": (
        ["sweep", "--config", "configs/sweep_doppler_geometries.cfg",
         "--trials", "3"], ("results*.csv", "manifest.txt")),
    "noiseless_recovery": (
        ["sweep", "--config", "configs/noiseless_recovery.cfg",
         "--theta", "random", "--epsilon", "random", "--trials", "20"],
        ("results*.csv", "manifest.txt")),
    "snapshot_timing": (["snapshot", "--config",
                         "configs/snapshot_timing.cfg"],
                        ("estimate.txt", "cost_trace.csv")),
}


def run_case(name, out_dir):
    """Run case ``name`` into ``out_dir``; its pinned files, by name."""
    argv, patterns = CASES[name]
    argv = [str(ROOT / a) if a.startswith("configs/") else a for a in argv]
    assert main(argv + ["--out", str(out_dir)]) == 0
    return {path.name: path for pattern in patterns
            for path in Path(out_dir).glob(pattern)}


def same_value(key, got, want):
    """Exact text, except CFO values, which match to 1e-12 relative."""
    if got == want or not (key.startswith(("cfo_", "eps_"))
                           or key in ("eps", "cost")):
        return got == want
    return math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=0.0)


def cells(filename, text):
    """(line, key, value) of every value in a CSV or key=value file."""
    lines = text.splitlines()
    if filename.endswith(".csv"):
        header = lines[0].split(",")
        return [(1, "header", lines[0])] + [
            (i, key, value) for i, line in enumerate(lines[1:], 2)
            for key, value in zip(header, line.split(","))]
    return [(i, *line.partition("=")[::2])
            for i, line in enumerate(lines, 1)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_pinned(name, tmp_path):
    """The command writes exactly the pinned files, with the pinned
    values."""
    produced = run_case(name, tmp_path)
    expected = sorted(p.name for p in (PINNED / name).iterdir())
    assert sorted(produced) == expected
    for filename in expected:
        got = produced[filename].read_text()
        want = (PINNED / name / filename).read_text()
        if filename == "manifest.txt":
            assert got == want
            continue
        got, want = cells(filename, got), cells(filename, want)
        assert [c[:2] for c in got] == [c[:2] for c in want], filename
        assert [(w, g[2]) for g, w in zip(got, want)
                if not same_value(w[1], g[2], w[2])] == [], filename


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(case, tmp)
            shutil.rmtree(PINNED / case, ignore_errors=True)
            (PINNED / case).mkdir(parents=True)
            for path in files.values():
                shutil.copy(path, PINNED / case / path.name)

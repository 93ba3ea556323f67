"""Correctness gate of the benchmark.

Everything here is plain Python on data the benchmark collected, so the
self-test can feed it hand-made wrong outputs without touching the
library.  The expected ``results.csv`` schema is written out here rather
than imported, so a library change to the schema fails the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

RESULT_COLUMNS = ("sweep_value", "to_err_mean", "to_err_var",
                  "cfo_mse_coarse", "cfo_mse_fine", "trials", "failures")
STATISTICS = RESULT_COLUMNS[1:5]

#: Criterion 3: a noiseless trial recovers the timing offset exactly and
#: the CFO within the fine grid step.
EXACT_CFO_TOL = 1e-4

#: A fading workload's accuracy panel may not worsen any statistic by more
#: than this share of the value recorded for it at the seed commit.
ACCURACY_SLACK = 0.25
REFERENCE = Path(__file__).resolve().parent / "accuracy_reference.json"


@dataclass(frozen=True)
class TrialRecord:
    """One trial's folded errors (timing in samples, CFO in bins)."""

    point: str
    timing_err: float | None
    coarse_err: float | None
    fine_err: float | None
    failure: str | None


def fold(value: float, width: float) -> float:
    """Fold into the principal interval [-width/2, width/2)."""
    return (value + width / 2) % width - width / 2


def read_table(path: Path) -> tuple:
    """(header, rows) of one results CSV, cells left as text."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines:
        return (), []
    return (tuple(lines[0].split(",")),
            [tuple(line.split(",")) for line in lines[1:]])


def check_tables(tables: dict, expected: tuple, trials: int) -> list:
    """Schema, row counts and finiteness of the results CSVs of one sweep.

    ``tables`` maps file name to (header, rows); ``expected`` lists
    (file name, sweep points); ``trials`` is the trials per point asked for.
    """
    problems = []
    for name, points in expected:
        if name not in tables:
            problems.append(f"{name}: missing")
            continue
        header, rows = tables[name]
        if header != RESULT_COLUMNS:
            problems.append(f"{name}: header {header} is not {RESULT_COLUMNS}")
            continue
        if len(rows) != points:
            problems.append(f"{name}: {len(rows)} rows, expected {points}")
        for row in rows:
            if len(row) != len(RESULT_COLUMNS):
                problems.append(f"{name}: malformed row {row}")
                continue
            cells = dict(zip(RESULT_COLUMNS, row))
            for column in STATISTICS:
                try:
                    value = float(cells[column])
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    problems.append(f"{name}: {column}={cells[column]} at "
                                    f"{cells['sweep_value']} is not finite")
            if cells["trials"] != str(trials):
                problems.append(f"{name}: trials={cells['trials']} at "
                                f"{cells['sweep_value']}, expected {trials}")
    return problems


def inexact(record: TrialRecord) -> bool:
    """Criterion 3's rule: a noiseless trial must be recovered exactly."""
    return (record.failure is not None or record.timing_err != 0
            or not abs(record.fine_err) <= EXACT_CFO_TOL)


def check_trials(records: list, exact: bool) -> list:
    """Per-trial checks: finite estimates, and exact recovery if asked."""
    problems = []
    for rec in records:
        if exact and inexact(rec):
            problems.append(f"{rec.point}: not recovered exactly (timing "
                            f"error {rec.timing_err}, CFO error "
                            f"{rec.fine_err}, failure {rec.failure})")
        elif rec.failure is None and not all(
                math.isfinite(e) for e in (rec.timing_err, rec.coarse_err,
                                           rec.fine_err)):
            problems.append(f"{rec.point}: non-finite estimate {rec}")
    return problems


def check_sweep(workload, out_dir: Path, records: list, trials: int) -> list:
    """The whole gate for one sweep written to ``out_dir``."""
    tables = {name: read_table(out_dir / name)
              for name, _ in workload.tables if (out_dir / name).exists()}
    problems = check_tables(tables, workload.tables, trials)
    problems += check_trials(records, workload.exact)
    if len(records) != workload.points * trials:
        problems.append(f"{len(records)} trials recorded, expected "
                        f"{workload.points * trials}")
    failures = sum(int(row[-1]) for _, rows in tables.values() for row in rows
                   if len(row) == len(RESULT_COLUMNS))
    if failures != sum(r.failure is not None for r in records):
        problems.append(f"failures column sums to {failures}, but "
                        f"{sum(r.failure is not None for r in records)} "
                        f"trials failed")
    return problems


def failed(records: list, exact: bool) -> int:
    """Failed trials; on an exact workload an inexact trial fails too."""
    if exact:
        return sum(inexact(r) for r in records)
    return sum(r.failure is not None for r in records)


def table_means(out_dir: Path, workload) -> dict:
    """Mean over all sweep points of each statistic in the results CSVs."""
    rows = [row for name, _ in workload.tables
            for row in read_table(out_dir / name)[1]]
    return {column: sum(float(row[RESULT_COLUMNS.index(column)])
                        for row in rows) / len(rows)
            for column in STATISTICS[1:]}


def check_accuracy(name: str, means: dict, reference: dict) -> list:
    """Panel statistics against the seed commit's, for a fading workload."""
    problems = []
    for column, ref in reference.get(name, {}).items():
        if not means[column] <= ref * (1 + ACCURACY_SLACK):
            problems.append(f"accuracy panel: {column}={means[column]!r} is "
                            f"worse than {ref!r} (seed commit) by more than "
                            f"{ACCURACY_SLACK:.0%}")
    return problems


def fine_cfo_multiplies(n: int, length: int, grid_points: int) -> int:
    """Criterion 9's count for one fast-path fine search.

    N multiplies per grid point, plus the beta reduction: lag m costs
    2 (N L - m L) multiplies, which sums to L N (N + 1) over m < N.
    """
    return n * grid_points + length * n * (n + 1)

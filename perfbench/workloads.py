"""The benchmark's workloads: which shipped config each sweeps, and how much.

Each workload is one ``otfs-sync sweep`` of a shipped config.  A timed run
repeats that sweep in *rounds* of ``round_trials`` trials per sweep point
until the run's seconds are used up; round ``r`` of a run with benchmark
seed ``s`` passes ``--seed 1000 * s + r`` to the library, so the same
benchmark seed always gives the same inputs.  Each timed round is followed
by a host-speed probe shaped like the workload's dominant layer (see
``worker.HostProbe``).  The accuracy panel is one extra sweep at the
config's own seed with ``panel_trials`` trials per point; its inputs do not
depend on the benchmark seed, so two commits are compared on identical
trials instead of on sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    #: shipped config file, relative to the checkout root
    config: str
    #: extra command-line flags for the sweep verb
    flags: tuple
    #: trials per sweep point in one timed round
    round_trials: int
    #: trials per sweep point in the accuracy panel
    panel_trials: int
    #: (results CSV name, sweep points it holds) for every file a sweep writes
    tables: tuple
    #: host-speed probe shaped like the dominant layer: "array" for the
    #: channel synthesis's long array passes, "python" for the fine search's
    #: small numpy calls in a Python loop
    probe: str = "array"
    #: every trial must be recovered exactly (criterion 3's rule)
    exact: bool = False

    @property
    def points(self) -> int:
        return sum(count for _, count in self.tables)


WORKLOADS = {
    w.name: w for w in (
        Workload(name="snr_sweep",
                 config="configs/sweep_snr.cfg", flags=(),
                 round_trials=1, panel_trials=12,
                 tables=(("results.csv", 3),)),
        Workload(name="noiseless_cal",
                 config="configs/noiseless_recovery.cfg",
                 flags=("--theta", "random", "--epsilon", "random"),
                 round_trials=40, panel_trials=200,
                 tables=(("results.csv", 1),), probe="python", exact=True),
        Workload(name="geometry_sweep",
                 config="configs/sweep_doppler_geometries.cfg", flags=(),
                 round_trials=1, panel_trials=6,
                 tables=(("results_64x64.csv", 2), ("results_128x32.csv", 2),
                         ("results_256x16.csv", 2))),
    )
}


def round_seed(bench_seed: int, round_idx: int) -> int:
    """Library seed of one timed round."""
    return 1000 * bench_seed + round_idx

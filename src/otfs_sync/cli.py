"""Command-line front end for the experiment harness.

Verbs:

* ``run``      one sweep point at the config's scalar settings;
* ``sweep``    a full sweep along --sweep (snr_db or nu_max_t), once per
               grid shape when --geometries is set;
* ``snapshot`` one trial with raw metric/cost/channel traces written out.

Settings resolve in order: built-in defaults, then --config file, then
command-line flags; every config key has a flag of the same name, so
``trials = 100`` in a file and ``--trials 100`` are interchangeable.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .harness import (ExperimentConfig, load_config, run_single,
                      run_snapshot, run_sweep, update_config)


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the verb, -v, --config, --out and a flag per key."""
    parser = argparse.ArgumentParser(
        prog="otfs-sync",
        description="OTFS timing/CFO synchronization experiments",
        # A flag names its key in full, as a config file line does.
        allow_abbrev=False,
    )
    parser.add_argument("verb", choices=("run", "sweep", "snapshot"),
                        help="run: single sweep point; sweep: full sweep "
                             "along one axis; snapshot: one trial with raw "
                             "traces")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log one line per run: its points, trials "
                             "per point and wall time")
    parser.add_argument("--config", type=str, default=None,
                        help="flat key=value config file")
    parser.add_argument("--out", type=str, default=".",
                        help="output directory (default: current)")
    for f in dataclasses.fields(ExperimentConfig):
        parser.add_argument(f"--{f.name}", type=str, default=None,
                            metavar="V", help=f"config key {f.name}")
    return parser


#: Built once at import: ``main`` only parses.
PARSER = build_parser()


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then the --config file, then the flags: later ones win."""
    config = ExperimentConfig() if args.config is None \
        else load_config(args.config)
    flags = ((f.name, getattr(args, f.name))
             for f in dataclasses.fields(ExperimentConfig))
    return update_config(config, [(key, text) for key, text in flags
                                  if text is not None])


def main(argv=None) -> int:
    """Run the verb.  An input error, a ``ValueError`` from the config or
    the verb, exits with status 2 and one ``otfs-sync: error:`` line, as
    a bad flag does."""
    args = PARSER.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = resolve_config(args)
        if args.verb == "run":
            summary = run_single(config, args.out)
            print(" ".join(f"{key}={value!r}" for key, value
                           in dataclasses.asdict(summary).items()))
        elif args.verb == "sweep":
            emitted = run_sweep(config, args.out)
            for filename, summaries in emitted.items():
                print(f"{filename}: {len(summaries)} points")
        else:
            report = run_snapshot(config, args.out)
            for key, value in report.items():
                print(f"{key}={value!r}")
    except ValueError as exc:
        PARSER.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

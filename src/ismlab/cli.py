"""Command-line entry point.

    ism-lab <kind> --config <path.json> --out <dir>

kind is one of consistency, quality, eta-sweep, interval-sweep, race,
gradcheck, distill. Every kind runs the same way: the config becomes an
ExperimentSpec, the kind's runner in RUNNERS turns it into an
experiments.Report (a summary, CSV tables and frames), and write_report
writes report.json, the tables as CSV files and the frames as
frames/*.ppm under --out (docs/config.md lists the files per kind).

--out is created, and an earlier report.json in it removed, after the config is
checked and before the run. Exit codes: 0 success, 1 configuration error or an
--out that cannot be created or written, 2 failed checks (the report is written,
then one "<kind> failed: <names>" line names them), 3 numerical failure: a
non-finite point, step gradient norm or mode distance in a run (metrics.csv then
holds a failed distillation's rows, whatever the kind), or a non-finite number in
a report, refused when it is built.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import experiments
from .errors import ConfigError, NumericalError
from .experiments import ExperimentSpec, Report, build_experiment, write_report


def _run_distill(spec: ExperimentSpec) -> Report:
    """One distillation of the configured generator; its metrics.csv table and
    the run's frames (snapshots and final render, for image generators)."""
    cfg, (log,) = spec.distill, experiments.run_distillations(spec, [{}])
    summary = {"kind": "distill", "objective": cfg.objective, "iterations": cfg.iterations,
               "initial_mode_distance": log.curve[0],
               "final_mode_distance": log.final_mode_distance,
               "oracle_calls": log.total_oracle_calls()}
    return Report(summary, {"metrics": log.metrics_table()}, log.frames)


RUNNERS = {**experiments.RUNNERS, "distill": _run_distill}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ism-lab",
                                     description="score distillation lab")
    parser.add_argument("kind", choices=tuple(RUNNERS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    out = Path(args.out)

    try:
        spec = build_experiment(cfgmod.load_json(args.config), args.kind)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").unlink(missing_ok=True)  # so a failed run leaves no earlier report
        # a non-finite value is reported once, as the NumericalError below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            report = RUNNERS[args.kind](spec)
        write_report(report, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc.filename or out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        if exc.log is not None:
            exc.log.write_metrics_csv(out / "metrics.csv")
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    if report.failed:
        print(f"{args.kind} failed: {', '.join(report.failed)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

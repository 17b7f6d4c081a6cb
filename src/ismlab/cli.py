"""Command-line entry point.

    ism-lab <kind> --config <path.json> --out <dir>

kind is one of consistency, quality, eta-sweep, interval-sweep, race,
gradcheck, distill. Every kind runs the same way: the config becomes an
ExperimentSpec, the kind's runner in RUNNERS turns it into a report, and
write_report writes report.json plus the report's own CSV files and
frames/*.ppm under --out (docs/config.md lists the files per kind).

Exit codes: 0 success, 1 configuration error, 2 check failure, 3 numerical
failure (a non-finite gradient or point; metrics.csv then holds the rows
the failing distillation logged before it).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import experiments
from .distill import run_distillation
from .errors import ConfigError, NumericalError
from .experiments import (
    DistillReport,
    ExperimentSpec,
    GradcheckReport,
    build_experiment,
    final_frame,
    write_report,
)


def _run_distill(spec: ExperimentSpec) -> DistillReport:
    """One distillation of the configured generator; for image generators the
    snapshots and the final canonical render become frames."""
    gen = spec.make_generator()
    cfg = spec.distill
    log = run_distillation(gen, spec.oracle, spec.schedule, cfg)
    frames = {}
    final = final_frame(gen, cfg.jitter)
    if final is not None:
        frames = {f"iter_{it:06d}": np.clip(img, 0, 1).reshape(final.shape)
                  for it, img in log.frames}
        frames["final"] = final
    return DistillReport(cfg, log, frames)


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
        report = RUNNERS[args.kind](spec)
        write_report(report, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        if exc.log is not None:
            out.mkdir(parents=True, exist_ok=True)
            exc.log.write_metrics_csv(out / "metrics.csv")
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    if isinstance(report, GradcheckReport) and not report.ok:
        failing = [r.check for r in report.rows if not r.passed]
        print(f"gradcheck failed: {', '.join(failing)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

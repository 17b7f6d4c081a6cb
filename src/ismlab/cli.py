"""Command-line entry point.

    ism-lab <kind> --config <path.json> --out <dir>

kind is one of consistency, quality, eta-sweep, interval-sweep, race,
gradcheck, distill. Exit codes: 0 success, 1 configuration error, 2 check
failure, 3 numerical failure (a non-finite gradient or point; distill still
writes the metrics rows logged before it). All outputs land under --out:
report.json, *.csv and frames/*.ppm.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .distill import run_distillation
from .errors import ConfigError, NumericalError
from .experiments import RUNNERS, GradcheckReport, build_experiment, write_report
from .generators import canonical_view
from .ppm import write_ppm

KINDS = tuple(RUNNERS) + ("distill",)


def _run_distill(cfg: dict, out: Path) -> int:
    schedule = cfgmod.build_schedule(cfg)
    oracle = cfgmod.build_oracle(cfg)
    generator = cfgmod.build_generator(cfg)
    dcfg = cfgmod.build_distill(cfg)
    try:
        # A non-finite value ends the run as a NumericalError, which main
        # reports in one line; numpy's own warnings would only precede it.
        with np.errstate(over="ignore", invalid="ignore"):
            log = run_distillation(generator, oracle, schedule, dcfg)
    except NumericalError as exc:
        out.mkdir(parents=True, exist_ok=True)
        exc.log.write_metrics_csv(out / "metrics.csv")
        raise
    out.mkdir(parents=True, exist_ok=True)
    log.write_metrics_csv(out / "metrics.csv")
    shape = generator.image_shape(dcfg.jitter)
    if shape is not None:
        frame_dir = out / "frames"
        frame_dir.mkdir(exist_ok=True)
        for it, img in log.frames:
            write_ppm(frame_dir / f"iter_{it:06d}.ppm",
                      np.clip(img, 0, 1).reshape(shape))
        final = generator.render(canonical_view(dcfg.jitter.width, dcfg.jitter.height))
        write_ppm(frame_dir / "final.ppm", np.clip(final, 0, 1).reshape(shape))
    with open(out / "report.json", "w") as fh:
        json.dump({
            "kind": "distill",
            "objective": dcfg.objective,
            "iterations": dcfg.iterations,
            "initial_mode_distance": log.initial_mode_distance,
            "final_mode_distance": log.final_mode_distance,
            "oracle_calls": log.total_oracle_calls(),
        }, fh, indent=2)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ism-lab",
                                     description="score distillation lab")
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = cfgmod.load_json(args.config)
        out = Path(args.out)
        if args.kind == "distill":
            return _run_distill(cfg, out)
        spec = build_experiment(cfg, args.kind, out)
        report = RUNNERS[args.kind](spec)
        write_report(report, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    if isinstance(report, GradcheckReport) and not report.ok:
        failing = [r.check for r in report.rows if not r.passed]
        print(f"gradcheck failed: {', '.join(failing)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

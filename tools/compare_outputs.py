"""Run the shipped configs in this checkout and another one, and compare outputs.

    python tools/compare_outputs.py <other-checkout>

Each tree runs every run of RUNS with its own ``src`` and ``configs``, one
``python -m ismlab.cli`` process per run, in a temporary directory where both
trees see the same relative config and ``--out`` paths. A run with overrides
reads a copy of its config with those keys set (dotted, ``[i]`` indexing a
list). Every output file is compared byte for byte, and so are stdout, stderr
and the exit code, except for wall time: the ``wall_time`` column of each CSV
file and the wall-time entry (the last) of each ``interval_sweep`` report row
are blanked first. Each run of this tree must also exit with the code RUNS
gives it. Prints each difference and each unexpected exit code and exits 1 if
there is any, else prints a one-line count and exits 0. Needs only the
standard library.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

# (kind, config, overrides, exit code): the shipped configs under their kinds,
# the splat scene under three more kinds that render a generator, a short
# jittered splat run whose last snapshot is its final state, a race too short
# for any run to cross its threshold, a splat run toward a point template (a
# blob width whose square underflows, centred on a pixel), an explicit
# four-splat scene listed out of depth order with two splats at one depth (the
# config puts the rows front to back, the tied pair in list order), a
# consistency stride above its first two timesteps and the gradchecks on a
# schedule shorter than the decomposition check's longest interval (both
# strides past their walk are one hop), an eta-sweep whose (120, 100) cell
# inverts to s = 20, below its stride, in one hop, an eta-sweep on a
# one-component oracle with the view at its mean, whose delta_T = 50 interval
# norms are rounding dust, a race of the splat scene (an image generator copied
# per run), an interval-sweep of 0 iterations (empty wall_time columns), a
# quality run at a guidance scale of 1e300 (finite: both its labels are null,
# so the scaled difference of its branches is 0), then the failing runs: a
# numerical error that leaves a partial metrics.csv, a numerical error whose
# line names its eta-sweep cell, consistency targets whose spread overflows (to
# inf at a guidance scale of 1e154, to NaN at 1e160 in one hop), a latent whose
# squared mode distance overflows (at 0 iterations, after an SDS step on a
# one-component label, and in a race), a failed decomposition check on a steep
# schedule, the decomposition gradcheck on that schedule, whose reported error
# differs between the identity's two summation orders, an unknown key, a
# random-scene key under an identity latent, which that kind does not read, a
# repeated grid entry, a label that repeats a component, a race on the default
# seeds, one seed, and three reports refused for their first non-finite number
# (a one-hop quality estimate and an eta-sweep interval spanning its cell, both
# at a guidance scale of 1e300, and a distillation at 1e154 whose gradient
# norms overflow, so that it never moves)
RUNS = (
    ("consistency", "consistency.json", {}, 0),
    ("quality", "quality.json", {}, 0),
    ("eta-sweep", "eta_sweep.json", {}, 0),
    ("interval-sweep", "interval_sweep.json", {}, 0),
    ("race", "race.json", {}, 0),
    ("gradcheck", "gradcheck.json", {}, 0),
    ("distill", "distill_identity.json", {}, 0),
    ("distill", "distill_splats.json", {}, 0),
    ("consistency", "distill_splats.json", {}, 0),
    ("eta-sweep", "distill_splats.json", {}, 0),
    ("interval-sweep", "distill_splats.json", {}, 0),
    ("distill", "distill_splats.json",
     {"jitter.rotation_max": 0.3, "distill.iterations": 60, "distill.snapshot_every": 20}, 0),
    ("race", "race.json", {"distill.iterations": 20}, 0),
    ("distill", "distill_splats.json",
     {"oracle.components[0].mean.sigma": 1e-300,
      "oracle.components[0].mean.center": [0.0625, 0.0625], "distill.iterations": 20}, 0),
    ("distill", "distill_splats.json",
     {"generator.splats": [
         {"center": [0.1, 0.0], "log_scale": [-1.2, -1.6], "rotation": 0.3, "color": [0.8],
          "logit_opacity": 0.5, "depth": 2.0},
         {"center": [-0.2, 0.1], "log_scale": [-1.4, -1.0], "rotation": -0.7, "color": [0.3],
          "logit_opacity": 1.0, "depth": 0.5},
         {"center": [0.0, -0.1], "log_scale": [-1.0, -1.3], "rotation": 1.1, "color": [0.6],
          "logit_opacity": 0.0, "depth": 1.0},
         {"center": [-0.1, -0.2], "log_scale": [-1.5, -1.1], "rotation": 0.0, "color": [0.9],
          "logit_opacity": 0.8, "depth": 0.5}],
      "distill.iterations": 20, "distill.snapshot_every": 10}, 0),
    ("consistency", "consistency.json", {"experiment.delta_S_values": [400]}, 0),
    ("gradcheck", "gradcheck.json", {"schedule.T": 50}, 0),
    ("eta-sweep", "eta_sweep.json",
     {"experiment.t_values": [120, 400], "experiment.delta_T_values": [100]}, 0),
    ("eta-sweep", "eta_sweep.json",
     {"oracle.components": [{"mean": [0.3, -0.2], "sigma": 0.3}], "oracle.labels": {"m": [0]},
      "guidance.positive": "m", "guidance.scale": 1.0, "generator.theta": [0.3, -0.2],
      "experiment.t_values": [200, 400], "experiment.delta_T_values": [50, 100]}, 0),
    ("race", "distill_splats.json", {"distill.iterations": 3, "experiment.seeds": [0, 1]}, 0),
    ("interval-sweep", "interval_sweep.json", {"distill.iterations": 0}, 0),
    ("quality", "quality.json", {"guidance.scale": 1e300}, 0),
    ("distill", "distill_splats.json", {"distill.optimizer.step_size": 1e300}, 3),
    ("eta-sweep", "eta_sweep.json", {"guidance.scale": 1e300}, 3),
    ("consistency", "consistency.json", {"guidance.scale": 1e154}, 3),
    ("consistency", "consistency.json",
     {"guidance.scale": 1e160, "experiment.delta_S_values": [1000]}, 3),
    ("distill", "distill_identity.json",
     {"generator.theta": [1e200, 0.0], "distill.iterations": 0}, 3),
    ("distill", "distill_identity.json",
     {"generator.theta": [1e200, 0.0], "distill.iterations": 3, "distill.objective": "sds",
      "guidance.scale": 1.0}, 3),
    ("race", "race.json", {"generator.theta": [1e200, 0.0], "distill.iterations": 0}, 3),
    ("eta-sweep", "eta_sweep.json", {"schedule.beta_start": 0.1, "schedule.beta_end": 0.1}, 2),
    ("gradcheck", "gradcheck.json", {"schedule.beta_start": 0.1, "schedule.beta_end": 0.1}, 2),
    ("race", "race.json", {"distill.unknown_key": 1}, 1),
    ("distill", "distill_identity.json", {"generator.n_splats": 5}, 1),
    ("eta-sweep", "eta_sweep.json", {"experiment.t_values": [400, 400]}, 1),
    ("distill", "distill_identity.json",
     {"oracle.labels.right": [0, 1, 1], "distill.iterations": 5}, 1),
    ("race", "distill_identity.json", {}, 1),
    ("quality", "quality.json",
     {"guidance.positive": "a", "experiment.delta_T_values": [1000],
      "experiment.delta_S_values": [1000], "guidance.scale": 1e300}, 3),
    ("eta-sweep", "eta_sweep.json",
     {"experiment.t_values": [200], "experiment.delta_T_values": [200],
      "experiment.delta_S_values": [1000], "guidance.scale": 1e300}, 3),
    ("distill", "distill_identity.json", {"guidance.scale": 1e154}, 3),
)


def overridden(config: Path, overrides: dict) -> Path:
    """A copy of config beside it with each key of overrides set; its name
    ends in the first key's last part, then a count if an earlier copy has that name."""
    cfg = json.loads(config.read_text())
    for key, value in overrides.items():
        *sections, last = key.replace("[", ".").replace("]", "").split(".")
        node = cfg
        for section in sections:
            node = node[int(section)] if section.isdigit() else node.setdefault(section, {})
        node[last] = value
    stem = f"{config.stem}_{next(iter(overrides)).rsplit('.', 1)[-1]}"
    path, n = config.with_stem(stem), 1
    while path.exists():
        n += 1
        path = config.with_stem(f"{stem}_{n}")
    path.write_text(json.dumps(cfg, indent=2))
    return path


def run_tree(tree: Path, work: Path) -> list[str]:
    """Run every entry of RUNS with tree's package and configs; each run's
    files go to work/<name>, and its stdout, stderr and exit code beside them.
    Returns a line per run that exits with another code than RUNS gives it."""
    shutil.copytree(tree / "configs", work / "configs")
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    unexpected = []
    for kind, config, overrides, expected in RUNS:
        config = Path("configs", config)
        if overrides:
            config = overridden(work / config, overrides).relative_to(work)
        name = f"{kind}_{config.stem}"
        proc = subprocess.run(
            [sys.executable, "-m", "ismlab.cli", kind, "--config", config.as_posix(),
             "--out", f"out/{name}"], cwd=work, env=env, capture_output=True)
        streams = work / "streams" / name
        streams.mkdir(parents=True)
        (streams / "stdout").write_bytes(proc.stdout)
        (streams / "stderr").write_bytes(proc.stderr)
        (streams / "exit_code").write_text(f"{proc.returncode}\n")
        if proc.returncode != expected:
            unexpected.append(f"{name}: exit code {proc.returncode}, expected {expected}")
    return unexpected


def normalized(path: Path) -> bytes:
    """The file's bytes, with its wall-time values blanked."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        if rows and "wall_time" in rows[0]:
            col = rows[0].index("wall_time")
            for row in rows[1:]:
                row[col] = ""
            out = io.StringIO(newline="")
            csv.writer(out).writerows(rows)
            return out.getvalue().encode()
    elif path.name == "report.json":
        report = json.loads(data)
        if report.get("kind") == "interval_sweep":
            for row in report["rows"]:
                row[-1] = None
            return json.dumps(report, indent=2).encode()
    return data


def files(root: Path) -> dict[str, Path]:
    return {p.relative_to(root).as_posix(): p for p in sorted(root.rglob("*")) if p.is_file()}


def compare(a: Path, b: Path) -> tuple[int, list[str]]:
    """The number of files compared, and a line per difference."""
    fa, fb = files(a), files(b)
    diffs = [f"{name}: only in {side}" for side, only in (("this tree", fa.keys() - fb.keys()),
                                                         ("the other tree", fb.keys() - fa.keys()))
             for name in sorted(only)]
    for name in sorted(fa.keys() & fb.keys()):
        if normalized(fa[name]) != normalized(fb[name]):
            diffs.append(f"{name}: differs")
    return len(fa.keys() | fb.keys()), diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the other checkout's root directory")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        mine, theirs = Path(tmp) / "this", Path(tmp) / "other"
        unexpected = run_tree(HERE, mine)
        run_tree(args.other.resolve(), theirs)
        n, diffs = compare(mine, theirs)
    for line in unexpected + diffs:
        print(line)
    print(f"{len(RUNS)} runs, {n} files compared (configs, outputs and streams): "
          f"{len(diffs)} differences, {len(unexpected)} unexpected exit codes")
    return 1 if unexpected or diffs else 0


if __name__ == "__main__":
    sys.exit(main())

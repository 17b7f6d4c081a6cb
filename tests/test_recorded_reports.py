"""Every kind reproduces the outputs recorded in data/recorded_reports.json.

Each case runs one kind through the CLI on a small capped copy of a shipped
config and reads back what it wrote: report.json's keys and values, each CSV
file's header and rows, and the names of the frames. Everything must match
exactly, key order included, except floats, which match to 1e-12 relative.
wall_time is the one field that varies between runs; it is blanked.

Regenerate the reference only when a change is meant to alter outputs:

    PYTHONPATH=src python tests/test_recorded_reports.py
"""

import csv
import json
import math
from pathlib import Path

import pytest

from ismlab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REFERENCE = Path(__file__).resolve().parent / "data" / "recorded_reports.json"

# case -> (kind, shipped config, dotted-key overrides)
CASES = {
    "consistency": ("consistency", "consistency.json", {
        "experiment.noise_draws": 4, "experiment.t_values": [100, 500]}),
    "quality": ("quality", "quality.json", {
        "experiment.start_points": 3, "experiment.t_values": [50, 400, 900]}),
    "eta-sweep": ("eta-sweep", "eta_sweep.json", {
        "experiment.t_values": [100, 400], "experiment.delta_T_values": [25, 100, 400]}),
    "interval-sweep": ("interval-sweep", "interval_sweep.json", {
        "distill.iterations": 30, "experiment.delta_T_values": [50, 100],
        "experiment.delta_S_values": [50, 100]}),
    "race": ("race", "race.json", {
        "distill.iterations": 60, "experiment.seeds": [0, 1, 2],
        "experiment.threshold": 0.8}),
    "race-no-crossing": ("race", "race.json", {
        "distill.iterations": 20, "experiment.seeds": [0, 1]}),
    "gradcheck": ("gradcheck", "gradcheck.json", {}),
    "distill": ("distill", "distill_identity.json", {"distill.iterations": 60}),
    "distill-naive": ("distill", "distill_identity.json", {
        "distill.iterations": 10, "distill.objective": "naive", "distill.t_max": 400}),
    "splat-distill": ("distill", "distill_splats.json", {
        "distill.iterations": 20, "distill.snapshot_every": 10}),
    "splat-consistency": ("consistency", "distill_splats.json", {
        "experiment.noise_draws": 2, "experiment.t_values": [200, 500],
        "experiment.delta_S_values": [100]}),
    "splat-interval-sweep": ("interval-sweep", "distill_splats.json", {
        "distill.iterations": 4, "experiment.delta_T_values": [50],
        "experiment.delta_S_values": [50, 100]}),
}


def _config(path: Path, name: str, overrides: dict) -> Path:
    cfg = json.loads((CONFIGS / name).read_text())
    for key, value in overrides.items():
        node, parts = cfg, key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path.write_text(json.dumps(cfg))
    return path


def _cell(text: str):
    """A CSV cell as the int, float or string it spells."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def outputs(kind: str, config: Path, out: Path) -> dict:
    """What one CLI run wrote, with wall_time blanked."""
    assert main([kind, "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    if report["kind"] == "interval_sweep":  # rows are interval_sweep.csv's rows
        for row in report["rows"]:
            row[4] = None
    tables = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        blank = header.index("wall_time") if "wall_time" in header else None
        tables[path.name] = [header] + [
            [None if i == blank else _cell(v) for i, v in enumerate(row)] for row in rows]
    frames = sorted(p.name for p in out.glob("frames/*"))
    return {"report": report, "tables": tables, "frames": frames}


def _match(got, want, where: str = "") -> None:
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert got == want or math.isnan(want) and math.isnan(got) \
            or abs(got - want) <= 1e-12 * abs(want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), \
            f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _match(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{where}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            _match(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_recorded_reference(tmp_path, reference, case):
    kind, name, overrides = CASES[case]
    got = outputs(kind, _config(tmp_path / name, name, overrides), tmp_path / "out")
    _match(got, reference[case], case)


if __name__ == "__main__":
    import tempfile

    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, (kind, name, overrides) in CASES.items():
            root = Path(tmp) / case
            root.mkdir()
            recorded[case] = outputs(kind, _config(root / name, name, overrides), root / "out")
    REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n")

"""Per-call costs of the program's layers on each perfbench workload config.

    python tools/layer_costs.py [--seed N] [--quick]

Builds the config of each workload in perfbench/workloads.py at the seed, as
perfbench's child process builds it (the config file read by
``config.load_json``, then the schedule, oracle, generator and distill
settings), and times, as the minimum over repeats of a block of calls:

- ``eps_predict`` for the null label and for the guidance's positive label at
  timestep 500 (inside every workload's ``[t_min, t_max]``), on one point and
  on 20, 200 and 2000 rows near the canonical render;
- ``_hop`` of one point from timestep 450 to 500;
- the generator's ``render`` and ``backward`` on the canonical view (the
  backward follows a render of that view, as in a distillation step);
- ``AdamOptimizer.step`` on the generator's parameters;
- ``nearest_mode_distance`` of the canonical render.

Then it times ``import ismlab.cli`` after ``import numpy`` in a fresh
interpreter, from a temporary copy of ``src/ismlab``: without bytecode (a
copy with no ``__pycache__``, run with ``-B``) and with bytecode compiled
beforehand. The checkout gains no ``__pycache__``; perfbench is imported, not
changed, and so is ``ismlab``.

Prints one line per figure, then one JSON line holding every figure:
microseconds per call, and milliseconds per import. ``--quick`` times a few
calls with two repeats, enough for a smoke test but not for a measurement.
The figures depend on the host and its load; compare them as ratios taken on
one host.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # before the imports below: no __pycache__ in the checkout

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import tempfile
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ismlab import config  # noqa: E402
from ismlab.distill import AdamOptimizer, nearest_mode_distance  # noqa: E402
from ismlab.generators import canonical_view  # noqa: E402
from ismlab.trajectory import _hop  # noqa: E402

T_PROBE = 500
HOP_FROM = 450
ROWS = (1, 20, 200, 2000)
FULL_REPEATS = 7
QUICK_CALLS, QUICK_REPEATS = 3, 2
IMPORT_REPEATS, QUICK_IMPORT_REPEATS = 5, 2
IMPORT_PROBE = ("import time, numpy; started = time.perf_counter(); import ismlab.cli; "
                "print(time.perf_counter() - started, ismlab.__file__)")


def _workloads():
    """perfbench/workloads.py as a module, without putting perfbench/ on the path."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def best_us(fn, quick: bool) -> float:
    """Microseconds per call of fn(), the minimum over repeats of a block's mean."""
    timer = timeit.Timer(fn)
    if quick:
        number, repeat = QUICK_CALLS, QUICK_REPEATS
    else:
        number, repeat = timer.autorange()[0], FULL_REPEATS
    return min(timer.repeat(repeat=repeat, number=number)) / number * 1e6


def layer_costs(path: Path, seed: int, quick: bool) -> dict[str, float]:
    """The per-call figures of the config file at path."""
    cfg = config.load_json(path)
    schedule = config.build_schedule(cfg)
    oracle = config.build_oracle(cfg)
    gen = config.build_generator(cfg)
    dcfg = config.build_distill(cfg)
    view = canonical_view(dcfg.jitter.width, dcfg.jitter.height)
    x0 = gen.render(view)
    rng = np.random.default_rng(seed)
    figures = {}
    for label, name in ((None, "null"), (dcfg.guidance.positive, "positive")):
        for b in ROWS:
            x = x0 + 0.1 * rng.standard_normal((b, x0.size) if b > 1 else x0.size)
            figures[f"eps_predict.{name}.B{b}_us"] = best_us(
                lambda: oracle.eps_predict(schedule, x, T_PROBE, label), quick)
    eps = oracle.eps_predict(schedule, x0, HOP_FROM)
    figures["hop_us"] = best_us(lambda: _hop(schedule, x0, HOP_FROM, T_PROBE, eps), quick)
    figures["render_us"] = best_us(lambda: gen.render(view), quick)
    grad_image = rng.standard_normal(x0.size)
    gen.render(view)  # the backward reuses this render's forward pass
    figures["backward_us"] = best_us(lambda: gen.backward(view, grad_image), quick)
    adam = AdamOptimizer(gen.n_params, dcfg.optimizer)
    params, grad = gen.get_params(), rng.standard_normal(gen.n_params)
    figures["adam_step_us"] = best_us(lambda: adam.step(params, grad), quick)
    figures["nearest_mode_distance_us"] = best_us(
        lambda: nearest_mode_distance(oracle, dcfg.guidance.positive, x0), quick)
    return figures


def import_ms(package: Path, bytecode: bool, repeats: int) -> float:
    """Milliseconds of `import ismlab.cli` after numpy in fresh interpreters
    that import the ismlab under package, the minimum over repeats."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(package)
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, *(() if bytecode else ("-B",)), "-c", IMPORT_PROBE],
                             env=env, check=True, capture_output=True, text=True).stdout
        elapsed, origin = out.strip().split(" ", 1)
        if not Path(origin).is_relative_to(package):
            raise RuntimeError(f"imported {origin}, not the copy under {package}")
        times.append(float(elapsed) * 1e3)
    return min(times)


def import_costs(quick: bool) -> dict[str, float]:
    repeats = QUICK_IMPORT_REPEATS if quick else IMPORT_REPEATS
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp)
        shutil.copytree(ROOT / "src" / "ismlab", package / "ismlab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        source = import_ms(package, False, repeats)
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(package / "ismlab")],
                       check=True)
        return {"import_cli_source_ms": source,
                "import_cli_bytecode_ms": import_ms(package, True, repeats)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="workload config seed (default 0)")
    parser.add_argument("--quick", action="store_true",
                        help="a few calls and two repeats: a smoke test, not a measurement")
    args = parser.parse_args(argv)
    workloads = _workloads()
    result = {"seed": args.seed, "quick": args.quick, "t": T_PROBE,
              "numpy": np.__version__, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in workloads.CONFIGS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(make(args.seed)))
            figures = layer_costs(path, args.seed, args.quick)
            for key, value in figures.items():
                print(f"{name:6} {key:28} {value:12.2f}")
            result["workloads"][name] = figures
    result["import"] = import_costs(args.quick)
    for key, value in result["import"].items():
        print(f"{'import':6} {key:28} {value:12.2f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PER_CALL = [f"eps_predict.{label}.B{b}_us" for label in ("null", "positive")
            for b in (1, 20, 200, 2000)]
PER_CALL += ["hop_us", "render_us", "backward_us", "adam_step_us", "nearest_mode_distance_us"]


def test_layer_costs_quick_prints_every_figure_finite_and_positive():
    """tools/layer_costs.py --quick exits 0 and its last line is one JSON
    object with every per-call figure of the three perfbench workloads and
    both import times, each finite and positive; it leaves no bytecode in
    the checkout's package."""
    pycache = ROOT / "src" / "ismlab" / "__pycache__"
    had_cache = pycache.exists()
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "layer_costs.py"), "--quick"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result["workloads"]) == {"race", "splat", "naive"}
    figures = [result["import"][k] for k in ("import_cli_source_ms", "import_cli_bytecode_ms")]
    for name, per_call in result["workloads"].items():
        assert sorted(per_call) == sorted(PER_CALL), name
        figures += per_call.values()
    assert all(isinstance(v, float) and math.isfinite(v) and v > 0 for v in figures)
    assert pycache.exists() == had_cache

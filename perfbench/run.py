"""Benchmark of ism-lab: race, splat and naive workloads.

    python3 perfbench/run.py --workload race|splat|naive --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/ismlab`). The load is
a closed loop with one client: operations run one after another, each in a
fresh child process, and the next starts only when the last has exited,
until `--seconds` have passed (at least MIN_OPS operations). One operation is
one `ism-lab` invocation on the config generated from the workload seed,
together with its output checks. Children run with one BLAS thread, so the
benchmark never uses more threads than the 2 cores it was sized on.

--trace 0 times every operation with tracing off and reports the end-to-end
metrics (see Bench.metrics for how operations are summarised and how wall
times are calibrated to the host's speed). --trace 1
alternates untraced and traced operations and reports the per-layer metrics
(medians over traced operations) and the tracing overhead.

An operation fails on: a nonzero `ism-lab` exit status, an exception
escaping `cli.main`, a child that crashes or times out, a missing or
unparseable output, a failed outcome check, an oracle-call count that
disagrees with the program's own count or with an earlier operation, or
outputs that are not byte-identical to the first operation's (the
`wall_time` columns excepted).

The last line of stdout is the result object; the line before it holds the
provenance and the per-operation records, which are also written to
perfbench/_runs/<workload>-s<seed>-t<trace>/results.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread here and in every child, set before numpy is imported: the
# parent waits while a child runs, so at most one thread computes.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
MIN_OPS = 3
# No operation starts or runs past this many seconds into the loop, so a
# run ends well within 180 s even when the program is very slow.
HARD_LIMIT_S = 140.0
# Reference time of child.calibrate (before plus after the invocation):
# `setup_s` and `run_s` are reported as if the host ran the calibration loop
# in this many seconds.
CALIBRATION_REF_S = 0.2
# Columns that legitimately differ between identical runs.
WALL_TIME_CSVS = ("metrics.csv", "interval_sweep.csv")

class Op:
    """Record of one operation."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.problems: list[str] = []
        self.result: dict | None = None
        self.peak_rss_mb: float | None = None
        self.digest: dict[str, str] | None = None
        self.bytes_written = 0

    def record(self) -> dict:
        r = self.result or {}
        return {"index": self.index, "traced": self.traced,
                "failed": bool(self.problems), "problems": self.problems,
                "setup_s": r.get("setup_s"), "run_s": r.get("run_s"),
                "calibration_s": r.get("calibration_s"),
                "oracle_calls": r.get("oracle_calls"),
                "peak_rss_mb": self.peak_rss_mb, "bytes_written": self.bytes_written}


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV, PYTHONPATH=str(root / "src"))
    return env


def spawn(cmd: list[str], env: dict, log: Path, timeout: float):
    """Run a child to completion; return (exit code, its rusage, timed out).
    wait4 gives the rusage of this child alone."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=subprocess.STDOUT)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, killed.is_set()


def output_digest(out: Path) -> dict[str, str]:
    """sha256 of every output file; `wall_time` columns are dropped first."""
    digest = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name in WALL_TIME_CSVS:
            rows = list(csv.reader(io.StringIO(data.decode())))
            keep = [i for i, h in enumerate(rows[0]) if h != "wall_time"] if rows else []
            data = "\n".join(",".join(r[i] for i in keep) for r in rows).encode()
        digest[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digest


def provenance(root: Path, args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "ismlab").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": git_sha, "src_sha256": src.hexdigest(),
        "blas_threads": THREAD_ENV, "load": "closed loop, 1 client",
    }


def summary(values, pick=statistics.median):
    """pick() of the measured values, or None when nothing was measured."""
    values = [v for v in values if v is not None]
    return pick(values) if values else None


class Bench:
    def __init__(self, root: Path, args):
        self.workload = args.workload
        self.cfg = workloads.CONFIGS[args.workload](args.seed)
        self.kind = workloads.KINDS[args.workload]
        self.work = BENCH_DIR / "_runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=1))
        self.env = child_env(root)
        self.ops: list[Op] = []

    def warm_up(self) -> bool:
        """Compile bytecode and fill the file cache before anything is timed."""
        code, _, _ = spawn([sys.executable, "-c", "import ismlab.cli"], self.env,
                           self.work / "warmup.log", timeout=20.0)
        return code == 0

    def run_op(self, traced: bool, timeout: float) -> Op:
        op = Op(len(self.ops), traced)
        out = self.work / f"op{op.index}"
        result_path = self.work / f"op{op.index}.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), self.kind,
               str(self.config_path), str(out), str(result_path),
               str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)), "1" if traced else "0"]
        code, usage, timed_out = spawn(cmd, self.env, self.work / f"op{op.index}.log",
                                       timeout)
        op.peak_rss_mb = usage.ru_maxrss / 1024.0
        if timed_out:
            op.problems.append(f"child killed after {timeout:.0f} s")
        elif code != 0:
            op.problems.append(f"child exited with status {code}")
        try:
            op.result = json.loads(result_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            op.problems.append(f"no child result: {exc}")
        if op.result is not None:
            self.check(op, out)
        shutil.rmtree(out, ignore_errors=True)
        self.ops.append(op)
        return op

    def check(self, op: Op, out: Path) -> None:
        r = op.result
        if r["exception"] is not None:
            op.problems.append(f"exception escaped cli.main: {r['exception']}")
        elif r["exit_code"] != 0:
            op.problems.append(f"ism-lab exited with status {r['exit_code']}")
        op.problems += workloads.check_outputs(self.workload, out, self.cfg)
        if out.is_dir():
            op.digest = output_digest(out)
            op.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())

        counts = {"constructed oracles": r["oracle_calls"]}
        if self.kind == "distill":
            try:
                counts["report.json"] = json.loads((out / "report.json").read_text())["oracle_calls"]
            except (OSError, ValueError, KeyError):
                pass  # already a failed output check
        if op.traced and r["trace"] is not None:
            counts["traced eps_predict"] = r["trace"]["layers"].get("oracle.eps_predict.calls")
        if len(set(counts.values())) != 1:
            op.problems.append(f"oracle-call counts disagree: {counts}")

        first = next((o for o in self.ops if o.result is not None), None)
        if first is not None:
            if r["oracle_calls"] != first.result["oracle_calls"]:
                op.problems.append(f"oracle calls {r['oracle_calls']} differ from "
                                   f"operation {first.index}'s {first.result['oracle_calls']}")
            if op.digest != first.digest:
                differ = sorted(k for k in set(op.digest or {}) | set(first.digest or {})
                                if (op.digest or {}).get(k) != (first.digest or {}).get(k))
                op.problems.append(f"outputs differ from operation {first.index}: {differ}")

    def run(self, seconds: float, trace: bool) -> None:
        """Closed loop until `seconds` have passed and MIN_OPS operations
        ran, but never start an operation that the last one's duration says
        would end after HARD_LIMIT_S."""
        started = time.monotonic()
        last = 0.0
        while True:
            elapsed = time.monotonic() - started
            if len(self.ops) >= MIN_OPS and elapsed >= seconds:
                break
            if self.ops and elapsed + last > HARD_LIMIT_S:
                break
            self.run_op(traced=trace and len(self.ops) % 2 == 1,
                        timeout=HARD_LIMIT_S - elapsed)
            last = time.monotonic() - started - elapsed

    def metrics(self, trace: bool) -> dict[str, float]:
        """End-to-end metrics (trace 0) or per-layer metrics (trace 1); a
        metric that could not be measured, such as one of an absent trace
        point, is left out. Values are medians over operations.

        `setup_s` and `run_s` are host-speed calibrated: each operation's
        wall time is multiplied by CALIBRATION_REF_S over the time the same
        child took for a fixed calibration loop (child.calibrate) just before
        and just after the invocation. On a shared host whose speed drifts
        by up to 2x for minutes at a time, this cancels the drift while a
        change in the program's own speed shows in full. The plain wall-time
        medians are kept in the results as `setup_s.wall` and `run_s.wall`.
        """
        # A failed operation's time does not count, unless every one failed.
        every = [o for o in self.ops if o.result is not None]
        every = [o for o in every if not o.problems] or every
        plain = [o for o in every if not o.traced]
        traced = [o for o in every if o.traced and o.result["trace"]]
        values = {
            "setup_s": summary(calibrated(o, "setup_s") for o in plain),
            "setup_s.wall": summary(o.result["setup_s"] for o in plain),
            "run_s": summary(calibrated(o, "run_s") for o in plain),
            "run_s.wall": summary(o.result["run_s"] for o in plain),
            "calibration_s": summary(o.result["calibration_s"] for o in plain),
            # exact and equal across operations, or an operation failed
            "oracle_calls": plain[0].result["oracle_calls"] if plain else None,
            "peak_rss_mb": summary(o.peak_rss_mb for o in plain),
            "config.build_s": summary(o.result["build_s"] for o in every),
            "setup.import_s": summary(o.result["import_s"] for o in every),
            "fail_ratio": sum(bool(o.problems) for o in self.ops) / len(self.ops),
        }
        if trace:
            names = {name for o in traced for name in o.result["trace"]["layers"]}
            values.update((name, summary((o.result["trace"]["layers"].get(name) for o in traced),
                                            statistics.median_low))
                          for name in names)
            values["io.bytes_written"] = summary(o.bytes_written for o in traced)
            traced_run = summary(calibrated(o, "run_s") for o in traced)
            if values["run_s"] and traced_run:
                values["trace.overhead"] = traced_run / values["run_s"] - 1.0
        return {k: v for k, v in values.items() if v is not None}


def calibrated(op: Op, key: str) -> float | None:
    """The operation's wall time `key` scaled to a host on which the
    calibration loop takes CALIBRATION_REF_S."""
    wall, cal = op.result.get(key), op.result.get("calibration_s")
    return wall * CALIBRATION_REF_S / cal if wall is not None and cal else None


def declared_units(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminating the benchmark unwinds through spawn(), which kills and
    # reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "ismlab" / "cli.py").is_file():
        print(f"no ism-lab source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(root, args)
    if not bench.warm_up():
        print(f"cannot import ismlab; see {bench.work / 'warmup.log'}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    bench.run(args.seconds, trace)
    measured = bench.metrics(trace)
    metrics = {k: {"value": measured[k], "unit": unit}
               for k, unit in declared_units(trace).items() if k in measured}
    failed = sum(bool(o.problems) for o in bench.ops)
    detail = {"provenance": provenance(root, args),
              "operations": [o.record() for o in bench.ops],
              "all_metrics": measured,
              "absent": sorted({a for o in bench.ops if o.result and o.result["trace"]
                                for a in o.result["trace"]["absent"]})}
    (bench.work / "results.json").write_text(json.dumps(detail, indent=1))
    for o in bench.ops:
        for p in o.problems:
            print(f"operation {o.index} failed: {p}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(bench.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

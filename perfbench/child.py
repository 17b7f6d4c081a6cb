"""One benchmark operation in a fresh process: set up, then one `ism-lab`
invocation.

    python3 perfbench/child.py <kind> <config.json> <out_dir> <result.json>
        <spawned_ns> <trace 0|1>

`spawned_ns` is the parent's CLOCK_MONOTONIC reading just before it started
this process (the clock is system-wide on Linux), so setup time counts
interpreter start, `import ismlab`, and building the schedule, oracle,
generator and distillation settings from the config. Then the invocation
`ismlab.cli.main([kind, --config, --out])` is timed from call to return.
A fixed calibration loop, untimed by either, runs just before and just after
the invocation; its total time is reported as `calibration_s` so the parent
can scale both times to a reference host speed.

Oracle calls are counted without a per-call hook: every MixtureOracle built
during the invocation is remembered (a hook on construction only) and their
`eps_evals` counters are summed afterwards. With trace 1 the Tracer's
wrappers are installed before the invocation and its per-layer summary is
written to the result, together with the raw spans.
"""

import json
import sys
import time
import traceback

CALIBRATION_BLOCKS = 8
CALIBRATION_ITERATIONS = 3000


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds taken by a fixed piece of work independent of ismlab: small
    numpy operations at D=256 inside a Python loop, the program's own mix.
    It reads how fast this host runs at the moment. numpy is imported here,
    after `import ismlab` has been timed with it."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 256)
    acc = 0.0
    started = time.perf_counter()
    for _ in range(CALIBRATION_BLOCKS):
        for i in range(CALIBRATION_ITERATIONS):
            y = np.exp(-0.5 * x * x) * (1.0 + 1e-3 * i)
            acc += float(y @ x) + 0.5 * i
    return time.perf_counter() - started


def main(argv: list[str]) -> int:
    kind, config_path, out_dir, result_path, spawned_ns, trace = argv
    spawned_ns = int(spawned_ns)
    import_start = _now_ns()
    import ismlab  # noqa: F401  (timed: part of setup)
    from ismlab import cli, config, oracle
    imported = _now_ns()
    cfg = config.load_json(config_path)
    config.build_schedule(cfg)
    config.build_oracle(cfg)
    config.build_generator(cfg)
    config.build_distill(cfg)
    ready = _now_ns()

    oracles = []
    original_init = oracle.MixtureOracle.__init__

    def remembering_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        oracles.append(self)

    oracle.MixtureOracle.__init__ = remembering_init

    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    result = {"exit_code": None, "exception": None}
    calibration_s = calibrate()
    started = time.perf_counter()
    try:
        result["exit_code"] = cli.main([kind, "--config", config_path, "--out", out_dir])
    except (Exception, SystemExit) as exc:  # any escape from cli.main fails the operation
        result["exception"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    run_s = time.perf_counter() - started
    calibration_s += calibrate()

    result.update(
        setup_s=(ready - spawned_ns) * 1e-9,
        import_s=(imported - import_start) * 1e-9,
        build_s=(ready - imported) * 1e-9,
        run_s=run_s,
        calibration_s=calibration_s,
        oracle_calls=sum(o.eps_evals for o in oracles),
        trace=None,
    )
    if tracer is not None:
        result["trace"] = {"layers": tracer.summarize(), "absent": tracer.absent}
        tracer.write_spans(result_path.replace(".json", ".spans.csv.gz"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

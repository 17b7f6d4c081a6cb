"""Per-layer tracing of `ismlab` from outside the package.

A Tracer replaces the public functions named in POINTS with wrappers that
record one span each (point, parent span, start, end) in memory. Because the
package binds names with `from .x import y`, a module-level function is
replaced at every binding that refers to it, including values of module
dicts such as `experiments.RUNNERS`; a method is replaced on its class.
A target that does not resolve on the current tree is reported as absent,
never as a point with zero calls.

`summarize` turns the spans into per-layer metrics after the run. Self time
is a span's duration minus the durations of its direct child spans.
`schedule` lookups (about 1 us each) are deliberately not spanned; their cost
shows in the self time of the oracle and trajectory spans that call them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from typing import Callable, Optional

import numpy as np

# point name -> "module:qualname" targets whose calls it aggregates
POINTS: dict[str, tuple[str, ...]] = {
    "cli.main": ("ismlab.cli:main",),
    "experiments.runner": ("ismlab.experiments:run_race", "ismlab.cli:_run_distill"),
    "experiments.write_report": ("ismlab.experiments:write_report",),
    "ppm.write_ppm": ("ismlab.ppm:write_ppm",),
    "distill.run": ("ismlab.distill:run_distillation",),
    "distill.step": ("ismlab.distill:distill_step",),
    "distill.adam": ("ismlab.distill:AdamOptimizer.step",),
    "distill.metrics_csv": ("ismlab.distill:RunLog.write_metrics_csv",),
    "objectives.ism_gradient": ("ismlab.objectives:ism_gradient",),
    "objectives.sds_gradient": ("ismlab.objectives:sds_gradient",),
    "objectives.naive_gradient": ("ismlab.objectives:naive_gradient",),
    "trajectory.invert_along": ("ismlab.trajectory:invert_along",),
    "trajectory.denoise_path": ("ismlab.trajectory:denoise_path",),
    "trajectory.hop": ("ismlab.trajectory:hop",),
    "oracle.eps_guided": ("ismlab.oracle:MixtureOracle.eps_guided",),
    "oracle.eps_predict": ("ismlab.oracle:MixtureOracle.eps_predict",),
    "generators.render": ("ismlab.generators:SplatGenerator.render",
                          "ismlab.generators:IdentityLatent.render"),
    "generators.backward": ("ismlab.generators:SplatGenerator.backward",
                            "ismlab.generators:IdentityLatent.backward"),
    "generators.params": ("ismlab.generators:SplatGenerator.get_params",
                          "ismlab.generators:SplatGenerator.set_params",
                          "ismlab.generators:IdentityLatent.get_params",
                          "ismlab.generators:IdentityLatent.set_params"),
}

OBJECTIVES = ("ism", "sds", "naive")
# Oracle phase of a prediction: the nearest enclosing transport span, or
# "at_t" for a prediction an objective makes directly at its timestep.
PHASE_OF = {"trajectory.invert_along": "inversion", "trajectory.denoise_path": "denoise"}
PHASES = ("inversion", "denoise", "at_t")


def _eps_branch(args, kwargs) -> str:
    """Branch of an eps_predict(self, schedule, x, t, label=None) call: the
    null label is the unconditional branch."""
    label = args[4] if len(args) > 4 else kwargs.get("label")
    return "uncond" if label is None else "cond"


TAGGERS: dict[str, Callable] = {"oracle.eps_predict": _eps_branch}


def _resolve(target: str):
    """(owner, attribute, original) for a "module:qualname" target, or None
    when the module or attribute does not exist."""
    mod_name, qual = target.split(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def _package_modules(package: str) -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Span recorder over the points of POINTS; install, run, summarize."""

    def __init__(self, points: Optional[dict[str, tuple[str, ...]]] = None):
        self.points = dict(POINTS if points is None else points)
        self.names: list[str] = list(self.points)
        self.point: list[int] = []      # span -> index into names
        self.parent: list[int] = []     # span -> parent span, -1 at the root
        self.start: list[float] = []
        self.end: list[float] = []
        self.tags: dict[int, str] = {}  # span -> tag, for tagged points only
        self.stack: list[int] = [-1]
        self.absent: list[str] = []
        self._restore: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn: Callable, point_id: int, tagger: Optional[Callable] = None):
        point, parent, start, end, tags, stack = (
            self.point, self.parent, self.start, self.end, self.tags, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            point.append(point_id)
            parent.append(stack[-1])
            end.append(0.0)
            if tagger is not None:
                tags[i] = tagger(args, kwargs)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "ismlab") -> None:
        """Replace every target with its wrapper; record unresolved targets."""
        for point_id, name in enumerate(self.names):
            for target in self.points[name]:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, attr, original = found
                wrapper = self.wrap(original, point_id, TAGGERS.get(name))
                if isinstance(owner, type):
                    self._rebind(owner, attr, wrapper)
                else:
                    for mod in _package_modules(package):
                        self._rebind_module(mod, original, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, old))

    def _rebind_module(self, mod, original, wrapper) -> None:
        for key, value in list(vars(mod).items()):
            if value is original:
                self._rebind(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
                        self._restore.append(
                            lambda d=value, k=k: d.__setitem__(k, original))

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        """(point, parent, duration, self time) as arrays over spans."""
        point = np.asarray(self.point, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        return point, parent, dur, dur - covered

    def _inherited(self, own: dict[int, str]) -> list[Optional[str]]:
        """Per span, the label of its nearest enclosing span (itself
        included) whose point is a key of `own`. Parents precede children
        in span order, so one forward pass suffices."""
        out: list[Optional[str]] = []
        for p, par in zip(self.point, self.parent):
            label = own.get(p)
            out.append(label if label is not None or par < 0 else out[par])
        return out

    def summarize(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans. Metrics of a point whose
        targets are all absent are left out."""
        point, _, dur, self_t = self.arrays()
        ids = {name: i for i, name in enumerate(self.names)}
        present = {name for name, targets in self.points.items()
                   if not targets or any(t not in self.absent for t in targets)}
        out: dict[str, float] = {}

        def mask(name):
            return point == ids[name]

        for name in self.names:
            if name not in present:
                continue
            m = mask(name)
            calls = int(m.sum())
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = float(self_t[m].sum())
            out[f"{name}.us_per_call"] = float(self_t[m].sum() / calls * 1e6) if calls else 0.0

        if "oracle.eps_predict" in present:
            eps = ids["oracle.eps_predict"]
            branches = [self.tags[i] for i, p in enumerate(self.point) if p == eps]
            for b in ("cond", "uncond"):
                out[f"oracle.calls.{b}"] = branches.count(b)
            phase = self._inherited({ids[n]: ph for n, ph in PHASE_OF.items() if n in ids})
            phases = [phase[i] or "at_t" for i, p in enumerate(self.point) if p == eps]
            for ph in PHASES:
                out[f"oracle.calls.{ph}"] = phases.count(ph)
            objective = self._inherited({ids[f"objectives.{o}_gradient"]: o
                                         for o in OBJECTIVES
                                         if f"objectives.{o}_gradient" in ids})
            for o in OBJECTIVES:
                grads = out.get(f"objectives.{o}_gradient.calls")
                if grads is None:
                    continue
                used = sum(1 for i, p in enumerate(self.point)
                           if p == eps and objective[i] == o)
                # 0 when the objective did not run on this workload
                out[f"objectives.oracle_calls_per_grad.{o}"] = used / grads if grads else 0.0

        if "distill.step" in present:
            steps_ms = dur[mask("distill.step")] * 1e3
            if steps_ms.size:
                out["distill.step_ms_p50"] = float(np.percentile(steps_ms, 50))
                out["distill.step_ms_p99"] = float(np.percentile(steps_ms, 99))
            if "generators.render" in present:
                n = steps_ms.size
                out["generators.render.per_iter"] = \
                    out["generators.render.calls"] / n if n else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write the raw spans as gzip CSV: point,parent,start_s,end_s,tag."""
        with gzip.open(path, "wt") as fh:
            fh.write("point,parent,start_s,end_s,tag\n")
            for i, (p, par, s, e) in enumerate(zip(self.point, self.parent,
                                                   self.start, self.end)):
                fh.write(f"{self.names[p]},{par},{s!r},{e!r},{self.tags.get(i, '')}\n")

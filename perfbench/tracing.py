"""Timing spans around the package's public names, installed from outside.

``install`` replaces public functions (and a few public methods) of the
package's modules by wrappers that record a span per call: name, start,
end, parent span, and whether it is the outermost open span of its layer.
Each replaced function is swapped at its defining module and at every
module of the package that imported the name, so internal calls are seen
too; the package source is not changed. Spans are kept in memory and
written out by ``save``. Counts (draws, path-steps, solves, ...) are
recorded at the same boundaries.

Per-layer metrics are derived per round: a layer's time is the summed
duration of its outermost spans (busy time, which may exceed wall time
when worker threads overlap); a self time is a span's duration minus the
union of the intervals covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# span name -> layer; a layer's time counts only its outermost spans
LAYERS = {
    "noise.standard_normal": "noise.draw",
    "noise.ou_exact_step": "noise.input_step",
    "noise.jd_step_with_flag": "noise.input_step",
    "noise.jd_step": "noise.input_step",
    "montecarlo.pair_error_moment": "montecarlo.simulate",
    "montecarlo.tracking_error_moment": "montecarlo.simulate",
    "montecarlo.ou_moment": "montecarlo.simulate",
    "montecarlo.check_envelope": "bounds.envelope",
    "integrate.euler_maruyama": "integrate.path",
    "integrate.integrate_pair": "integrate.path",
    "integrate.integrate_cascade": "integrate.path",
    "integrate.ode_rk4": "integrate.path",
    "core.Metric.batch_norm_sq": "core.norm",
    "core.InputSignal.value": "core.signal",
    "core.InputSignal.values": "core.signal",
    "core.affine_system": "core.system_build",
    "contraction.certify_affine": "contraction.certify",
    "contraction.oslip_affine": "contraction.certify",
    "contraction.oslip_sampled": "contraction.certify",
    "contraction.input_lipschitz": "contraction.certify",
    "contraction.dispersion_bound": "contraction.certify",
    "bounds.make_envelope": "bounds.envelope",
    "bounds.optimize_alpha": "bounds.envelope",
    "bounds.Envelope.eval": "bounds.envelope",
    "bounds.Envelope.eval_grid": "bounds.envelope",
    "bounds.Envelope.limsup": "bounds.envelope",
    "wasserstein.wasserstein_series": "wasserstein.series",
    "wasserstein.wasserstein_1d": "wasserstein.sorted",
    "wasserstein.assignment": "wasserstein.assignment",
    "wasserstein.bottleneck": "wasserstein.bottleneck",
    "wasserstein.gibbs_check": "wasserstein.gibbs",
    "scenarios.run_scenario": "scenarios.run",
}
SOLVER_LAYERS = ("wasserstein.sorted", "wasserstein.assignment", "wasserstein.bottleneck")

# every per-layer metric a traced run reports, with its unit
METRICS = {
    "noise.draw_s": "s", "noise.draws": "count", "noise.streams": "count",
    "noise.input_step_s": "s", "noise.input_steps": "count",
    "montecarlo.simulate_s": "s", "montecarlo.self_s": "s",
    "montecarlo.path_steps": "count", "montecarlo.path_steps_per_s": "1/s",
    "montecarlo.chunks": "count", "montecarlo.draw_buffer_bytes": "B",
    "integrate.path_s": "s", "integrate.path_steps": "count",
    "core.norm_s": "s", "core.signal_s": "s", "core.system_builds": "count",
    "contraction.certify_s": "s", "contraction.oslip_calls": "count",
    "contraction.oslip_calls_per_run": "count",
    "bounds.envelope_s": "s", "bounds.alpha_evals": "count",
    "wasserstein.series_calls": "count", "wasserstein.series_calls_per_run": "count",
    "wasserstein.simulate_s": "s", "wasserstein.sorted_s": "s",
    "wasserstein.assignment_s": "s", "wasserstein.bottleneck_s": "s",
    "wasserstein.solves": "count", "wasserstein.gibbs_s": "s",
    "scenarios.run_s": "s", "scenarios.self_s": "s", "scenarios.bundle_bytes": "B",
    "noise.draws_per_run": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span store shared by all threads of the measured process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = self._stack()  # the creating thread's stack
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.round_starts: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.op_counts: dict[str, Counter] = {}
        self._op = None

    def _stack(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = Counter()
        return local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        depth = self._local.depth
        layer = LAYERS[name]
        parent = stack[-1] if stack else (self._root[-1] if self._root else -1)
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.outer.append(depth[layer] == 0)
            self.start.append(time.perf_counter())
            self.end.append(math.nan)
        depth[layer] += 1
        depth[name] += 1
        stack.append(i)
        return i

    def close(self, i: int):
        t = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name = self.names[self.name[i]]
        self._local.depth[LAYERS[name]] -= 1
        self._local.depth[name] -= 1
        with self._lock:
            self.end[i] = t

    def inside(self, name: str) -> bool:
        self._stack()
        return self._local.depth[name] > 0

    def count(self, key: str, value=1):
        with self._lock:
            self.counts[key] += value
            if self._op is not None:
                self.op_counts[self._op][key] += value

    def peak(self, key: str, value):
        with self._lock:
            self.peaks[key] = max(self.peaks[key], value)

    def begin_round(self):
        self.round_starts.append(len(self.start))
        self.counts = Counter()
        self.peaks = Counter()
        self.op_counts = {}

    def begin_op(self, op: str):
        with self._lock:
            self._op = op
            self.op_counts[op] = Counter()

    def end_round(self, wall_s: float) -> dict:
        """Per-layer metrics of the round that just ended."""
        lo = self.round_starts[-1]
        name = np.array(self.name[lo:], dtype=np.int64)
        parent = np.array(self.parent[lo:], dtype=np.int64) - lo
        outer = np.array(self.outer[lo:], dtype=bool)
        start = np.array(self.start[lo:], dtype=float)
        end = np.array(self.end[lo:], dtype=float)
        dur = end - start
        layer_of = np.array([LAYERS[n] for n in self.names] + [""])
        layer = layer_of[name] if name.size else np.array([], dtype=layer_of.dtype)

        def busy(lay):
            sel = (layer == lay) & outer
            return float(dur[sel].sum())

        def outer_calls(lay):
            return int(((layer == lay) & outer).sum())

        def self_time(lay, child_layers=None):
            """Sum over spans of ``lay`` of duration minus the union of their
            children's intervals (children limited to ``child_layers``)."""
            parents = np.flatnonzero(layer == lay)
            if parents.size == 0:
                return 0.0
            is_parent = np.zeros(name.size, dtype=bool)
            is_parent[parents] = True
            kids = np.flatnonzero((parent >= 0) & is_parent[np.clip(parent, 0, None)])
            if child_layers is not None:
                kids = kids[np.isin(layer[kids], child_layers)]
            covered = Counter()
            order = kids[np.lexsort((start[kids], parent[kids]))]
            cur_p, cur_s, cur_e = -1, 0.0, 0.0
            for k in order.tolist():
                p, s, e = int(parent[k]), float(start[k]), float(end[k])
                if p != cur_p or s > cur_e:
                    if cur_p >= 0:
                        covered[cur_p] += cur_e - cur_s
                    cur_p, cur_s, cur_e = p, s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_p >= 0:
                covered[cur_p] += cur_e - cur_s
            return float(dur[parents].sum() - sum(covered.values()))

        c, pk = self.counts, self.peaks
        runs = c["scenarios.runs"]
        simulate_s = busy("montecarlo.simulate")
        m = {
            "noise.draw_s": busy("noise.draw"),
            "noise.draws": c["noise.draws"],
            "noise.streams": c["noise.streams"],
            "noise.input_step_s": busy("noise.input_step"),
            "noise.input_steps": outer_calls("noise.input_step"),
            "montecarlo.simulate_s": simulate_s,
            "montecarlo.self_s": self_time("montecarlo.simulate"),
            "montecarlo.path_steps": c["montecarlo.path_steps"],
            "montecarlo.path_steps_per_s": (c["montecarlo.path_steps"] / simulate_s
                                            if simulate_s > 0 else 0.0),
            "montecarlo.chunks": c["montecarlo.chunks"],
            "montecarlo.draw_buffer_bytes": pk["montecarlo.draw_buffer_bytes"],
            "integrate.path_s": busy("integrate.path"),
            "integrate.path_steps": c["integrate.path_steps"],
            "core.norm_s": busy("core.norm"),
            "core.signal_s": busy("core.signal"),
            "core.system_builds": c["core.system_builds"],
            "contraction.certify_s": busy("contraction.certify"),
            "contraction.oslip_calls": c["contraction.oslip_calls"],
            "contraction.oslip_calls_per_run": (c["contraction.oslip_calls"] / runs
                                                if runs else 0.0),
            "bounds.envelope_s": busy("bounds.envelope"),
            "bounds.alpha_evals": c["bounds.alpha_evals"],
            "wasserstein.series_calls": c["wasserstein.series_calls"],
            "wasserstein.series_calls_per_run": (c["wasserstein.series_calls"] / runs
                                                 if runs else 0.0),
            "wasserstein.simulate_s": self_time("wasserstein.series", SOLVER_LAYERS),
            "wasserstein.sorted_s": busy("wasserstein.sorted"),
            "wasserstein.assignment_s": busy("wasserstein.assignment"),
            "wasserstein.bottleneck_s": busy("wasserstein.bottleneck"),
            "wasserstein.solves": c["wasserstein.solves"],
            "wasserstein.gibbs_s": busy("wasserstein.gibbs"),
            "scenarios.run_s": busy("scenarios.run"),
            "scenarios.self_s": self_time("scenarios.run"),
            "scenarios.bundle_bytes": c["scenarios.bundle_bytes"],
            "noise.draws_per_run": c["noise.draws"] / runs if runs else 0.0,
        }
        return {"wall_s": wall_s, "metrics": m,
                "per_op": {op: dict(v) for op, v in self.op_counts.items()}}

    def save(self, path: Path):
        np.savez(
            path, names=np.array(self.names), name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            outer=np.array(self.outer, dtype=np.int8),
            start=np.array(self.start), end=np.array(self.end),
            round_starts=np.array(self.round_starts, dtype=np.int64),
        )


def _wrap(fn, tracer: Tracer, name, after=None, count=None):
    """Wrapper recording one span per call. ``name`` may depend on the bound
    arguments; ``count`` names a counter bumped per call; ``after(arguments,
    result)`` records counts and may replace the result."""
    sig = inspect.signature(fn) if callable(name) or after is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        arguments = None
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
        span = name(arguments) if callable(name) else name
        i = tracer.open(span) if span is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            if i is not None:
                tracer.close(i)
        if count is not None:
            tracer.count(count)
        if after is not None:
            result = after(arguments, result)
        return result

    return wrapper


class _TracedGenerator:
    """Generator proxy that times and counts standard-normal fills."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        i = self._tracer.open("noise.standard_normal")
        try:
            out = self._gen.standard_normal(*args, **kwargs)
        finally:
            self._tracer.close(i)
        self._tracer.count("noise.draws", int(np.size(out)))
        return out

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _replace_everywhere(cs, old, new):
    """Swap ``old`` for ``new`` in every module of the package that holds it."""
    import sys

    prefix = cs.__name__ + "."
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == cs.__name__ or mod_name.startswith(prefix)):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(cs, tracer: Tracer):
    """Install the spans and counters on the imported package ``cs``."""
    from contracting_sde import (bounds, contraction, core, integrate, montecarlo,
                                 noise, scenarios, wasserstein)

    chunk = montecarlo.CHUNK_SIZE

    def simulate_counts(width_of, steps_of):
        def after(a, result):
            n, steps = a["n_paths"], steps_of(a)
            tracer.count("montecarlo.path_steps", n * steps)
            tracer.count("montecarlo.chunks", -(-n // chunk))
            # computed, not measured: chunk x steps x width float64 draws
            tracer.peak("montecarlo.draw_buffer_bytes", min(chunk, n) * steps * width_of(a) * 8)
            return result
        return after

    def pair_width(a):
        sc = a["scenario"]
        if sc.mode is integrate.CouplingMode.COMMON:
            return sc.sys_x.noise_dim
        return sc.sys_x.noise_dim + sc.sys_y.noise_dim

    def path_counts(a, result):
        tracer.count("integrate.path_steps", a["grid"].steps)
        return result

    def series_counts(a, result):
        tracer.count("wasserstein.series_calls")
        sc = a["scenario"]
        tracer.peak("montecarlo.draw_buffer_bytes",
                    min(chunk, sc.k) * sc.grid.steps * sc.sys_x.noise_dim * 8)
        return result

    def traced_envelope(a, env):
        def timed(fn, span):
            if fn is None:
                return None

            @functools.wraps(fn)
            def wrapper(*args):
                if tracer.inside("bounds.optimize_alpha"):
                    tracer.count("bounds.alpha_evals")
                i = tracer.open(span)
                try:
                    return fn(*args)
                finally:
                    tracer.close(i)
            return wrapper

        return dataclasses.replace(
            env, eval=timed(env.eval, "bounds.Envelope.eval"),
            eval_grid=timed(env.eval_grid, "bounds.Envelope.eval_grid"),
            limsup=timed(env.limsup, "bounds.Envelope.limsup"))

    def bundle_counts(a, verdict):
        tracer.count("scenarios.runs")
        out_dir = Path(a["out_dir"])
        tracer.count("scenarios.bundle_bytes",
                     sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()))
        return verdict

    def solver_span(a):
        return "wasserstein.bottleneck" if a["p"] == math.inf else "wasserstein.assignment"

    functions = [
        (noise, "ou_exact_step", None),
        (noise, "jd_step_with_flag", None),
        (noise, "jd_step", None),
        (montecarlo, "pair_error_moment",
         simulate_counts(pair_width, lambda a: a["scenario"].grid.steps)),
        (montecarlo, "tracking_error_moment",
         simulate_counts(lambda a: a["scenario"].noise.dim + a["scenario"].sys.noise_dim,
                         lambda a: a["scenario"].grid.steps)),
        (montecarlo, "ou_moment",
         simulate_counts(lambda a: a["p"].dim, lambda a: a["grid"].steps)),
        (montecarlo, "check_envelope", None),
        (integrate, "euler_maruyama", path_counts),
        (integrate, "integrate_pair", path_counts),
        (integrate, "integrate_cascade", path_counts),
        (integrate, "ode_rk4", path_counts),
        (core, "affine_system", "core.system_builds"),
        (contraction, "certify_affine", None),
        (contraction, "oslip_affine", "contraction.oslip_calls"),
        (contraction, "oslip_sampled", "contraction.oslip_calls"),
        (contraction, "input_lipschitz", None),
        (contraction, "dispersion_bound", None),
        (bounds, "make_envelope", traced_envelope),
        (bounds, "optimize_alpha", None),
        (wasserstein, "wasserstein_series", series_counts),
        (wasserstein, "wasserstein_1d", "wasserstein.solves"),
        (wasserstein, "wasserstein_assignment", "wasserstein.solves"),
        (wasserstein, "gibbs_check", None),
        (scenarios, "run_scenario", bundle_counts),
    ]
    for module, attr, after in functions:
        old = getattr(module, attr)
        short = module.__name__.rsplit(".", 1)[-1]
        span = solver_span if attr == "wasserstein_assignment" else f"{short}.{attr}"
        if isinstance(after, str):
            new = _wrap(old, tracer, span, count=after)
        else:
            new = _wrap(old, tracer, span, after)
        _replace_everywhere(cs, old, new)

    for cls, attr, span in ((core.Metric, "batch_norm_sq", "core.Metric.batch_norm_sq"),
                            (core.InputSignal, "value", "core.InputSignal.value"),
                            (core.InputSignal, "values", "core.InputSignal.values")):
        setattr(cls, attr, _wrap(getattr(cls, attr), tracer, span))

    def traced_stream(a, gen):
        tracer.count("noise.streams")
        return _TracedGenerator(gen, tracer)

    noise.RngLineage.stream = _wrap(noise.RngLineage.stream, tracer, None, traced_stream)

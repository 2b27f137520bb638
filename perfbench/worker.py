"""Measured process of the benchmark; started fresh by run.py for each measurement.

    python3 perfbench/worker.py setup <spec.json> <out_dir>
    python3 perfbench/worker.py run <spec.json> <out_dir> <seconds> <trace 0|1>

``setup`` times the set-up a CLI call pays: importing the package, parsing
every config of the workload and dry-running the certify path for each one
(for library calls: building and certifying their systems). ``run`` prepares
the operations and then executes whole rounds of them until ``seconds`` have
passed, timing only the program calls. Each prints one JSON line.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import contracting_sde as cs

    if Path(cs.__file__).resolve().parent != ROOT / "src" / "contracting_sde":
        raise ImportError(f"contracting_sde resolved outside the checkout: {cs.__file__}")
    return cs


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def setup(spec_path: Path, out_dir: Path):
    cs = _import_package()
    import workloads

    spec = json.loads(spec_path.read_text())
    for op in spec["ops"]:
        workloads.build_operation(cs, op, out_dir / op["name"], setup_only=True)
    print(json.dumps({"setup_s": time.perf_counter() - _T_START}))


def host_probe_s(z) -> float:
    """Fastest of three timings of a fixed Euler loop over 512 paths, written
    in numpy like the package's step kernels but running no package code:
    the host's speed at that moment. ``z`` holds the loop's draws. Recorded
    beside each round, never added to a metric."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = z[:, 0] * 0.0
        for k in range(z.shape[1]):
            x = x - 1.5 * x * 0.01 + z[:, k] * 0.1
            e = x * x
            e.sum(), (e * e).sum()
        best = min(best, time.perf_counter() - t0)
    return best


def run_rounds(cs, spec: dict, out_dir: Path, seconds: float, tracer=None) -> dict:
    """Execute whole rounds of the workload's operations until ``seconds``
    have passed (at least one round); time only the program calls."""
    import numpy as np

    import workloads

    ops = [workloads.build_operation(cs, op, out_dir / "bundles" / op["name"])
           for op in spec["ops"]]
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    probe_draws = np.random.default_rng(0).standard_normal((512, 200))
    rounds, layer_rounds = [], []
    op_times = {op.name: [] for op in ops}
    failures = []
    t_begin = time.perf_counter()
    while not rounds or time.perf_counter() - t_begin < seconds:
        probe = host_probe_s(probe_draws)
        if tracer is not None:
            tracer.begin_round()
        wall = 0.0
        digests = {}
        failed = 0
        for op in ops:
            if tracer is not None:
                tracer.begin_op(op.name)
            t0 = time.perf_counter()
            error = None
            try:
                outputs, holds = op.execute()
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                outputs, holds, error = None, None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            wall += elapsed
            op_times[op.name].append(elapsed)
            raised = error is not None
            if holds is False:
                error = "verdict does not hold"
            if error is not None:
                failed += 1
                failures.append({"round": len(rounds), "op": op.name, "error": error,
                                 "raised": raised})
            if outputs is not None:
                target = results_dir / f"{op.name}.npz"
                np.savez(target, **outputs)
                digests[op.name] = _digest([target])
            elif holds is not None:  # a scenario ran to its verdict and wrote a bundle
                digests[op.name] = _digest([p for p in op.out_dir.iterdir() if p.is_file()])
        if tracer is not None:
            layer_rounds.append(tracer.end_round(wall))
        rounds.append({"wall_s": wall, "failed": failed, "digests": digests,
                       "host_probe_s": probe})
    return {
        "rounds": rounds,
        "ops": len(ops),
        "op_times": op_times,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layer_rounds,
    }


def run(spec_path: Path, out_dir: Path, seconds: float, traced: bool):
    cs = _import_package()
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(cs, tracer)
    result = run_rounds(cs, json.loads(spec_path.read_text()), out_dir, seconds, tracer)
    if tracer is not None:
        tracer.save(out_dir / "trace.npz")
    print(json.dumps(result))


def main(argv):
    mode, spec_path, out_dir = argv[0], Path(argv[1]), Path(argv[2])
    sys.path.insert(0, str(HERE))
    if mode == "setup":
        setup(spec_path, out_dir)
    elif mode == "run":
        run(spec_path, out_dir, float(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode '{mode}'")


if __name__ == "__main__":
    main(sys.argv[1:])

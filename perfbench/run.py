"""Benchmark of the simulate -> certify -> bound -> verify pipeline.

    python3 perfbench/run.py --workload scenario_suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` it prints the end-to-end metrics (set-up time,
wall time, path-steps per second, peak resident set); with ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead. Every run checks
the program's outputs against the reference computations in ``oracles.py``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Bundles, results
and traces go to ``.perfbench_out/`` in the checkout; one record per run is
kept under ``.perfbench_out/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60.0
RUN_TIMEOUT_MARGIN_S = 90.0  # beyond --seconds: imports, a last round, writing

def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child(args, timeout):
    """Run the measured process to completion and parse its last line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"nproc": _nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "seed": seed}


def _measure(run_dir: Path, seconds: float, traced: bool) -> dict:
    """One fresh measured process running whole rounds for ``seconds``."""
    return _child(["run", run_dir / "spec.json", run_dir, seconds, int(traced)],
                  timeout=seconds + RUN_TIMEOUT_MARGIN_S)


def _wall(result: dict) -> float:
    """Time to all verdicts: the summed time of the operations of a round,
    averaged over the rounds (see "How a run works" in README.md for why
    the mean and not each operation's fastest time)."""
    return statistics.fmean(r["wall_s"] for r in result["rounds"])


def _tally(result: dict):
    attempted = len(result["rounds"]) * result["ops"]
    failed = sum(r["failed"] for r in result["rounds"])
    return attempted, failed


def _check(spec, run_dir, results) -> list:
    """Output checks on the last round, plus identical outputs in every round
    of every measured process.

    Only an operation that raised is left out of the checks, as it has no
    outputs; one whose verdict does not hold wrote its bundle, and the
    bundle check reports the verdict, so the run is not correct.
    """
    raised = {f["op"] for f in results[-1]["failures"]
              if f["raised"] and f["round"] == len(results[-1]["rounds"]) - 1}
    problems = checks.check_workload(spec, run_dir, skip=raised)
    reference = results[-1]["rounds"][-1]["digests"]
    for res in results:
        for i, rnd in enumerate(res["rounds"]):
            for op, digest in rnd["digests"].items():
                if op in reference and digest != reference[op]:
                    problems.append(f"{op}: outputs of round {i} differ from the last round")
    return problems


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    spec = workloads.make_spec(workload, seed, _nproc())
    steps_per_round = sum(workloads.path_steps(op) for op in spec["ops"])
    run_dir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        run_dir.mkdir(parents=True)
        (run_dir / "spec.json").write_text(json.dumps(spec, indent=1))
        if traced:
            plain = _measure(run_dir, seconds / 2.0, traced=False)
            traced_res = _measure(run_dir, seconds / 2.0, traced=True)
            results = [plain, traced_res]
            layers = traced_res["layers"]
            metrics = {}
            for name, unit in tracing.METRICS.items():
                if name == "trace.overhead_s":
                    value = _wall(traced_res) - _wall(plain)
                else:
                    value = statistics.median(r["metrics"][name] for r in layers)
                metrics[name] = {"value": value, "unit": unit}
            shutil.copyfile(run_dir / "trace.npz", OUT / f"trace-{workload}.npz")
        else:
            setup = [_child(["setup", run_dir / "spec.json", run_dir / "setup"],
                            timeout=SETUP_TIMEOUT_S)["setup_s"] for _ in range(SETUP_REPEATS)]
            res = _measure(run_dir, seconds, traced=False)
            results = [res]
            wall = _wall(res)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "path_steps_per_s": {"value": steps_per_round / wall, "unit": "1/s"},
                "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
            }
        problems = _check(spec, run_dir, results)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = failed = 0
    for res in results:
        a, f = _tally(res)
        attempted += a
        failed += f
    record = {
        "workload": workload, "trace": int(traced), "seconds": seconds,
        "environment": _environment(seed),
        "attempted": attempted, "failed": failed, "correct": not problems,
        "problems": problems,
        "failures": [f for res in results for f in res["failures"]],
        "rounds": [len(res["rounds"]) for res in results],
        "round_wall_s": [[r["wall_s"] for r in res["rounds"]] for res in results],
        "host_probe_s": statistics.median(r["host_probe_s"] for res in results
                                          for r in res["rounds"]),
        "op_times_s": results[-1]["op_times"],
        "path_steps_per_round": steps_per_round,
        "metrics": metrics,
    }
    if traced:
        record["per_op_counts"] = results[-1]["layers"][-1]["per_op"]
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{workload}-seed{seed}-trace{int(traced)}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1))
    return record


def _print_record(rec: dict):
    env = rec["environment"]
    print(f"workload {rec['workload']}, seed {env['seed']}, trace {rec['trace']}: "
          f"{rec['attempted']} operations attempted, {rec['failed']} failed, "
          f"rounds {rec['rounds']}; nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}; host probe "
          f"{rec['host_probe_s'] * 1e3:.2f} ms")
    for name, m in rec["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for p in rec["problems"]:
        print(f"  CHECK FAILED: {p}", file=sys.stderr)
    for f in rec["failures"][:10]:
        print(f"  FAILED: round {f['round']} {f['op']}: {f['error']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "contracting_sde" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'contracting_sde'}", file=sys.stderr)
        return 1
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for rec in records:
        _print_record(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{rec['workload']}.{k}": v for rec in records for k, v in rec["metrics"].items()}
    print(json.dumps({
        "correct": all(rec["correct"] for rec in records),
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

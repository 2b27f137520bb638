"""The package loads no scipy: importing it, parsing and certifying every
shipped config, and running a moment kind, ``gibbs`` and a 1-D
``wasserstein`` config leave scipy unloaded. The 2-D assignment and
bottleneck W_p solvers load it on their first call. Chunks run serially,
so those runs load no ``concurrent`` module either."""

import json
import os
import subprocess
import sys
from pathlib import Path

import contracting_sde

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_SCRIPT = r"""
import json, sys
from pathlib import Path

import numpy as np

import contracting_sde as cs

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
for path in sorted(configs.glob("*.json")):
    cfg = cs.parse_config(path.read_text(encoding="utf-8"))
    cs.run_scenario(cfg, out / ("dry-" + path.stem), dry_run=True)
tracker = {"name": "scalar_tracker", "c": 1.0, "sigma": 0.3}
signals = {"input_x": {"kind": "constant", "value": [1.0]},
           "input_y": {"kind": "constant", "value": [0.0]}}
grid = {"dt": 0.01, "steps": 50}
runs = {
    "niss_pair": {"scenario_kind": "niss_pair", "system": tracker, **signals,
                  "x0": [0.0], "y0": [0.0], "grid": grid, "n_paths": 200},
    "gibbs": {"scenario_kind": "gibbs", "potential": {"kind": "quadratic"}, "sigma": 1.0,
              "grid": {"dt": 0.01, "steps": 2000}},
    "wasserstein": {"scenario_kind": "wasserstein", "system": tracker, **signals,
                    "cloud": {"k": 64}, "grid": grid},
}
for name, data in runs.items():
    cs.run_scenario(cs.parse_config(json.dumps(data)), out / name)
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
concurrent = sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")
rng = np.random.default_rng(0)
mx, my = (cs.EmpiricalMeasure(rng.normal(size=(32, 2))) for _ in range(2))
w = [cs.wasserstein_assignment(mx, my, p) for p in (2, float("inf"))]
after = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"before": before, "after": after, "w": w, "concurrent": concurrent}))
"""


def test_runs_without_a_2d_solve_load_no_scipy(tmp_path):
    src = Path(contracting_sde.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(CONFIG_DIR), str(tmp_path)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["before"] == []
    assert result["concurrent"] == []
    assert "scipy.optimize" in result["after"] and "scipy.sparse.csgraph" in result["after"]
    w2, winf = result["w"]
    assert 0.0 < w2 <= winf
    for name in ("niss_pair", "gibbs", "wasserstein"):
        assert json.loads((tmp_path / name / "verdict.json").read_text())["holds"] is True

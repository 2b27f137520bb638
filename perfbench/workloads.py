"""Workload definitions for the benchmark.

``make_spec`` turns a workload name and a seed into a JSON-serialisable
spec: a list of operations, each a scenario config (run through
``parse_config`` -> ``run_scenario``) or the parameters of one library call.
Every parameter and every ``master_seed`` comes from the workload seed, so
the same seed gives the same inputs and the program sees only the generated
inputs; the exception is the fixed 2-D W_p cases, whose comment says why.
``build_operation`` (run inside the measured process) turns one spec entry
into a prepared callable.

Sizes are fixed per workload; only parameter values vary with the seed.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

WORKLOADS = ("scenario_suite", "wide_oracles", "distributions")

# scenario_suite: every moment kind at a long horizon (10 time units, 10 to
# 20 decay times) with one chunk of paths, kept short so each run holds
# many rounds of them ...
SUITE_PATHS = 512
SUITE_STEPS = 1000
SUITE_DT = 0.01
# ... plus one track_ou_sidc run on the grid of the shipped configs
# (configs/track_ou_sidc.json, track_didc_linear.json, track_jd_sidc.json:
# 10000 steps, dt = 0.002). Its draw buffer (512 x 10000 x 2 doubles, held
# twice while np.stack copies it) sets the workload's peak resident set.
# The shipped configs run 2000 paths; 1000 paths give the same per-chunk
# buffer and, like 2000, a full chunk merged with a partial one, in half
# the time, so a run holds twice as many rounds of it.
SHIPPED_PATHS = 1000
SHIPPED_STEPS = 10000
SHIPPED_DT = 0.002

# wide_oracles: many short paths (4 chunks per call) at n_workers = nproc.
WIDE_PATHS = 2048
WIDE_STEPS = 250
WIDE_DT = 0.008
LINEAGES = 100  # the smallest ensemble the library accepts
LINEAGE_STEPS = 50

# distributions: the p = inf bottleneck solves are the largest share, split
# over three short cases (k = 128) so that each run holds many of them.
W1D_K = 512
W2D_K = 128
W_STEPS = 300
W_DT = 0.025  # horizon 7.5, so c * horizon >= 7.5
W_C = 1.5
W_SKEW = 0.3
W_SIGMA = 0.3
W_DU = 1.0
W_OFFSET = 4.0
W2D_CLOUD_SEEDS = (2602, 2603, 2604)
GIBBS_SAMPLES = 4000
GIBBS_GRID = 2001


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(tag.encode())])


def _master_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _u(rng, lo, hi, size=None):
    v = rng.uniform(lo, hi, size)
    return float(v) if size is None else [float(x) for x in np.atleast_1d(v)]


def _scalar_system(rng):
    """1-D affine system dx = (-c x + b u) dt + s dB with weight P = [[p]]."""
    c, b, s, p = _u(rng, 1.0, 2.0), _u(rng, 0.5, 1.5), _u(rng, 0.2, 0.4), _u(rng, 0.5, 2.0)
    return {"A": [[-c]], "B": [[b]], "Sigma": [[s]], "P": [[p]]}


def _planar_system(rng, m: int, identity_p: bool = False):
    """2-D affine system contracting at rate c in a non-identity weight P.

    A = -c I + P^{-1} W with W skew-symmetric gives P A + A^T P = -2 c P, so
    the certified rate is exactly c while A is non-normal.
    """
    c = _u(rng, 1.0, 2.0)
    if identity_p:
        P = np.eye(2)
    else:
        L = np.array([[1.0, 0.0], [_u(rng, -0.6, 0.6), _u(rng, 0.7, 1.3)]])
        P = L @ L.T
    w = _u(rng, 0.2, 0.6) * c
    W = np.array([[0.0, w], [-w, 0.0]])
    A = -c * np.eye(2) + np.linalg.solve(P, W)
    B = rng.uniform(-1.0, 1.0, (2, m)) + np.eye(2, m)
    Sigma = np.tril(rng.uniform(-0.1, 0.1, (2, 2))) + np.diag(rng.uniform(0.2, 0.35, 2))
    return {"A": A.tolist(), "B": B.tolist(), "Sigma": Sigma.tolist(), "P": P.tolist()}


def _eq_map(system: dict) -> dict:
    """x*(u) = -A^{-1} B u, the zero of the affine drift."""
    A, B = np.asarray(system["A"]), np.asarray(system["B"])
    return {"M": (-np.linalg.solve(A, B)).tolist()}


def _sinusoid(rng, m: int):
    return {"kind": "sinusoid", "amplitude": _u(rng, 0.5, 1.5, m),
            "omega": _u(rng, 0.5, 2.0), "phase": _u(rng, 0.0, math.pi)}


def _suite_grid():
    return {"t0": 0.0, "dt": SUITE_DT, "steps": SUITE_STEPS}


def _moment_config(kind: str, rng, **fields) -> dict:
    cfg = {"scenario_kind": kind, "grid": _suite_grid(), "n_paths": SUITE_PATHS,
           "master_seed": _master_seed(rng), "n_workers": 1, "alpha_policy": "opt"}
    cfg.update(fields)
    return cfg


def _jd_fields(rng, c_u: float):
    """Jacobi input noise on (0, a) whose target stays inside the Feller band.

    sigma_u^2 / (2 c) <= 0.25 and theta in [0.4 a, 0.6 a] keep
    (sigma_u^2 / 2c) a <= theta(t) <= (1 - sigma_u^2 / 2c) a at every t.
    """
    a = _u(rng, 0.8, 1.5)
    theta = {"kind": "sinusoid", "amplitude": [0.1 * a], "omega": _u(rng, 0.5, 2.0),
             "phase": 0.0, "offset": [0.5 * a]}
    sigma_u = math.sqrt(_u(rng, 0.2, 0.5) * c_u)
    noise = {"c": c_u, "sigma_u": sigma_u, "a": [a]}
    return theta, noise, [0.5 * a + _u(rng, -0.05, 0.05) * a]


# Every seeded scenario starts with zero initial error (x0 = y0, or x0 on
# the equilibrium x*(v_0) with a bit-exact product), because a nonzero
# initial error makes the verdict fail on some seeds: mean_sq[0] and the
# envelope's E0 are the same number summed two ways, std_err[0] = 0 leaves
# no slack, and a last-bit difference decides (see
# tests/test_workloads.py::test_nonzero_initial_error_verdict).


def _scenario_suite(seed: int) -> list:
    ops = []

    rng = _rng(seed, "niss_pair_independent")
    s = _scalar_system(rng)
    x0 = _u(rng, -1.0, 1.0, 1)
    ops.append(("niss_pair_independent", _moment_config(
        "niss_pair", rng, system=s, coupling="independent",
        input_x=_sinusoid(rng, 1),
        input_y={"kind": "constant", "value": _u(rng, -0.5, 0.5, 1)}, x0=x0, y0=x0)))

    rng = _rng(seed, "niss_pair_common_2d")
    s = _planar_system(rng, m=2)
    x0 = _u(rng, -1.0, 1.0, 2)
    ops.append(("niss_pair_common_2d", _moment_config(
        "niss_pair", rng, system=s, coupling="common",
        input_x=_sinusoid(rng, 2),
        input_y={"kind": "constant", "value": _u(rng, -0.5, 0.5, 2)}, x0=x0, y0=x0)))

    rng = _rng(seed, "niss_vs_ode")
    c, sigma = _u(rng, 1.0, 2.0), _u(rng, 0.2, 0.4)
    x0 = _u(rng, -1.0, 1.0, 1)
    ops.append(("niss_vs_ode", _moment_config(
        "niss_vs_ode", rng, system={"name": "scalar_tracker", "c": c, "sigma": sigma},
        input_x=_sinusoid(rng, 1), input_y=_sinusoid(rng, 1), x0=x0, y0=x0)))

    # theta(0) = 0 (phase 0, no offset) puts x0 = 0 on the equilibrium
    rng = _rng(seed, "track_didc")
    s = _scalar_system(rng)
    ops.append(("track_didc", _moment_config(
        "track_didc", rng, system=s, theta={**_sinusoid(rng, 1), "phase": 0.0},
        eq_map=_eq_map(s), x0=[0.0])))

    rng = _rng(seed, "track_ou_sidc")
    s = _scalar_system(rng)
    ops.append(("track_ou_sidc", _moment_config(
        "track_ou_sidc", rng, system=s, theta={**_sinusoid(rng, 1), "phase": 0.0},
        eq_map=_eq_map(s), noise={"c": _u(rng, 1.0, 2.0), "sigma": _u(rng, 0.2, 0.5)},
        x0=[0.0], xi0=_u(rng, -0.5, 0.5, 1))))

    rng = _rng(seed, "track_ou_sisc_2d")
    s = _planar_system(rng, m=1)
    ops.append(("track_ou_sisc_2d", _moment_config(
        "track_ou_sisc", rng, system=s, theta={**_sinusoid(rng, 1), "phase": 0.0},
        eq_map=_eq_map(s), noise={"c": _u(rng, 1.0, 2.0), "sigma": _u(rng, 0.2, 0.5)},
        x0=[0.0, 0.0], xi0=[0.0])))

    # scalar_tracker has x*(u) = u, so x0 = theta(0) resp. x0 = u0 exactly
    rng = _rng(seed, "track_jd_sidc")
    c, sigma = _u(rng, 1.0, 2.0), _u(rng, 0.2, 0.4)
    theta, noise, u0 = _jd_fields(rng, c)
    ops.append(("track_jd_sidc", _moment_config(
        "track_jd_sidc", rng, system={"name": "scalar_tracker", "c": c, "sigma": sigma},
        theta=theta, eq_map={"M": [[1.0]]}, noise=noise, u0=u0, x0=theta["offset"])))

    rng = _rng(seed, "track_jd_sisc")
    c, sigma = _u(rng, 1.0, 2.0), _u(rng, 0.2, 0.4)
    theta, noise, u0 = _jd_fields(rng, c)
    ops.append(("track_jd_sisc", _moment_config(
        "track_jd_sisc", rng, system={"name": "scalar_tracker", "c": c, "sigma": sigma},
        theta=theta, eq_map={"M": [[1.0]]}, noise=noise, u0=u0, x0=u0)))

    rng = _rng(seed, "track_ou_sidc_shipped")
    s = _scalar_system(rng)
    ops.append(("track_ou_sidc_shipped", _moment_config(
        "track_ou_sidc", rng, system=s, theta={**_sinusoid(rng, 1), "phase": 0.0},
        eq_map=_eq_map(s), noise={"c": _u(rng, 1.0, 2.0), "sigma": _u(rng, 0.2, 0.5)},
        x0=[0.0], xi0=_u(rng, -0.5, 0.5, 1),
        grid={"t0": 0.0, "dt": SHIPPED_DT, "steps": SHIPPED_STEPS}, n_paths=SHIPPED_PATHS)))
    return [{"name": name, "type": "scenario", "config": cfg} for name, cfg in ops]


def _wide_oracles(seed: int, n_workers: int) -> list:
    grid = {"t0": 0.0, "dt": WIDE_DT, "steps": WIDE_STEPS}
    ops = []
    rng = _rng(seed, "ou_moment")
    ou = {"c": _u(rng, 0.5, 2.0), "sigma": _u(rng, 0.5, 1.5), "x0": _u(rng, 1.0, 3.0, 1),
          "master_seed": _master_seed(rng)}
    for method in ("exact", "euler"):
        ops.append({"name": f"ou_moment_{method}", "type": "ou_moment", "method": method,
                    "ou": ou, "grid": grid, "n_paths": WIDE_PATHS, "n_workers": n_workers})

    rng = _rng(seed, "pair_error_moment")
    pair = {"system": {**_scalar_system(rng), "P": [[1.0]]},
            "input_x": _sinusoid(rng, 1), "input_y": {"kind": "constant", "value": [0.0]},
            "x0": [0.0], "y0": [0.0], "master_seed": _master_seed(rng)}
    ops.append({"name": "pair_error_moment", "type": "pair_moment", "pair": pair,
                "grid": grid, "n_paths": WIDE_PATHS, "n_workers": n_workers})

    rng = _rng(seed, "tracking_error_moment")
    s = _scalar_system(rng)
    cascade = {"system": s, "theta": _sinusoid(rng, 1), "eq_map": _eq_map(s),
               "noise": {"c": _u(rng, 1.0, 2.0), "sigma": _u(rng, 0.2, 0.5)},
               "x0": _u(rng, -1.0, 1.0, 1), "xi0": _u(rng, -0.5, 0.5, 1),
               "target": "deterministic_curve", "master_seed": _master_seed(rng)}
    ops.append({"name": "tracking_error_moment", "type": "tracking_moment",
                "cascade": cascade, "grid": grid, "n_paths": WIDE_PATHS,
                "n_workers": n_workers})

    short = {"t0": 0.0, "dt": WIDE_DT, "steps": LINEAGE_STEPS}
    ops.append({"name": "lineage_pair", "type": "lineage_pair", "pair": pair,
                "grid": short, "n_paths": LINEAGES, "n_workers": n_workers})
    ops.append({"name": "lineage_cascade", "type": "lineage_cascade", "cascade": cascade,
                "grid": short, "n_paths": LINEAGES, "n_workers": n_workers})
    return ops


def _wasserstein_config(system, du, mean_x, k, p, master_seed) -> dict:
    n = len(mean_x)
    return {"scenario_kind": "wasserstein", "system": system,
            "input_x": {"kind": "constant", "value": list(du)},
            "input_y": {"kind": "constant", "value": [0.0] * len(du)},
            "cloud": {"k": k, "mean_x": list(mean_x), "mean_y": [0.0] * n, "std": 1.0},
            "p": p, "grid": {"t0": 0.0, "dt": W_DT, "steps": W_STEPS},
            "master_seed": master_seed, "n_workers": 1}


def _distributions(seed: int) -> list:
    """One seeded 1-D W_p case, four fixed 2-D cases and a seeded Gibbs check.

    The assignment and bottleneck solvers' cost depends on the sampled
    clouds: with seeded 2-D clouds the p = inf case took from 2.0 s to
    3.8 s (median of five) across six seeds at the same size, a spread no
    bound on wall_s could absorb. So the 2-D cases are fixed inputs, the
    same for every seed; the 1-D sorted case, whose cost does not depend on
    the values, and the Gibbs samples follow the seed.
    """
    ops = []
    rng = _rng(seed, "wasserstein_1d")
    sign = float(rng.choice([-1.0, 1.0]))
    s1 = {"A": [[-_u(rng, 1.0, 2.0)]], "B": [[_u(rng, 0.5, 1.5)]],
          "Sigma": [[_u(rng, 0.2, 0.4)]], "P": [[1.0]]}
    ops.append(("wasserstein_1d_p2", _wasserstein_config(
        s1, [sign * _u(rng, 0.5, 1.5)], [sign * _u(rng, 3.0, 6.0)], W1D_K, 2,
        _master_seed(rng))))
    A = -W_C * np.eye(2) + W_SKEW * W_C * np.array([[0.0, 1.0], [-1.0, 0.0]])
    s2 = {"A": A.tolist(), "B": np.eye(2).tolist(), "Sigma": (W_SIGMA * np.eye(2)).tolist(),
          "P": np.eye(2).tolist()}
    for i, cloud_seed in enumerate(W2D_CLOUD_SEEDS):
        case = _wasserstein_config(s2, [W_DU, 0.0], [0.0, W_OFFSET], W2D_K, "inf", cloud_seed)
        if i == 0:
            # same system, clouds and seed as the first p = inf case, so the
            # checkpoints compare W_2 <= W_inf on the same clouds
            ops.append(("wasserstein_2d_p2", {**case, "p": 2}))
        ops.append((f"wasserstein_2d_pinf_{i}", case))
    spec = [{"name": name, "type": "scenario", "config": cfg} for name, cfg in ops]

    rng = _rng(seed, "gibbs")
    spec.append({"name": "gibbs_check", "type": "gibbs", "c": _u(rng, 0.5, 2.0),
                 "sigma": _u(rng, 0.5, 1.5), "n_samples": GIBBS_SAMPLES,
                 "grid_points": GIBBS_GRID, "sample_seed": _master_seed(rng)})
    return spec


def make_spec(workload: str, seed: int, nproc: int) -> dict:
    if workload == "scenario_suite":
        ops = _scenario_suite(seed)
    elif workload == "wide_oracles":
        ops = _wide_oracles(seed, nproc)
    elif workload == "distributions":
        ops = _distributions(seed)
    else:
        raise ValueError(f"unknown workload '{workload}'")
    return {"workload": workload, "seed": int(seed), "ops": ops}


def path_steps(op: dict) -> int:
    """Simulated path-steps of one operation at its stated size.

    A coupled pair or cascade counts once, a W_p cloud counts as k paths
    (the clouds are simulated as k coupled pairs), and each single-path
    reference run counts as one path.
    """
    kind = op["type"]
    if kind == "scenario":
        cfg = op["config"]
        steps = cfg["grid"]["steps"]
        if cfg["scenario_kind"] == "wasserstein":
            return cfg["cloud"]["k"] * steps
        return cfg["n_paths"] * steps
    if kind == "gibbs":
        return 0
    steps = op["grid"]["steps"]
    if kind in ("lineage_pair", "lineage_cascade"):
        return 2 * op["n_paths"] * steps
    return op["n_paths"] * steps


# ---------------------------------------------------------------------------
# Operations, built inside the measured process


def _signal(cs, spec):
    if spec["kind"] == "constant":
        return cs.InputSignal.constant(spec["value"])
    return cs.InputSignal.sinusoid(spec["amplitude"], omega=spec["omega"],
                                   phase=spec["phase"], offset=spec.get("offset"))


def _system(cs, spec):
    return cs.affine_system(spec["A"], spec["B"], spec["Sigma"],
                            cs.validate_metric(np.asarray(spec["P"], dtype=float)))


def _certify(cs, spec):
    return cs.certify_affine(spec["A"], spec["B"], spec["Sigma"],
                             cs.validate_metric(np.asarray(spec["P"], dtype=float)))


def _grid(cs, spec):
    return cs.TimeGrid(spec["t0"], spec["dt"], spec["steps"])


def _pair_scenario(cs, pair, grid):
    sys = _system(cs, pair["system"])
    return cs.PairScenario(
        sys_x=sys, sys_y=sys, x0=pair["x0"], y0=pair["y0"],
        u_x=_signal(cs, pair["input_x"]), u_y=_signal(cs, pair["input_y"]),
        mode=cs.CouplingMode.INDEPENDENT, grid=_grid(cs, grid))


def _cascade_scenario(cs, cas, grid):
    sys = _system(cs, cas["system"])
    noise = cs.OUParams(c=cas["noise"]["c"], sigma=cas["noise"]["sigma"], dim=sys.input_dim)
    return cs.CascadeScenario(noise=noise, theta=_signal(cs, cas["theta"]), sys=sys,
                              x0=cas["x0"], xi0=cas["xi0"], grid=_grid(cs, grid))


def _series_arrays(series):
    return {"mean_sq": series.mean_sq, "std_err": series.std_err}


class Operation:
    """One prepared operation: ``execute()`` runs the program and returns
    (outputs, verdict_holds); outputs are arrays to save, or None when the
    program wrote a bundle to ``out_dir``."""

    def __init__(self, name, execute, out_dir=None):
        self.name = name
        self.execute = execute
        self.out_dir = out_dir


def build_operation(cs, op: dict, out_dir, setup_only: bool = False) -> Operation:
    """Prepare one operation: parse and certify (the set-up path), and return
    the callable that the timed rounds execute."""
    kind = op["type"]
    if kind == "scenario":
        import json
        cfg = cs.parse_config(json.dumps(op["config"]))
        if setup_only:
            cs.run_scenario(cfg, out_dir, dry_run=True)
            return None

        def execute():
            verdict = cs.run_scenario(cfg, out_dir)
            return None, verdict.holds

        return Operation(op["name"], execute, out_dir)

    if kind == "ou_moment":
        ou = op["ou"]
        params = cs.OUParams(c=ou["c"], sigma=ou["sigma"], dim=1)
        grid = _grid(cs, op["grid"])
        if setup_only:
            return None

        def execute():
            s = cs.ou_moment(params, ou["x0"], grid, op["n_paths"], ou["master_seed"],
                             method=op["method"], n_workers=op["n_workers"])
            return _series_arrays(s), None

        return Operation(op["name"], execute)

    if kind in ("pair_moment", "lineage_pair"):
        pair = op["pair"]
        sc = _pair_scenario(cs, pair, op["grid"])
        _certify(cs, pair["system"])
        if setup_only:
            return None
        seed = pair["master_seed"]

        if kind == "pair_moment":
            def execute():
                s = cs.pair_error_moment(sc, op["n_paths"], seed, n_workers=op["n_workers"])
                return _series_arrays(s), None
        else:
            def execute():
                s = cs.pair_error_moment(sc, op["n_paths"], seed, n_workers=op["n_workers"])
                xs, ys = [], []
                for i in range(op["n_paths"]):
                    tx, ty = cs.integrate_pair(sc.sys_x, sc.sys_y, sc.x0, sc.y0, sc.u_x,
                                               sc.u_y, sc.mode, sc.grid,
                                               cs.RngLineage(seed, i))
                    xs.append(tx.states)
                    ys.append(ty.states)
                return {"mean_sq": s.mean_sq, "x": np.stack(xs), "y": np.stack(ys)}, None

        return Operation(op["name"], execute)

    if kind in ("tracking_moment", "lineage_cascade"):
        cas = op["cascade"]
        sc = _cascade_scenario(cs, cas, op["grid"])
        eq = cs.EquilibriumMap.affine(cas["eq_map"]["M"])
        _certify(cs, cas["system"])
        if setup_only:
            return None
        seed = cas["master_seed"]

        if kind == "tracking_moment":
            def execute():
                s = cs.tracking_error_moment(sc, eq, cas["target"], op["n_paths"], seed,
                                             n_workers=op["n_workers"])
                return _series_arrays(s), None
        else:
            def execute():
                s = cs.tracking_error_moment(sc, eq, cas["target"], op["n_paths"], seed,
                                             n_workers=op["n_workers"])
                us, xs = [], []
                for i in range(op["n_paths"]):
                    tu, tx = cs.integrate_cascade(sc.noise, sc.theta, sc.sys, sc.x0,
                                                  sc.xi0, sc.grid, cs.RngLineage(seed, i))
                    us.append(tu.states)
                    xs.append(tx.states)
                return {"mean_sq": s.mean_sq, "u": np.stack(us), "x": np.stack(xs)}, None

        return Operation(op["name"], execute)

    if kind == "gibbs":
        c, sigma = op["c"], op["sigma"]
        scale = sigma / math.sqrt(2.0 * c)
        samples = scale * np.random.default_rng(op["sample_seed"]).standard_normal(op["n_samples"])
        grid1d = np.linspace(-6.0 * scale, 6.0 * scale, op["grid_points"])
        if setup_only:
            return None

        def f(x):
            return 0.5 * c * x * x

        def grad_f(x):
            return c * x

        def execute():
            res = cs.gibbs_check(f, grad_f, sigma, samples, grid1d)
            density = cs.gibbs_density(f, sigma, grid1d)
            return {"ks_stat": np.array(res["ks_stat"]), "residual": np.array(res["residual"]),
                    "density": density, "grid": grid1d, "samples": samples}, None

        return Operation(op["name"], execute)

    raise ValueError(f"unknown operation type '{kind}'")

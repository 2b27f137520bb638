"""Correctness checks of a workload's outputs against ``oracles``.

Each check reads what the program wrote (report bundles, or the arrays the
benchmark saved from a library call) and returns a list of problems; an
empty list means the outputs are correct. Statistical comparisons use a
Bonferroni-corrected normal band at family level ``FAMILY_ALPHA`` per
workload run, so a correct program fails a run with probability below it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles

FAMILY_ALPHA = 1e-6
CHECK_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0)  # of the horizon, for band checks
FLOAT_RTOL = 1e-8  # for quantities with no sampling error
LINEAGE_RTOL = 1e-12
SE_RATIO_LIMIT = 2.0  # program std_err vs exact Gaussian SE

BUNDLE_FILES = {
    "moment": ("certificate.json", "moments.csv", "envelope.csv", "plotdata.csv", "verdict.json"),
    "wasserstein": ("certificate.json", "wasserstein.csv", "plotdata.csv", "verdict.json"),
}


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, np.array([[float(v) for v in r] for r in body])


def _check_indices(steps: int):
    return sorted({max(1, int(round(f * steps))) for f in CHECK_FRACTIONS})


def comparisons(spec: dict) -> int:
    """Number of band comparisons a workload's checks make."""
    per = len(CHECK_FRACTIONS)
    n = 0
    for op in spec["ops"]:
        if op["type"] == "scenario" and op["config"]["scenario_kind"] != "wasserstein":
            n += per
        elif op["type"] in ("ou_moment", "pair_moment", "tracking_moment"):
            n += per
    return max(n, 1)


def _band(name, mean, se, ref, idx, z, problems):
    for k in idx:
        tol = z * se[k] + FLOAT_RTOL * abs(ref[k])
        if not abs(mean[k] - ref[k]) <= tol:
            problems.append(f"{name}: step {k}: estimate {mean[k]:.6g} vs exact {ref[k]:.6g}"
                            f" exceeds {z:.2f} SE band ({tol:.3g})")


def _se_plausible(name, se, var, n_paths, idx, problems):
    for k in idx:
        exact = math.sqrt(max(var[k], 0.0) / n_paths)
        if exact < 1e-12 * (1.0 + abs(var[k])):
            continue  # deterministic error: nothing to compare
        ratio = se[k] / exact
        if not (1.0 / SE_RATIO_LIMIT <= ratio <= SE_RATIO_LIMIT):
            problems.append(f"{name}: step {k}: std_err {se[k]:.4g} vs exact SE {exact:.4g}")


def _check_certificate(name, bundle: Path, cfg: dict, problems):
    cert = json.loads((bundle / "certificate.json").read_text())
    c, ell, sx = oracles.certificate(cfg["system"])
    for key, ref in (("c_hat", c), ("ell_hat", ell), ("sigma_x_sq_hat", sx)):
        if not math.isclose(cert[key], ref, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{name}: certificate {key} {cert[key]!r} vs {ref!r}")


def check_moment_bundle(name: str, bundle: Path, cfg: dict, z: float) -> list:
    problems = []
    for f in BUNDLE_FILES["moment"]:
        if not (bundle / f).is_file():
            problems.append(f"{name}: bundle lacks {f}")
    if problems:
        return problems
    steps = cfg["grid"]["steps"]
    verdict = json.loads((bundle / "verdict.json").read_text())
    if verdict.get("holds") is not True:
        problems.append(f"{name}: verdict does not hold")
    header, rows = _read_csv(bundle / "moments.csv")
    if header[:3] != ["t", "mean_sq", "std_err"] or rows.shape[0] != steps + 1:
        problems.append(f"{name}: moments.csv has {rows.shape[0]} rows, expected {steps + 1}")
        return problems
    _, plot = _read_csv(bundle / "plotdata.csv")
    if plot.shape[0] != steps + 1:
        problems.append(f"{name}: plotdata.csv has {plot.shape[0]} rows, expected {steps + 1}")
    _, env = _read_csv(bundle / "envelope.csv")
    if env.shape[0] != 2 * (steps + 1):
        problems.append(f"{name}: envelope.csv has {env.shape[0]} rows, "
                        f"expected {2 * (steps + 1)}")
    _check_certificate(name, bundle, cfg, problems)
    times = cfg["grid"]["t0"] + cfg["grid"]["dt"] * np.arange(steps + 1)
    if not np.allclose(rows[:, 0], times, rtol=1e-12, atol=1e-12):
        problems.append(f"{name}: moments.csv times differ from the grid")
    kind = cfg["scenario_kind"]
    if kind.startswith("niss"):
        ref, var = oracles.pair_moment(cfg)
    else:
        ref, var = oracles.tracking_moment(cfg)
    idx = _check_indices(steps)
    mean, se = rows[:, 1], rows[:, 2]
    _band(name, mean, se, ref, idx, z, problems)
    if var is not None:
        _se_plausible(name, se, var, cfg["n_paths"], idx, problems)
    return problems


def check_wasserstein_bundles(bundles: dict, cfgs: dict) -> list:
    """Every W_p bundle: files, verdict, final checkpoint inside the limit
    band; and W_2 <= W_inf checkpoint by checkpoint for configs that differ
    only in p."""
    problems = []
    series = {}
    for name, bundle in bundles.items():
        cfg = cfgs[name]
        missing = [f for f in BUNDLE_FILES["wasserstein"] if not (bundle / f).is_file()]
        if missing:
            problems.append(f"{name}: bundle lacks {', '.join(missing)}")
            continue
        verdict = json.loads((bundle / "verdict.json").read_text())
        if verdict.get("holds") is not True:
            problems.append(f"{name}: verdict does not hold")
        _check_certificate(name, bundle, cfg, problems)
        _, rows = _read_csv(bundle / "wasserstein.csv")
        series[name] = rows
        steps = cfg["grid"]["steps"]
        if rows.shape[0] < 2 or not math.isclose(rows[-1, 0], steps * cfg["grid"]["dt"],
                                                  rel_tol=1e-12):
            problems.append(f"{name}: last checkpoint is not the horizon")
            continue
        lo, hi = oracles.wp_limit_band(cfg)
        w = rows[-1, 1]
        if not (lo * (1 - FLOAT_RTOL) <= w <= hi * (1 + FLOAT_RTOL)):
            problems.append(f"{name}: final W_p {w:.6g} outside limit band [{lo:.6g}, {hi:.6g}]")
    for name, cfg in cfgs.items():
        if cfg["p"] != "inf" or name not in series:
            continue
        for other, ocfg in cfgs.items():
            if other in series and ocfg["p"] == 2 and {**ocfg, "p": "inf"} == cfg:
                w2, winf = series[other], series[name]
                if w2.shape != winf.shape or not np.array_equal(w2[:, 0], winf[:, 0]):
                    problems.append(f"{other}/{name}: checkpoints differ")
                elif np.any(w2[:, 1] > winf[:, 1] * (1 + FLOAT_RTOL)):
                    k = int(np.argmax(w2[:, 1] - winf[:, 1]))
                    problems.append(f"{other}/{name}: W_2 {w2[k, 1]:.6g} > W_inf "
                                    f"{winf[k, 1]:.6g} at t={w2[k, 0]:.4g}")
    return problems


def check_library(op: dict, data, z: float) -> list:
    name, kind = op["name"], op["type"]
    problems = []
    if kind == "ou_moment":
        ou, grid = op["ou"], op["grid"]
        x0_sq = float(np.sum(np.square(ou["x0"])))
        if op["method"] == "exact":
            t = grid["dt"] * np.arange(grid["steps"] + 1)
            ref = oracles.ou_exact_second_moment(x0_sq, ou["c"], ou["sigma"], t)
        else:
            ref = oracles.ou_euler_second_moment(x0_sq, ou["c"], ou["sigma"], grid["dt"],
                                                 grid["steps"])
        _band(name, data["mean_sq"], data["std_err"], ref, _check_indices(grid["steps"]), z,
              problems)
    elif kind == "pair_moment":
        cfg = {**op["pair"], "scenario_kind": "niss_pair", "grid": op["grid"],
               "coupling": "independent"}
        ref, var = oracles.pair_moment(cfg)
        idx = _check_indices(op["grid"]["steps"])
        _band(name, data["mean_sq"], data["std_err"], ref, idx, z, problems)
        _se_plausible(name, data["std_err"], var, op["n_paths"], idx, problems)
    elif kind == "tracking_moment":
        cfg = _cascade_config(op)
        ref, var = oracles.tracking_moment(cfg)
        idx = _check_indices(op["grid"]["steps"])
        _band(name, data["mean_sq"], data["std_err"], ref, idx, z, problems)
        _se_plausible(name, data["std_err"], var, op["n_paths"], idx, problems)
    elif kind == "lineage_pair":
        _, _, _, P = oracles.system_matrices(op["pair"]["system"])
        e = data["x"] - data["y"]
        single = np.einsum("pki,ij,pkj->pk", e, P, e).mean(axis=0)
        _lineage(name, data["mean_sq"], single, problems)
    elif kind == "lineage_cascade":
        cas = op["cascade"]
        _, _, _, P = oracles.system_matrices(cas["system"])
        grid = op["grid"]
        t = grid["t0"] + grid["dt"] * np.arange(grid["steps"] + 1)
        Meq = np.atleast_2d(np.asarray(cas["eq_map"]["M"], dtype=float))
        v = oracles.signal(cas["theta"], t) if cas["target"] == "deterministic_curve" \
            else data["u"]
        e = data["x"] - v @ Meq.T
        single = np.einsum("pki,ij,pkj->pk", e, P, e).mean(axis=0)
        _lineage(name, data["mean_sq"], single, problems)
    elif kind == "gibbs":
        var = op["sigma"] ** 2 / (2.0 * op["c"])
        ref = oracles.normal_density(data["grid"], var)
        if not np.allclose(data["density"], ref, rtol=1e-6, atol=1e-9 * ref.max()):
            problems.append(f"{name}: Gibbs density differs from N(0, {var:.4g})")
        ks_ref = oracles.normal_ks(data["samples"], var)
        h = float(data["grid"][1] - data["grid"][0])
        if not abs(float(data["ks_stat"]) - ks_ref) <= GIBBS_KS_TOL * h * h / var + 1e-12:
            problems.append(f"{name}: KS statistic {float(data['ks_stat']):.6g} vs {ks_ref:.6g}")
        residual_tol = GIBBS_RESIDUAL_TOL * op["c"] * h * h / var ** 1.5
        if not float(data["residual"]) <= residual_tol:
            problems.append(f"{name}: stationarity residual {float(data['residual']):.3g}"
                            f" above {residual_tol:.3g}")
    else:
        problems.append(f"{name}: no check for operation type '{kind}'")
    return problems


# The model CDF is trapezoid-integrated and linearly interpolated on a grid
# of spacing h; for N(0, var) both errors together stay below 0.5 h^2 / var.
GIBBS_KS_TOL = 0.5
# The stationarity defect of central differences is c h^2 / var^1.5 times
# 1 / (2 sqrt(2 pi)) ~ 0.2 to leading order; allow five times that.
GIBBS_RESIDUAL_TOL = 1.0


def _cascade_config(op: dict) -> dict:
    cas = op["cascade"]
    kind = "track_ou_sidc" if cas["target"] == "deterministic_curve" else "track_ou_sisc"
    return {"scenario_kind": kind, "system": cas["system"], "theta": cas["theta"],
            "eq_map": cas["eq_map"], "noise": cas["noise"], "x0": cas["x0"],
            "xi0": cas["xi0"], "grid": op["grid"]}


def _lineage(name, ensemble, single, problems):
    if ensemble.shape != single.shape or not np.allclose(ensemble, single, rtol=LINEAGE_RTOL,
                                                         atol=0.0):
        worst = float(np.max(np.abs(ensemble - single) / np.maximum(np.abs(single), 1e-300)))
        problems.append(f"{name}: ensemble mean differs from single-path runs "
                        f"(worst relative {worst:.3g})")


def check_workload(spec: dict, out_dir: Path, skip=()) -> list:
    """All checks of one workload run; operations named in ``skip`` failed
    in the program and have no outputs to check."""
    z = oracles.bonferroni_z(comparisons(spec), FAMILY_ALPHA)
    problems = []
    w_bundles, w_cfgs = {}, {}
    for op in spec["ops"]:
        if op["name"] in skip:
            continue
        if op["type"] == "scenario":
            bundle = out_dir / "bundles" / op["name"]
            cfg = op["config"]
            if cfg["scenario_kind"] == "wasserstein":
                w_bundles[op["name"]], w_cfgs[op["name"]] = bundle, cfg
            else:
                problems += check_moment_bundle(op["name"], bundle, cfg, z)
        else:
            with np.load(out_dir / "results" / f"{op['name']}.npz") as data:
                problems += check_library(op, dict(data), z)
    if w_bundles:
        problems += check_wasserstein_bundles(w_bundles, w_cfgs)
    return problems

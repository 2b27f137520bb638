"""Scenario configuration, validation, and report-bundle execution.

A scenario config is a JSON object (UTF-8 text) describing one experiment:
the system, its inputs or tracking target, the noise model, the time grid,
and the ensemble size. ``run_scenario`` executes it and writes a report
bundle (certificate, empirical series, envelope table, verdict, plot data)
into one directory; the verdict drives the process exit code.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds as bnd
from .contraction import certify_affine
from .core import (
    EquilibriumMap,
    InputSignal,
    TimeGrid,
    validate_metric,
)
from .errors import ConfigError
from .integrate import CouplingMode, default_dt
from .montecarlo import (
    CascadeScenario,
    MomentSeries,
    PairScenario,
    Verdict,
    check_envelope,
    _resolve_alpha,
    pair_error_moment,
    tracking_error_moment,
)
from .noise import JDParams, OUParams, RngLineage
from .wasserstein import (
    WassersteinScenario,
    _wasserstein_verdict,
    gibbs_check,
    gibbs_density,
    wasserstein_series,
)

OUTPUT_DIR_ENV = "CONTRACTING_SDE_OUT"

KINDS = (
    "niss_pair", "niss_vs_ode", "track_didc", "track_ou_sidc",
    "track_ou_sisc", "track_jd_sidc", "track_jd_sisc", "wasserstein", "gibbs",
)

_COMMON_KEYS = {
    "scenario_kind", "grid", "n_paths", "master_seed", "alpha_policy",
    "alpha_fixed", "output_dir", "n_workers",
}
_KIND_KEYS = {
    "niss_pair": {"system", "input_x", "input_y", "x0", "y0", "coupling"},
    "niss_vs_ode": {"system", "input_x", "input_y", "x0", "y0"},
    "track_didc": {"system", "theta", "x0", "eq_map"},
    "track_ou_sidc": {"system", "theta", "x0", "eq_map", "noise", "xi0"},
    "track_ou_sisc": {"system", "theta", "x0", "eq_map", "noise", "xi0"},
    "track_jd_sidc": {"system", "theta", "x0", "eq_map", "noise", "u0"},
    "track_jd_sisc": {"system", "theta", "x0", "eq_map", "noise", "u0"},
    "wasserstein": {"system", "input_x", "input_y", "cloud", "p"},
    "gibbs": {"potential", "sigma"},
}
_KIND_REQUIRED = {
    "niss_pair": {"system", "input_x", "input_y", "x0", "y0"},
    "niss_vs_ode": {"system", "input_x", "input_y", "x0", "y0"},
    "track_didc": {"system", "theta", "x0", "eq_map"},
    "track_ou_sidc": {"system", "theta", "x0", "eq_map", "noise"},
    "track_ou_sisc": {"system", "theta", "x0", "eq_map", "noise"},
    "track_jd_sidc": {"system", "theta", "x0", "eq_map", "noise"},
    "track_jd_sisc": {"system", "theta", "x0", "eq_map", "noise"},
    "wasserstein": {"system", "input_x", "input_y", "cloud"},
    "gibbs": {"potential", "sigma"},
}
_OU_NOISE_KEYS = {"c", "sigma"}
_JD_NOISE_KEYS = {"c", "sigma_u", "a", "theta_is_target", "unsafe"}

_ENVELOPE_KIND = {
    "niss_pair": "niss_two_traj",
    "niss_vs_ode": "niss_vs_ode",
    "track_didc": "track_didc",
    "track_ou_sidc": "track_ou_sidc",
    "track_ou_sisc": "track_ou_sisc",
    "track_jd_sidc": "track_jd_sidc",
    "track_jd_sisc": "track_jd_sisc",
}

TAIL_FRACTION = 0.2  # window used to operationalize long-run suprema


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (normalized key-value data)."""

    kind: str
    data: dict

    def serialize(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario config; fill documented defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    kind = raw.get("scenario_kind")
    if kind is None:
        raise ConfigError("missing required field 'scenario_kind'")
    if kind not in KINDS:
        raise ConfigError(
            f"unknown scenario kind '{kind}'; expected one of {', '.join(KINDS)}"
        )
    allowed = _COMMON_KEYS | _KIND_KEYS[kind]
    for key in raw:
        if key not in allowed:
            raise ConfigError(
                f"unknown key '{key}' for scenario kind '{kind}'"
            )
    for key in _KIND_REQUIRED[kind]:
        if key not in raw:
            raise ConfigError(
                f"missing required field '{key}' for scenario kind '{kind}'"
            )
    data = dict(raw)
    _validate_noise_fields(kind, data)
    _fill_defaults(kind, data)
    return ScenarioConfig(kind=kind, data=data)


def _validate_noise_fields(kind: str, data: dict):
    noise = data.get("noise")
    if noise is None:
        return
    if not isinstance(noise, dict):
        raise ConfigError("'noise' must be an object")
    if kind.startswith("track_ou"):
        legal = _OU_NOISE_KEYS
    elif kind.startswith("track_jd"):
        legal = _JD_NOISE_KEYS
    else:
        raise ConfigError(f"field 'noise' not valid for scenario kind '{kind}'")
    for key in noise:
        if key not in legal:
            raise ConfigError(
                f"noise field '{key}' not valid for scenario kind '{kind}'"
            )
    required = {"sigma"} if kind.startswith("track_ou") else {"sigma_u", "a"}
    for key in required:
        if key not in noise:
            raise ConfigError(
                f"missing noise field '{key}' for scenario kind '{kind}'"
            )


def _system_c(data: dict) -> float:
    sysd = data.get("system")
    if sysd is None:
        return 1.0
    if "name" in sysd:
        return float(sysd.get("c", 1.0))
    A = np.asarray(sysd["A"], dtype=float)
    P = np.asarray(sysd.get("P", np.eye(A.shape[0])), dtype=float)
    from .contraction import oslip_affine
    return -oslip_affine(A, validate_metric(P))


def _fill_defaults(kind: str, data: dict):
    c = _system_c(data) if kind != "gibbs" else float(data["potential"].get("c", 1.0))
    grid = dict(data.get("grid", {}))
    grid.setdefault("t0", 0.0)
    grid.setdefault("dt", default_dt(c))
    if kind == "gibbs":
        grid.setdefault("steps", int(round(200.0 / c / grid["dt"])))
    else:
        grid.setdefault("steps", int(round(10.0 / grid["dt"])))
    data["grid"] = grid
    data.setdefault("n_paths", 10_000)
    data.setdefault("master_seed", 0)
    data.setdefault("alpha_policy", "opt")
    data.setdefault("alpha_fixed", 0.5)
    data.setdefault("n_workers", 1)
    if kind == "niss_pair":
        data.setdefault("coupling", "independent")
    if kind.startswith("track_ou"):
        noise = dict(data["noise"])
        noise.setdefault("c", c)
        data["noise"] = noise
        data.setdefault("xi0", [0.0])
    if kind.startswith("track_jd"):
        noise = dict(data["noise"])
        noise.setdefault("c", c)
        noise.setdefault("unsafe", False)
        data["noise"] = noise
    if kind == "wasserstein":
        data.setdefault("p", 2)


def _build_signal(spec: dict) -> InputSignal:
    kind = spec.get("kind")
    if kind == "constant":
        return InputSignal.constant(spec["value"])
    if kind == "sinusoid":
        return InputSignal.sinusoid(
            spec["amplitude"], omega=spec.get("omega", 1.0),
            phase=spec.get("phase", 0.0), offset=spec.get("offset"),
        )
    if kind == "piecewise_linear":
        return InputSignal.piecewise_linear(spec["times"], spec["values"])
    raise ConfigError(f"unknown input signal kind '{kind}'")


def _build_system(spec: dict):
    from .core import affine_system, scalar_tracker

    if "name" in spec:
        if spec["name"] != "scalar_tracker":
            raise ConfigError(f"unknown system name '{spec['name']}'")
        return scalar_tracker(float(spec["c"]), float(spec["sigma"]))
    A = np.asarray(spec["A"], dtype=float)
    B = np.asarray(spec["B"], dtype=float)
    Sigma = np.asarray(spec["Sigma"], dtype=float)
    P = np.asarray(spec.get("P", np.eye(A.shape[0])), dtype=float)
    return affine_system(A, B, Sigma, validate_metric(P))


def _build_grid(spec: dict) -> TimeGrid:
    return TimeGrid(t0=float(spec["t0"]), dt=float(spec["dt"]), steps=int(spec["steps"]))


def _build_eq_map(spec: dict) -> EquilibriumMap:
    return EquilibriumMap.affine(spec["M"], spec.get("b"))


def _tail_max(values: np.ndarray, steps: int) -> float:
    start = steps - int(math.floor(TAIL_FRACTION * steps))
    return float(values[start:].max())


def _signal_sq_fn(fn_of_t):
    def g(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.array([float(v @ v) for v in (fn_of_t(t) for t in ts)])
    return g


def _bound_params(cfg: ScenarioConfig, cert, grid: TimeGrid):
    """Assemble envelope parameters from the certificate and the config."""
    d = cfg.data
    kind = cfg.kind
    c, ell, sx = cert.c_hat, cert.ell_hat, cert.sigma_x_sq_hat
    times = grid.times()
    metric = _build_system(d["system"]).metric
    kwargs = dict(c=c, ell=ell, sigma_x_sq=sx)
    if kind in ("niss_pair", "niss_vs_ode"):
        u_x, u_y = _build_signal(d["input_x"]), _build_signal(d["input_y"])
        x0 = np.atleast_1d(np.asarray(d["x0"], dtype=float))
        y0 = np.atleast_1d(np.asarray(d["y0"], dtype=float))
        gap = _signal_sq_fn(lambda t: u_x.value(t) - u_y.value(t))
        kwargs["E0"] = metric.norm_sq(x0 - y0)
        kwargs["input_gap_sq"] = gap
        kwargs["input_gap_sq_limsup"] = _tail_max(gap(times), grid.steps)
        return bnd.BoundParams(**kwargs)
    theta = _build_signal(d["theta"])
    eq = _build_eq_map(d["eq_map"])
    x0 = np.atleast_1d(np.asarray(d["x0"], dtype=float))
    tdot = _signal_sq_fn(theta.derivative)
    kwargs["theta_dot_sq"] = tdot
    kwargs["theta_dot_sq_limsup"] = _tail_max(tdot(times), grid.steps)
    if kind == "track_didc":
        kwargs["E0"] = metric.norm_sq(x0 - np.atleast_1d(eq.x_star(theta.value(grid.t0))))
        return bnd.BoundParams(**kwargs)
    if kind.startswith("track_ou"):
        noise = d["noise"]
        xi0 = np.atleast_1d(np.asarray(d["xi0"], dtype=float))
        kwargs["sigma_xi_sq"] = float(noise["sigma"]) ** 2
        kwargs["Exi0"] = float(xi0 @ xi0)
        kwargs["h_ou"] = 0.0  # affine equilibrium maps have zero curvature
        v0 = theta.value(grid.t0)
        if kind.endswith("sisc"):
            v0 = v0 + xi0
        kwargs["E0"] = metric.norm_sq(x0 - np.atleast_1d(eq.x_star(v0)))
        return bnd.BoundParams(**kwargs)
    noise = d["noise"]
    a = np.atleast_1d(np.asarray(noise["a"], dtype=float))
    u0 = np.atleast_1d(np.asarray(d.get("u0", theta.value(grid.t0)), dtype=float))
    kwargs["sigma_u_sq"] = float(noise["sigma_u"]) ** 2
    kwargs["a_norm_sq"] = float(a @ a)
    kwargs["Exi0"] = float((u0 - theta.value(grid.t0)) @ (u0 - theta.value(grid.t0)))
    kwargs["h_jd"] = 0.0
    v0 = u0 if kind.endswith("sisc") else theta.value(grid.t0)
    kwargs["E0"] = metric.norm_sq(x0 - np.atleast_1d(eq.x_star(v0)))
    return bnd.BoundParams(**kwargs)


def _simulate_moments(cfg: ScenarioConfig, grid: TimeGrid) -> MomentSeries:
    d = cfg.data
    kind = cfg.kind
    sys = _build_system(d["system"])
    n_paths, seed = int(d["n_paths"]), int(d["master_seed"])
    workers = int(d["n_workers"])
    if kind in ("niss_pair", "niss_vs_ode"):
        sys_y = sys
        if kind == "niss_vs_ode":
            sysd = dict(d["system"])
            if "name" in sysd:
                sysd = {"name": sysd["name"], "c": sysd["c"], "sigma": 0.0}
            else:
                sysd["Sigma"] = (np.asarray(sysd["Sigma"], dtype=float) * 0.0).tolist()
            sys_y = _build_system(sysd)
        mode = CouplingMode.COMMON if d.get("coupling") == "common" else CouplingMode.INDEPENDENT
        sc = PairScenario(
            sys_x=sys, sys_y=sys_y,
            x0=np.asarray(d["x0"], dtype=float), y0=np.asarray(d["y0"], dtype=float),
            u_x=_build_signal(d["input_x"]), u_y=_build_signal(d["input_y"]),
            mode=mode, grid=grid,
        )
        return pair_error_moment(sc, n_paths, seed, n_workers=workers)
    theta = _build_signal(d["theta"])
    eq = _build_eq_map(d["eq_map"])
    if kind.startswith("track_ou") or kind == "track_didc":
        noise_d = d.get("noise", {"c": sys.constants["c"], "sigma": 0.0})
        noise = OUParams(c=float(noise_d["c"]), sigma=float(noise_d.get("sigma", 0.0)),
                         dim=sys.input_dim)
        xi0 = np.asarray(d.get("xi0", np.zeros(sys.input_dim)), dtype=float)
    else:
        noise_d = d["noise"]
        noise = JDParams(
            c=float(noise_d["c"]), theta=theta, sigma_u=float(noise_d["sigma_u"]),
            a=np.asarray(noise_d["a"], dtype=float), unsafe=bool(noise_d.get("unsafe", False)),
        )
        xi0 = np.asarray(d.get("u0", theta.value(grid.t0)), dtype=float)
    sc = CascadeScenario(noise=noise, theta=theta, sys=sys,
                         x0=np.asarray(d["x0"], dtype=float), xi0=xi0, grid=grid)
    target = "stochastic_curve" if kind.endswith("sisc") else "deterministic_curve"
    return tracking_error_moment(sc, eq, target, n_paths, seed, n_workers=workers)


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(paths, header, rows):
    """Format the CSV text once and write it to each of ``paths``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) if isinstance(v, (int, float, np.floating)) else v
                    for v in row])
    for path in paths:
        path.write_text(buf.getvalue(), encoding="utf-8", newline="")


def resolve_output_dir(cfg: ScenarioConfig, override: Optional[str], stem: str) -> Path:
    base = override or cfg.data.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV) or "."
    return Path(base) / stem


def run_scenario(cfg: ScenarioConfig, out_dir: Path, dry_run: bool = False) -> Verdict:
    """Execute one scenario and write its report bundle into out_dir.

    On any failure, files created by this run are removed before the error
    propagates.
    """
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_scenario_inner(cfg, out_dir, dry_run)
    except Exception:
        if created:
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            for name in ("certificate.json", "moments.csv", "wasserstein.csv",
                         "envelope.csv", "verdict.json", "plotdata.csv", "gibbs.csv"):
                try:
                    (out_dir / name).unlink()
                except FileNotFoundError:
                    pass
        raise


def _run_scenario_inner(cfg: ScenarioConfig, out_dir: Path, dry_run: bool) -> Verdict:
    if cfg.kind == "gibbs":
        return _run_gibbs(cfg, out_dir, dry_run)
    if cfg.kind == "wasserstein":
        return _run_wasserstein(cfg, out_dir, dry_run)
    d = cfg.data
    grid = _build_grid(d["grid"])
    sysd = d["system"]
    if "name" in sysd:
        sys = _build_system(sysd)
        A = [[-sys.constants["c"]]]
        B = [[sys.constants["c"]]]
        Sigma = np.atleast_2d(sys.dispersion_matrix)
        P = sys.metric.P
    else:
        A, B = sysd["A"], sysd["B"]
        Sigma = sysd["Sigma"]
        P = np.asarray(sysd.get("P", np.eye(np.asarray(A).shape[0])), dtype=float)
    cert = certify_affine(A, B, Sigma, validate_metric(P))
    (out_dir / "certificate.json").write_text(cert.to_json() + "\n", encoding="utf-8")
    if dry_run:
        (out_dir / "verdict.json").write_text(json.dumps(
            {"dry_run": True, "scenario_kind": cfg.kind}, indent=2) + "\n",
            encoding="utf-8")
        return Verdict(holds=True, worst_margin=math.inf, worst_t=grid.t0,
                       slack_rule="dry run: no simulation")

    params = _bound_params(cfg, cert, grid)
    env = bnd.make_envelope(_ENVELOPE_KIND[cfg.kind], params)
    series = _simulate_moments(cfg, grid)
    times = series.times()
    a_fixed = float(d["alpha_fixed"])
    a_opt = _resolve_alpha(env, "optimized", grid)
    elapsed = times - grid.t0
    bound_fixed = env.eval_grid(elapsed, a_fixed)
    bound_opt = env.eval_grid(elapsed, a_opt)
    policy = "optimized" if d["alpha_policy"] == "opt" else ("fixed", float(d["alpha_policy"]))
    verdict = check_envelope(
        MomentSeries(grid=TimeGrid(0.0, grid.dt, grid.steps), mean_sq=series.mean_sq,
                     std_err=series.std_err, n_paths=series.n_paths),
        env, policy,
    )

    header = ["t", "mean_sq", "std_err", "bound_fixed_alpha", "bound_opt_alpha"]
    rows = zip(times, series.mean_sq, series.std_err, bound_fixed, bound_opt)
    _write_csv([out_dir / "moments.csv", out_dir / "plotdata.csv"], header, rows)
    env_rows = [(t, a_fixed, b) for t, b in zip(times, bound_fixed)]
    env_rows += [(t, a_opt, b) for t, b in zip(times, bound_opt)]
    _write_csv([out_dir / "envelope.csv"], ["t", "alpha", "bound"], env_rows)
    _write_verdict(out_dir, cfg, verdict, extra={
        "alpha_fixed": a_fixed, "alpha_optimized": a_opt,
    })
    return verdict


def _run_wasserstein(cfg: ScenarioConfig, out_dir: Path, dry_run: bool) -> Verdict:
    d = cfg.data
    grid = _build_grid(d["grid"])
    sys = _build_system(d["system"])
    sysd = d["system"]
    if "name" in sysd:
        cert = certify_affine([[-sys.constants["c"]]], [[sys.constants["c"]]],
                              np.atleast_2d(sys.dispersion_matrix), sys.metric)
    else:
        cert = certify_affine(sysd["A"], sysd["B"], sysd["Sigma"], sys.metric)
    (out_dir / "certificate.json").write_text(cert.to_json() + "\n", encoding="utf-8")
    if dry_run:
        (out_dir / "verdict.json").write_text(json.dumps(
            {"dry_run": True, "scenario_kind": cfg.kind}, indent=2) + "\n",
            encoding="utf-8")
        return Verdict(holds=True, worst_margin=math.inf, worst_t=grid.t0,
                       slack_rule="dry run: no simulation")
    cloud = d["cloud"]
    k = int(cloud["k"])
    n = sys.state_dim
    seed = int(d["master_seed"])
    rx = RngLineage(seed, 1 << 32).stream()
    ry = RngLineage(seed, (1 << 32) + 1).stream()
    x0 = np.asarray(cloud.get("mean_x", np.zeros(n)), dtype=float) + \
        float(cloud.get("std", 1.0)) * rx.standard_normal((k, n))
    y0 = np.asarray(cloud.get("mean_y", np.zeros(n)), dtype=float) + \
        float(cloud.get("std", 1.0)) * ry.standard_normal((k, n))
    sc = WassersteinScenario(
        sys_x=sys, sys_y=sys, x0_samples=x0, y0_samples=y0,
        u_x=_build_signal(d["input_x"]), u_y=_build_signal(d["input_y"]), grid=grid,
    )
    p = math.inf if d["p"] in ("inf", math.inf) else float(d["p"])
    workers = int(d["n_workers"])
    times, w_emp, env = wasserstein_series(sc, p, seed, n_workers=workers)
    verdict = _wasserstein_verdict(times, w_emp, env, k)
    _write_csv([out_dir / "wasserstein.csv", out_dir / "plotdata.csv"],
               ["t", "w_p_empirical", "envelope"], zip(times, w_emp, env))
    _write_verdict(out_dir, cfg, verdict, extra={"p": d["p"], "k": k})
    return verdict


def _gibbs_potential(spec: dict):
    kind = spec.get("kind")
    if kind == "quadratic":
        cpot = float(spec.get("c", 1.0))
        return (lambda x: 0.5 * cpot * x * x), (lambda x: cpot * x), cpot
    if kind == "quartic":
        return (lambda x: 0.25 * x**4), (lambda x: x**3), 1.0
    raise ConfigError(f"unknown potential kind '{kind}'")


def _run_gibbs(cfg: ScenarioConfig, out_dir: Path, dry_run: bool) -> Verdict:
    d = cfg.data
    grid = _build_grid(d["grid"])
    f, grad_f, cpot = _gibbs_potential(d["potential"])
    sigma = float(d["sigma"])
    (out_dir / "certificate.json").write_text(json.dumps(
        {"potential": d["potential"], "sigma": sigma,
         "stationary_variance_quadratic": sigma**2 / (2.0 * cpot)},
        indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if dry_run:
        (out_dir / "verdict.json").write_text(json.dumps(
            {"dry_run": True, "scenario_kind": cfg.kind}, indent=2) + "\n",
            encoding="utf-8")
        return Verdict(holds=True, worst_margin=math.inf, worst_t=grid.t0,
                       slack_rule="dry run: no simulation")
    rng = RngLineage(int(d["master_seed"]), 0).stream()
    x = 0.0
    sq_dt = math.sqrt(grid.dt)
    xs = np.empty(grid.steps + 1)
    xs[0] = x
    noise = rng.standard_normal(grid.steps)
    for kk in range(grid.steps):
        x = x - grad_f(x) * grid.dt + sigma * sq_dt * noise[kk]
        xs[kk + 1] = x
    burn = int(round(10.0 / cpot / grid.dt))
    stride = max(int(round(1.0 / grid.dt)), 1)
    samples = xs[burn::stride]
    span = 6.0 * sigma / math.sqrt(2.0 * cpot)
    grid1d = np.linspace(-span, span, 2001)
    res = gibbs_check(f, grad_f, sigma, samples, grid1d)
    crit = 1.63 / math.sqrt(samples.shape[0])  # 1% KS critical value
    holds = res["ks_stat"] <= crit
    density = gibbs_density(f, sigma, grid1d)
    _write_csv([out_dir / "gibbs.csv", out_dir / "plotdata.csv"], ["x", "density_model"],
               zip(grid1d, density))
    verdict = Verdict(holds=bool(holds),
                      worst_margin=float(crit - res["ks_stat"]) / crit,
                      worst_t=grid.horizon,
                      slack_rule=f"KS statistic <= 1% critical value {crit:.4g}")
    _write_verdict(out_dir, cfg, verdict, extra={
        "ks_stat": res["ks_stat"], "residual": res["residual"],
        "n_samples": int(samples.shape[0]),
    })
    return verdict


def _write_verdict(out_dir: Path, cfg: ScenarioConfig, verdict: Verdict, extra=None):
    payload = {
        "scenario_kind": cfg.kind,
        "holds": verdict.holds,
        "worst_margin": verdict.worst_margin,
        "worst_t": verdict.worst_t,
        "slack_rule": verdict.slack_rule,
    }
    if extra:
        payload.update(extra)
    (out_dir / "verdict.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

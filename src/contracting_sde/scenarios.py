"""Scenario configuration, validation, and report-bundle execution.

A scenario config is a JSON object (UTF-8 text) describing one experiment:
the system, its inputs or tracking target, the noise model, the time grid,
and the ensemble size. ``run_scenario`` executes it and writes a report
bundle (certificate, empirical series, envelope table, verdict, plot data)
into one directory; the verdict drives the process exit code.

A moment run translates its config once, into the ``PairScenario`` or
``CascadeScenario`` it simulates; the envelope's inputs are read from that
object and from the system's certificate.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import bounds as bnd
from .core import (
    EquilibriumMap,
    InputSignal,
    SystemSpec,
    TimeGrid,
    _row_norm_sq,
    affine_system,
    scalar_tracker,
    validate_metric,
)
from .errors import ConfigError
from .integrate import CouplingMode, default_dt
from .montecarlo import (
    CascadeScenario,
    PairScenario,
    Verdict,
    _resolve_alpha,
    compare_to_bound,
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

_COMMON_KEYS = {
    "scenario_kind", "grid", "n_paths", "master_seed", "alpha_policy",
    "output_dir", "n_workers",
}
_PAIR = ("system", "input_x", "input_y")
_TRACK = ("system", "theta", "x0", "eq_map")
_KIND_KEYS = {  # kind -> (required keys, optional keys)
    "niss_pair": ({*_PAIR, "x0", "y0"}, {"coupling"}),
    "niss_vs_ode": ({*_PAIR, "x0", "y0"}, set()),
    "track_didc": (set(_TRACK), set()),
    "track_ou_sidc": ({*_TRACK, "noise"}, {"xi0"}),
    "track_ou_sisc": ({*_TRACK, "noise"}, {"xi0"}),
    "track_jd_sidc": ({*_TRACK, "noise"}, {"u0"}),
    "track_jd_sisc": ({*_TRACK, "noise"}, {"u0"}),
    "wasserstein": ({*_PAIR, "cloud"}, {"p"}),
    "gibbs": ({"potential", "sigma"}, set()),
}
KINDS = tuple(_KIND_KEYS)
_OU_NOISE_KEYS = {"c", "sigma"}
_JD_NOISE_KEYS = {"c", "sigma_u", "a", "theta_is_target", "unsafe"}

# the fixed-alpha column of a moment bundle run under the "opt" policy
_OPT_FIXED_ALPHA = 0.5

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
    required, optional = _KIND_KEYS[kind]
    for key in raw:
        if key not in _COMMON_KEYS | required | optional:
            raise ConfigError(
                f"unknown key '{key}' for scenario kind '{kind}'"
            )
    for key in required:
        if key not in raw:
            raise ConfigError(
                f"missing required field '{key}' for scenario kind '{kind}'"
            )
    data = dict(raw)
    _validate_noise_fields(kind, data)
    _fill_defaults(kind, data)
    _validate_policy_fields(kind, data)
    return ScenarioConfig(kind=kind, data=data)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _validate_policy_fields(kind: str, data: dict):
    """Reject an alpha policy or a W_p order that the run would reject only
    after simulating."""
    alpha = data["alpha_policy"]
    if alpha != "opt" and not (_is_number(alpha) and 0.0 < alpha < 1.0):
        raise ConfigError(f"'alpha_policy' must be \"opt\" or lie in (0, 1), got {alpha!r}")
    if kind == "wasserstein":
        p = data["p"]
        if p != "inf" and not (_is_number(p) and p >= 1.0):
            raise ConfigError(f"'p' must be a number >= 1 or \"inf\", got {p!r}")


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


def _fill_defaults(kind: str, data: dict):
    if kind == "gibbs":
        c = float(data["potential"].get("c", 1.0))
    else:
        sys = _build_system(data["system"])
        c = sys.certificate.c_hat
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
    data.setdefault("n_workers", 1)
    if kind == "niss_pair":
        data.setdefault("coupling", "independent")
    if kind.startswith("track_ou"):
        noise = dict(data["noise"])
        noise.setdefault("c", c)
        data["noise"] = noise
        data.setdefault("xi0", [0.0] * sys.input_dim)
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


def _build_system(spec) -> SystemSpec:
    """The config's certified system; a missing or malformed field raises
    ConfigError, a drift that does not contract CertificationError."""
    if not isinstance(spec, dict):
        raise ConfigError("'system' must be an object")
    if "name" in spec and spec["name"] != "scalar_tracker":
        raise ConfigError(f"unknown system name '{spec['name']}'")
    try:
        if "name" in spec:
            return scalar_tracker(float(spec["c"]), float(spec["sigma"]))
        A = np.asarray(spec["A"], dtype=float)
        B = np.asarray(spec["B"], dtype=float)
        Sigma = np.asarray(spec["Sigma"], dtype=float)
        P = np.asarray(spec.get("P", np.eye(A.shape[0])), dtype=float)
        return affine_system(A, B, Sigma, validate_metric(P))
    except KeyError as exc:
        raise ConfigError(f"missing system field {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"invalid system: {exc}") from exc


def _build_grid(spec: dict) -> TimeGrid:
    return TimeGrid(t0=float(spec["t0"]), dt=float(spec["dt"]), steps=int(spec["steps"]))


def _build_eq_map(spec: dict) -> EquilibriumMap:
    return EquilibriumMap.affine(spec["M"], spec.get("b"))


def _tail_max(values: np.ndarray, steps: int) -> float:
    start = steps - int(math.floor(TAIL_FRACTION * steps))
    return float(values[start:].max())


def _moment_scenario(cfg: ScenarioConfig, grid: TimeGrid, sys: SystemSpec):
    """The scenario a moment run simulates, with its equilibrium map: a
    PairScenario and None, or a CascadeScenario and its map. ``track_didc``
    runs an OU input with sigma = 0 from xi0 = 0."""
    d = cfg.data
    x0 = np.asarray(d["x0"], dtype=float)
    if cfg.kind in ("niss_pair", "niss_vs_ode"):
        sys_y = sys
        if cfg.kind == "niss_vs_ode":
            sys_y = affine_system(*sys.affine, sys.dispersion_matrix * 0.0, sys.metric)
        mode = CouplingMode.COMMON if d.get("coupling") == "common" else CouplingMode.INDEPENDENT
        return PairScenario(
            sys_x=sys, sys_y=sys_y, x0=x0, y0=np.asarray(d["y0"], dtype=float),
            u_x=_build_signal(d["input_x"]), u_y=_build_signal(d["input_y"]),
            mode=mode, grid=grid,
        ), None
    theta = _build_signal(d["theta"])
    if cfg.kind.startswith("track_jd"):
        nd = d["noise"]
        noise = JDParams(c=float(nd["c"]), theta=theta, sigma_u=float(nd["sigma_u"]),
                         a=np.asarray(nd["a"], dtype=float), unsafe=bool(nd["unsafe"]))
        xi0 = np.asarray(d.get("u0", theta.value(grid.t0)), dtype=float)
    else:
        nd = d.get("noise", {"c": sys.certificate.c_hat, "sigma": 0.0})
        noise = OUParams(c=float(nd["c"]), sigma=float(nd["sigma"]), dim=sys.input_dim)
        xi0 = np.asarray(d.get("xi0", np.zeros(sys.input_dim)), dtype=float)
    sc = CascadeScenario(noise=noise, theta=theta, sys=sys, x0=x0, xi0=xi0, grid=grid)
    return sc, _build_eq_map(d["eq_map"])


def _bound_params(kind: str, sc, eq) -> bnd.BoundParams:
    """Envelope parameters of the scenario ``sc`` that the run simulates."""
    grid = sc.grid
    times = grid.times()
    sys = sc.sys_x if eq is None else sc.sys
    cert = sys.certificate
    kwargs = dict(c=cert.c_hat, ell=cert.ell_hat, sigma_x_sq=cert.sigma_x_sq_hat)
    if eq is None:
        gap = lambda ts: _row_norm_sq(sc.u_x.value(ts) - sc.u_y.value(ts))
        return bnd.BoundParams(
            **kwargs, E0=sys.metric.norm_sq(np.atleast_1d(sc.x0 - sc.y0)),
            input_gap_sq=gap, input_gap_sq_limsup=_tail_max(gap(times), grid.steps))
    tdot = lambda ts: _row_norm_sq(sc.theta.derivative(ts))
    kwargs.update(theta_dot_sq=tdot, theta_dot_sq_limsup=_tail_max(tdot(times), grid.steps))
    # h_ou = h_jd = 0: affine equilibrium maps have zero curvature
    th0 = sc.theta.value(grid.t0)
    xi0, noise = np.atleast_1d(sc.xi0), sc.noise
    if isinstance(noise, OUParams):
        kwargs.update(sigma_xi_sq=noise.sigma**2, Exi0=float(xi0 @ xi0))
        v0 = th0 + xi0 if kind.endswith("sisc") else th0
    else:  # JD: xi0 is the initial input u0
        kwargs.update(sigma_u_sq=noise.sigma_u**2, a_norm_sq=float(noise.a @ noise.a),
                      Exi0=float((xi0 - th0) @ (xi0 - th0)))
        v0 = xi0 if kind.endswith("sisc") else th0
    E0 = sys.metric.norm_sq(np.atleast_1d(sc.x0) - np.atleast_1d(eq.x_star(v0)))
    return bnd.BoundParams(**kwargs, E0=E0)


def _write_csv(paths, header, cols):
    """Format the CSV text of the equal-length columns ``cols`` once, each
    value as its shortest round-trip repr, and write it to each of ``paths``."""
    rows = np.column_stack(cols).tolist()
    text = "\n".join([",".join(header), *(",".join(map(repr, r)) for r in rows)]) + "\n"
    for path in paths:
        path.write_text(text, encoding="utf-8", newline="")


def resolve_output_dir(cfg: ScenarioConfig, override: Optional[str], stem: str) -> Path:
    base = override or cfg.data.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV) or "."
    return Path(base) / stem


def run_scenario(cfg: ScenarioConfig, out_dir: Union[str, os.PathLike],
                 dry_run: bool = False) -> Verdict:
    """Execute one scenario and write its report bundle into out_dir.

    The bundle is written into a temporary directory beside out_dir, which
    replaces the whole of out_dir only once the run has succeeded: a failed
    run leaves out_dir as it was, and a successful one leaves no file of an
    earlier bundle behind.
    """
    out_dir = Path(out_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{out_dir.name}.", dir=out_dir.parent) as tmp:
        bundle = Path(tmp) / "bundle"
        bundle.mkdir()
        verdict = _run_scenario_inner(cfg, bundle, dry_run)
        if out_dir.exists():
            out_dir.rename(Path(tmp) / "old")  # removed with the temporary directory
        bundle.rename(out_dir)
    return verdict


def _run_scenario_inner(cfg: ScenarioConfig, out_dir: Path, dry_run: bool) -> Verdict:
    d = cfg.data
    grid = _build_grid(d["grid"])
    if cfg.kind == "gibbs":
        potential = _gibbs_potential(d["potential"])
        sigma = float(d["sigma"])
        certificate = json.dumps(
            {"potential": d["potential"], "sigma": sigma,
             "stationary_variance_quadratic": sigma**2 / (2.0 * potential[2])},
            indent=2, sort_keys=True)
    else:
        sys = _build_system(d["system"])
        certificate = sys.certificate.to_json()
    (out_dir / "certificate.json").write_text(certificate + "\n", encoding="utf-8")
    if dry_run:
        (out_dir / "verdict.json").write_text(json.dumps(
            {"dry_run": True, "scenario_kind": cfg.kind}, indent=2) + "\n",
            encoding="utf-8")
        return Verdict(holds=True, worst_margin=math.inf, worst_t=grid.t0,
                       slack_rule="dry run: no simulation")
    if cfg.kind == "gibbs":
        return _run_gibbs(cfg, out_dir, grid, potential)
    if cfg.kind == "wasserstein":
        return _run_wasserstein(cfg, out_dir, grid, sys)
    return _run_moments(cfg, out_dir, grid, sys)


def _run_moments(cfg: ScenarioConfig, out_dir: Path, grid: TimeGrid, sys) -> Verdict:
    d = cfg.data
    sc, eq = _moment_scenario(cfg, grid, sys)
    env = bnd.make_envelope("niss_two_traj" if cfg.kind == "niss_pair" else cfg.kind,
                            _bound_params(cfg.kind, sc, eq))
    n_paths, seed, workers = int(d["n_paths"]), int(d["master_seed"]), int(d["n_workers"])
    if eq is None:
        series = pair_error_moment(sc, n_paths, seed, n_workers=workers)
    else:
        target = "stochastic_curve" if cfg.kind.endswith("sisc") else "deterministic_curve"
        series = tracking_error_moment(sc, eq, target, n_paths, seed, n_workers=workers)
    times = series.times()
    # a fixed policy's alpha has the fixed column; "opt" judges the optimized one
    opt = d["alpha_policy"] == "opt"
    a_fixed = _OPT_FIXED_ALPHA if opt else float(d["alpha_policy"])
    a_opt = _resolve_alpha(env, "optimized", grid)
    elapsed = times - grid.t0
    bound_fixed = env.eval_grid(elapsed, a_fixed)
    bound_opt = env.eval_grid(elapsed, a_opt)
    verdict = compare_to_bound(series, bound_opt if opt else bound_fixed)

    header = ["t", "mean_sq", "std_err", "bound_fixed_alpha", "bound_opt_alpha"]
    cols = (times, series.mean_sq, series.std_err, bound_fixed, bound_opt)
    _write_csv([out_dir / "moments.csv", out_dir / "plotdata.csv"], header, cols)
    _write_csv([out_dir / "envelope.csv"], ["t", "alpha", "bound"], (
        np.concatenate([times, times]), np.repeat([a_fixed, a_opt], len(times)),
        np.concatenate([bound_fixed, bound_opt])))
    _write_verdict(out_dir, cfg, verdict, extra={
        "alpha_fixed": a_fixed, "alpha_optimized": a_opt,
    })
    return verdict


def _run_wasserstein(cfg: ScenarioConfig, out_dir: Path, grid: TimeGrid, sys) -> Verdict:
    d = cfg.data
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
               ["t", "w_p_empirical", "envelope"], (times, w_emp, env))
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


def _run_gibbs(cfg: ScenarioConfig, out_dir: Path, grid: TimeGrid, potential) -> Verdict:
    d = cfg.data
    f, grad_f, cpot = potential
    sigma = float(d["sigma"])
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
               (grid1d, density))
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

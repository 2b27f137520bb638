"""Scenario configuration, validation, and report-bundle execution.

A scenario config is a JSON object (UTF-8 text) describing one experiment:
the system, its inputs or tracking target, the noise model, the time grid,
and the ensemble size. ``run_scenario`` executes it and writes a report
bundle (certificate, empirical series, envelope table, verdict, plot data)
into one directory; the verdict drives the process exit code.

A config is checked and built once, when its ``ScenarioConfig`` is made:
one builder, ``_build``, reads each field through a ``_Fields`` reader,
which fills a missing field's default into the data and rejects every key
of an object that nothing read. So a config that parses also runs, and
``run_scenario`` runs what that build made without certifying again.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from . import bounds as bnd
from .core import (
    EquilibriumMap,
    InputSignal,
    SystemSpec,
    TimeGrid,
    _boolean,
    _integer,
    _real,
    _row_norm_sq,
    affine_system,
    scalar_tracker,
    validate_metric,
)
from .errors import ConfigError, DivergenceError
from .integrate import CouplingMode, default_dt
from .montecarlo import (
    _MIN_PATHS,
    CascadeScenario,
    PairScenario,
    Verdict,
    _resolve_alpha,
    _tail,
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

KINDS = ("niss_pair", "niss_vs_ode", "track_didc", "track_ou_sidc", "track_ou_sisc",
         "track_jd_sidc", "track_jd_sisc", "wasserstein", "gibbs")

# the fixed-alpha column of a moment bundle run under the "opt" policy
_OPT_FIXED_ALPHA = 0.5

TAIL_FRACTION = 0.2  # window used to operationalize long-run suprema

_REQUIRED = object()


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario's kind and normalized data, checked and built when made:
    each missing default is filled into ``data``, and a bad field raises
    ConfigError. ``run_scenario`` runs that build; another config is a new
    ``ScenarioConfig``."""

    kind: str
    data: dict

    def __post_init__(self):
        if not isinstance(self.data, dict):
            raise ConfigError("config must be a JSON object")
        kind = self.data.get("scenario_kind")
        if kind is None:
            raise ConfigError("missing required field 'scenario_kind'")
        if kind not in KINDS:
            raise ConfigError(
                f"unknown scenario kind '{kind}'; expected one of {', '.join(KINDS)}"
            )
        if kind != self.kind:
            raise ConfigError(f"'scenario_kind' is '{kind}', not the config's kind '{self.kind}'")
        object.__setattr__(self, "_run", _build(kind, self.data))  # not a field: out of == and repr

    def serialize(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    """Parse a JSON scenario config and build it; fill every default."""
    return _from_text(text, {})


def _from_text(text: str, overrides: dict) -> ScenarioConfig:
    """The config of a JSON text with each override that is not None set as its key."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    kind = None
    if isinstance(data, dict):  # ScenarioConfig refuses any other value
        data.update((key, value) for key, value in overrides.items() if value is not None)
        kind = data.get("scenario_kind")
    return ScenarioConfig(kind, data)


class _Fields:
    """Reader of one object of a config. ``get`` reads a key, filling a
    missing key's default into the object (a default of None is left out)
    and converting the value with ``conv``; ``done`` rejects every key that
    nothing read."""

    def __init__(self, data, kind: str, name: Optional[str] = None):
        if not isinstance(data, dict):
            raise ConfigError(f"'{name}' must be an object")
        self.data, self.kind, self.name, self.read = data, kind, name, set()

    def get(self, key: str, default=_REQUIRED, conv=lambda v: v):
        self.read.add(key)
        if key not in self.data:
            if default is _REQUIRED:
                field = f"{self.name} field" if self.name else "required field"
                raise ConfigError(f"missing {field} '{key}' for scenario kind '{self.kind}'")
            if default is None:
                return None
            self.data[key] = default
        try:
            return conv(self.data[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {self.name or 'config'} field '{key}': {exc}") from exc

    def obj(self, key: str, default=_REQUIRED) -> "_Fields":
        """The reader of the object at ``key``."""
        return _Fields(self.get(key, default), self.kind, key)

    @contextmanager
    def building(self):
        """Re-raise a bad value that a constructor meets while building
        this object as a ConfigError naming the object."""
        try:
            yield
        except ConfigError:
            raise
        except (TypeError, ValueError, IndexError, ArithmeticError) as exc:
            raise ConfigError(f"invalid {self.name}: {exc}") from exc

    def done(self):
        for key in self.data:
            if key not in self.read:
                raise ConfigError(
                    f"{self.name} field '{key}' not valid for scenario kind '{self.kind}'"
                    if self.name else f"unknown key '{key}' for scenario kind '{self.kind}'")


_array = partial(_real, array=True)  # the conversion of a field to a float array


def _vector(n: int):
    """The conversion of a field to an (n,) float vector."""
    return lambda v: _array(v).reshape(n)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class _Run:
    """What one run of a config uses: its grid, the maker of its
    certificate's text, the scenario it simulates and the run settings."""

    kind: str
    grid: TimeGrid
    certificate: Callable[[], str]
    # a PairScenario or CascadeScenario, a WassersteinScenario, or for
    # "gibbs" the potential's (f, grad f, curvature) and sigma
    scenario: object
    eq: Optional[EquilibriumMap] = None  # a tracking run's equilibrium map
    seed: int = 0
    n_paths: int = 0
    alpha: Union[str, float, None] = None  # a moment run's alpha policy
    p: Union[str, float, None] = None  # the W_p order as written: a number >= 1 or "inf"


def _build(kind: str, data: dict) -> _Run:
    """Read every field of a config's ``data``, filling each missing
    default into it, and build what a run of it uses."""
    top = _Fields(data, kind)
    top.get("scenario_kind")
    top.get("output_dir", None)
    seed = top.get("master_seed", 0, _integer)
    if kind == "gibbs":
        pot = top.obj("potential")
        potential = _gibbs_potential(pot)
        c = potential[2]
    else:
        sys = _build_system(top.obj("system"))
        c = sys.certificate.c_hat
    g = top.obj("grid", {})
    with g.building():
        dt = g.get("dt", default_dt(c), _real)
        TimeGrid(0.0, dt, 0)  # checks dt before the default steps divide by it
        steps = g.get("steps", int(round((200.0 / c if kind == "gibbs" else 10.0) / dt)))
        grid = TimeGrid(t0=g.get("t0", 0.0, _real), dt=dt, steps=steps)
    g.done()
    if kind == "gibbs":
        sigma = top.get("sigma", conv=_real)
        top.done()
        certificate = lambda: json.dumps(
            {"potential": pot.data, "sigma": sigma,
             "stationary_variance_quadratic": sigma**2 / (2.0 * c)},
            indent=2, sort_keys=True)
        return _Run(kind, grid, certificate, (*potential, sigma), seed=seed)

    top.get("n_workers", 1, _integer)  # accepted, with no effect: chunks run serially
    if kind == "wasserstein":
        n = sys.state_dim
        u_x, u_y = _signal(top, "input_x", sys), _signal(top, "input_y", sys)
        cloud = top.obj("cloud")
        k, std = cloud.get("k", conv=_integer), cloud.get("std", 1.0, _real)
        with cloud.building():  # the scenario checks the clouds it is given
            x0, y0 = (cloud.get(key, [0.0] * n, _vector(n))
                      + std * RngLineage(seed, path).stream().standard_normal((k, n))
                      for key, path in (("mean_x", 1 << 32), ("mean_y", (1 << 32) + 1)))
            sc = WassersteinScenario(sys_x=sys, sys_y=sys, x0_samples=x0, y0_samples=y0,
                                     u_x=u_x, u_y=u_y, grid=grid)
        cloud.done()
        p = top.get("p", 2)
        if p != "inf" and not (_is_number(p) and p >= 1.0):
            raise ConfigError(f"'p' must be a number >= 1 or \"inf\", got {p!r}")
        top.done()
        return _Run(kind, grid, sys.certificate.to_json, sc, seed=seed, p=p)
    n_paths = top.get("n_paths", 10_000, _integer)
    if n_paths < _MIN_PATHS:
        raise ConfigError(f"'n_paths' must be >= {_MIN_PATHS}, got {n_paths}")
    alpha = top.get("alpha_policy", "opt")
    if alpha != "opt" and not (_is_number(alpha) and 0.0 < alpha < 1.0):
        raise ConfigError(f"'alpha_policy' must be \"opt\" or lie in (0, 1), got {alpha!r}")
    sc, eq = _moment_scenario(kind, top, sys, grid)
    top.done()
    return _Run(kind, grid, sys.certificate.to_json, sc, eq, seed=seed, n_paths=n_paths,
                alpha=alpha)


def _moment_scenario(kind: str, top: _Fields, sys: SystemSpec, grid: TimeGrid):
    """The scenario a moment run simulates, with its equilibrium map: a
    PairScenario and None, or a CascadeScenario and its map. ``track_didc``
    runs an OU input with sigma = 0 from xi0 = 0."""
    n, m = sys.state_dim, sys.input_dim
    x0 = top.get("x0", conv=_vector(n))
    if kind in ("niss_pair", "niss_vs_ode"):
        if kind == "niss_pair":
            sys_y, mode = sys, top.get("coupling", "independent", CouplingMode)
        else:
            sys_y = affine_system(*sys.affine, sys.dispersion_matrix * 0.0, sys.metric)
            mode = CouplingMode.INDEPENDENT
        return PairScenario(
            sys_x=sys, sys_y=sys_y, x0=x0, y0=top.get("y0", conv=_vector(n)),
            u_x=_signal(top, "input_x", sys), u_y=_signal(top, "input_y", sys),
            mode=mode, grid=grid,
        ), None
    theta = _signal(top, "theta", sys)
    f = top.obj("eq_map")
    with f.building():
        eq = EquilibriumMap.affine(f.get("M", conv=_array), f.get("b", None, _array))
    f.done()
    if (eq.state_dim, eq.input_dim) != (n, m):
        raise ConfigError(f"'eq_map' must map the system's {m} inputs to its {n} states")
    if kind == "track_didc":
        noise, xi0 = OUParams(c=sys.certificate.c_hat, sigma=0.0, dim=m), np.zeros(m)
    else:
        f = top.obj("noise")
        c = f.get("c", sys.certificate.c_hat, _real)
        with f.building():
            if kind.startswith("track_ou"):
                noise = OUParams(c=c, sigma=f.get("sigma", conv=_real), dim=m)
                xi0 = top.get("xi0", [0.0] * m, _vector(m))
            else:  # JD: xi0 is the initial input u0
                noise = JDParams(c=c, theta=theta, sigma_u=f.get("sigma_u", conv=_real),
                                 a=f.get("a", conv=_array), unsafe=f.get("unsafe", False, _boolean))
                xi0 = top.get("u0", theta.value(grid.t0).tolist(), _vector(m))
        f.done()
    return CascadeScenario(noise=noise, theta=theta, sys=sys, x0=x0, xi0=xi0, grid=grid), eq


def _signal(top: _Fields, key: str, sys: SystemSpec) -> InputSignal:
    """The signal at ``key``, with one component per input of the system."""
    sig = _build_signal(top.obj(key))
    if sig.dim != sys.input_dim:
        raise ConfigError(f"'{key}' has {sig.dim} components, not the system's {sys.input_dim}")
    return sig


def _build_signal(f: _Fields) -> InputSignal:
    kind = f.get("kind")
    with f.building():
        if kind == "constant":
            sig = InputSignal.constant(f.get("value", conv=_array))
        elif kind == "sinusoid":
            sig = InputSignal.sinusoid(
                f.get("amplitude", conv=_array), omega=f.get("omega", 1.0, _real),
                phase=f.get("phase", 0.0, _real), offset=f.get("offset", None, _array))
        elif kind == "piecewise_linear":
            sig = InputSignal.piecewise_linear(f.get("times", conv=_array),
                                               f.get("values", conv=_array))
        else:
            raise ConfigError(f"unknown input signal kind '{kind}'")
    f.done()
    return sig


def _build_system(f: _Fields) -> SystemSpec:
    """The config's certified system; a missing or malformed field raises
    ConfigError, a drift that does not contract CertificationError."""
    name = f.get("name", None)
    if name not in (None, "scalar_tracker"):
        raise ConfigError(f"unknown system name '{name}'")
    if name is None:
        A, B, Sigma = (f.get(key, conv=_array) for key in ("A", "B", "Sigma"))
        P = f.get("P", np.eye(A.shape[0] if A.ndim else 0).tolist(), _array)
    else:
        c, sigma = f.get("c", conv=_real), f.get("sigma", conv=_real)
    f.done()
    with f.building():
        return scalar_tracker(c, sigma) if name else affine_system(A, B, Sigma, validate_metric(P))


def _gibbs_potential(f: _Fields):
    """(f, grad f, curvature c) of the config's potential."""
    kind = f.get("kind")
    if kind == "quadratic":
        cpot = f.get("c", 1.0, _real)
        if not (math.isfinite(cpot) and cpot > 0.0):  # before default_dt(c) divides by it
            raise ConfigError(f"invalid potential field 'c': the curvature must be "
                              f"positive and finite, got {cpot!r}")
        pot = (lambda x: 0.5 * cpot * x * x), (lambda x: cpot * x), cpot
    elif kind == "quartic":
        pot = (lambda x: 0.25 * x**4), (lambda x: x**3), 1.0
    else:
        raise ConfigError(f"unknown potential kind '{kind}'")
    f.done()
    return pot


def _bound_params(kind: str, sc, eq) -> bnd.BoundParams:
    """Envelope parameters of the scenario ``sc`` that the run simulates."""
    grid = sc.grid
    times = grid.times()
    sys = sc.sys_x if eq is None else sc.sys
    cert = sys.certificate
    kwargs = dict(c=cert.c_hat, ell=cert.ell_hat, sigma_x_sq=cert.sigma_x_sq_hat)
    tail_max = lambda v: float(_tail(v, grid.steps, TAIL_FRACTION, min_steps=0).max())
    if eq is None:
        gap = lambda ts: _row_norm_sq(sc.u_x.value(ts) - sc.u_y.value(ts))
        return bnd.BoundParams(
            **kwargs, E0=sys.metric.norm_sq(sc.x0 - sc.y0),
            input_gap_sq=gap, input_gap_sq_limsup=tail_max(gap(times)))
    tdot = lambda ts: _row_norm_sq(sc.theta.derivative(ts))
    kwargs.update(theta_dot_sq=tdot, theta_dot_sq_limsup=tail_max(tdot(times)))
    # h_ou = h_jd = 0: affine equilibrium maps have zero curvature
    th0 = sc.theta.value(grid.t0)
    xi0, noise = sc.xi0, sc.noise
    if isinstance(noise, OUParams):
        kwargs.update(sigma_xi_sq=noise.sigma**2, Exi0=float(xi0 @ xi0))
        v0 = th0 + xi0 if kind.endswith("sisc") else th0
    else:  # JD: xi0 is the initial input u0
        kwargs.update(sigma_u_sq=noise.sigma_u**2, a_norm_sq=float(noise.a @ noise.a),
                      Exi0=float((xi0 - th0) @ (xi0 - th0)))
        v0 = xi0 if kind.endswith("sisc") else th0
    E0 = sys.metric.norm_sq(sc.x0 - eq.x_star(v0))
    return bnd.BoundParams(**kwargs, E0=E0)


def _fmt(values) -> list:
    """Each value as a float's shortest round-trip repr."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _write_csv(paths, header, cols):
    """Join the CSV text of the equal-length columns of formatted values
    ``cols`` once and write it to each of ``paths``."""
    text = "\n".join([",".join(header), *map(",".join, zip(*cols))]) + "\n"
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
        verdict = _run_scenario_inner(cfg._run, bundle, dry_run)
        if out_dir.exists():
            out_dir.rename(Path(tmp) / "old")  # removed with the temporary directory
        bundle.rename(out_dir)
    return verdict


def _run_scenario_inner(run: _Run, out_dir: Path, dry_run: bool) -> Verdict:
    (out_dir / "certificate.json").write_text(run.certificate() + "\n", encoding="utf-8")
    if dry_run:
        (out_dir / "verdict.json").write_text(json.dumps(
            {"dry_run": True, "scenario_kind": run.kind}, indent=2) + "\n",
            encoding="utf-8")
        return Verdict(holds=True, worst_margin=math.inf, worst_t=run.grid.t0,
                       slack_rule="dry run: no simulation")
    runner = {"gibbs": _run_gibbs, "wasserstein": _run_wasserstein}.get(run.kind, _run_moments)
    return runner(run, out_dir)


def _run_moments(run: _Run, out_dir: Path) -> Verdict:
    sc, eq, grid = run.scenario, run.eq, run.grid
    env = bnd.make_envelope("niss_two_traj" if run.kind == "niss_pair" else run.kind,
                            _bound_params(run.kind, sc, eq))
    if eq is None:
        series = pair_error_moment(sc, run.n_paths, run.seed)
    else:
        target = "stochastic_curve" if run.kind.endswith("sisc") else "deterministic_curve"
        series = tracking_error_moment(sc, eq, target, run.n_paths, run.seed)
    times = series.times()
    # a fixed policy's alpha has the fixed column; "opt" judges the optimized one
    opt = run.alpha == "opt"
    a_fixed = _OPT_FIXED_ALPHA if opt else float(run.alpha)
    a_opt = _resolve_alpha(env, "optimized", grid)
    elapsed = times - grid.t0
    bound_fixed = env.eval_grid(elapsed, a_fixed)
    bound_opt = env.eval_grid(elapsed, a_opt)
    verdict = compare_to_bound(series, bound_opt if opt else bound_fixed)

    # each column shared by the two files is formatted once
    t, b_fixed, b_opt = _fmt(times), _fmt(bound_fixed), _fmt(bound_opt)
    header = ["t", "mean_sq", "std_err", "bound_fixed_alpha", "bound_opt_alpha"]
    cols = (t, _fmt(series.mean_sq), _fmt(series.std_err), b_fixed, b_opt)
    _write_csv([out_dir / "moments.csv", out_dir / "plotdata.csv"], header, cols)
    fixed, optimized = _fmt([a_fixed, a_opt])
    _write_csv([out_dir / "envelope.csv"], ["t", "alpha", "bound"], (
        t + t, [fixed] * len(t) + [optimized] * len(t), b_fixed + b_opt))
    _write_verdict(out_dir, run.kind, verdict, alpha_fixed=a_fixed, alpha_optimized=a_opt)
    return verdict


def _run_wasserstein(run: _Run, out_dir: Path) -> Verdict:
    sc = run.scenario
    p = math.inf if run.p == "inf" else float(run.p)
    times, w_emp, env = wasserstein_series(sc, p, run.seed)
    verdict = _wasserstein_verdict(times, w_emp, env, sc.k)
    _write_csv([out_dir / "wasserstein.csv", out_dir / "plotdata.csv"],
               ["t", "w_p_empirical", "envelope"], map(_fmt, (times, w_emp, env)))
    _write_verdict(out_dir, run.kind, verdict, p=run.p, k=sc.k)
    return verdict


def _run_gibbs(run: _Run, out_dir: Path) -> Verdict:
    f, grad_f, cpot, sigma = run.scenario
    grid = run.grid
    rng = RngLineage(run.seed, 0).stream()
    x = 0.0
    sq_dt = math.sqrt(grid.dt)
    xs = np.empty(grid.steps + 1)
    xs[0] = x
    noise = rng.standard_normal(grid.steps)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged chain is reported below
        for kk in range(grid.steps):
            x = x - grad_f(x) * grid.dt + sigma * sq_dt * noise[kk]
            xs[kk + 1] = x
    bad = np.flatnonzero(~np.isfinite(xs))
    if bad.size:
        raise DivergenceError(f"non-finite Gibbs chain state at step {bad[0]}", step=int(bad[0]))
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
               map(_fmt, (grid1d, density)))
    verdict = Verdict(holds=bool(holds),
                      worst_margin=float(crit - res["ks_stat"]) / crit,
                      worst_t=grid.horizon,
                      slack_rule=f"KS statistic <= 1% critical value {crit:.4g}")
    _write_verdict(out_dir, run.kind, verdict, ks_stat=res["ks_stat"],
                   residual=res["residual"], n_samples=int(samples.shape[0]))
    return verdict


def _write_verdict(out_dir: Path, kind: str, verdict: Verdict, **extra):
    payload = {
        "scenario_kind": kind,
        "holds": verdict.holds,
        "worst_margin": verdict.worst_margin,
        "worst_t": verdict.worst_t,
        "slack_rule": verdict.slack_rule,
        **extra,
    }
    (out_dir / "verdict.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

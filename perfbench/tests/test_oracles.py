"""The benchmark's reference computations against closed forms, brute force
and hand-worked cases."""

import math

import numpy as np
import pytest
import scipy.stats

import oracles


def _scalar_pair(coupling, x0=0.3, y0=-0.2):
    return {"scenario_kind": "niss_pair", "coupling": coupling,
            "system": {"A": [[-1.5]], "B": [[0.8]], "Sigma": [[0.3]], "P": [[2.0]]},
            "input_x": {"kind": "sinusoid", "amplitude": [1.0], "omega": 1.3, "phase": 0.4},
            "input_y": {"kind": "constant", "value": [0.25]},
            "x0": [x0], "y0": [y0], "grid": {"t0": 0.0, "dt": 0.01, "steps": 300}}


def test_pair_moment_matches_hand_recursion():
    """Independent coupling, 1-D: the difference d = x - y has mean
    m' = (1 - c dt) m + b (u_x - u_y) dt and variance
    v' = (1 - c dt)^2 v + 2 s^2 dt, so E d^2 P = P (m^2 + v)."""
    cfg = _scalar_pair("independent")
    mean, var = oracles.pair_moment(cfg)
    c, b, s, p, dt = 1.5, 0.8, 0.3, 2.0, 0.01
    m, v = 0.5, 0.0
    for k in range(300):
        t = k * dt
        du = math.sin(1.3 * t + 0.4) - 0.25
        assert mean[k] == pytest.approx(p * (m * m + v), rel=1e-12, abs=1e-15)
        m, v = (1 - c * dt) * m + b * du * dt, (1 - c * dt) ** 2 * v + 2 * s * s * dt
    assert mean[300] == pytest.approx(p * (m * m + v), rel=1e-12)
    # Gaussian e: Var(P e^2) = P^2 (2 v^2 + 4 m^2 v)
    assert var[300] == pytest.approx(p * p * (2 * v * v + 4 * m * m * v), rel=1e-10)


def test_common_coupling_error_is_deterministic():
    cfg = _scalar_pair("common")
    mean, var = oracles.pair_moment(cfg)
    assert np.all(var == 0.0)
    indep_mean, _ = oracles.pair_moment(_scalar_pair("independent"))
    assert mean[0] == indep_mean[0]
    assert np.all(mean[1:] < indep_mean[1:])


def test_ou_oracles_closed_forms():
    c, sigma, dt, steps = 0.7, 1.2, 0.01, 400
    euler = oracles.ou_euler_second_moment(4.0, c, sigma, dt, steps)
    k = np.arange(steps + 1)
    r = (1 - c * dt) ** 2
    closed = r**k * 4.0 + sigma**2 * dt * (1 - r**k) / (1 - r)
    assert np.allclose(euler, closed, rtol=1e-12)
    exact = oracles.ou_exact_second_moment(4.0, c, sigma, k * dt)
    assert exact[-1] == pytest.approx(sigma**2 / (2 * c) + math.exp(-2 * c * 4.0) *
                                      (4.0 - sigma**2 / (2 * c)), rel=1e-12)


def test_ou_exact_oracle_matches_package_closed_form():
    from contracting_sde import ou_second_moment

    for t in (0.0, 0.3, 2.5):
        assert oracles.ou_exact_second_moment(2.0, 1.3, 0.8, t) == \
            pytest.approx(ou_second_moment(2.0, 1.3, 0.8, t), rel=1e-14)


def _track(kind, **kw):
    cfg = {"scenario_kind": kind,
           "system": {"A": [[-2.0]], "B": [[1.0]], "Sigma": [[0.2]], "P": [[1.0]]},
           "theta": {"kind": "sinusoid", "amplitude": [0.1], "omega": 1.0, "phase": 0.0,
                     "offset": [0.5]},
           "eq_map": {"M": [[0.5]]}, "x0": [0.25],
           "grid": {"t0": 0.0, "dt": 0.01, "steps": 200}}
    cfg.update(kw)
    return cfg


def _simulate_cascade(cfg, n_paths, seed):
    """Brute-force Euler simulation of a track_* config, written out here."""
    rng = np.random.default_rng(seed)
    grid = cfg["grid"]
    dt, steps = grid["dt"], grid["steps"]
    c, b, s = 2.0, 1.0, 0.2
    meq = cfg["eq_map"]["M"][0][0]
    t = dt * np.arange(steps + 1)
    theta = 0.5 + 0.1 * np.sin(t)
    x = np.full(n_paths, cfg["x0"][0])
    jd = cfg["scenario_kind"].startswith("track_jd")
    noise = cfg["noise"]
    v = np.full(n_paths, cfg["u0"][0] if jd else cfg["xi0"][0])
    out = np.empty((steps + 1, n_paths))

    def err(k, x, v):
        target = v if cfg["scenario_kind"].endswith("sisc") and jd else (
            theta[k] + v if cfg["scenario_kind"].endswith("sisc") else theta[k])
        return (x - meq * target) ** 2

    out[0] = err(0, x, v)
    for k in range(steps):
        u = v if jd else theta[k] + v
        zx, zu = rng.standard_normal(n_paths), rng.standard_normal(n_paths)
        x = x + (-c * x + b * u) * dt + s * math.sqrt(dt) * zx
        if jd:
            a = noise["a"][0]
            v = v - noise["c"] * (v - theta[k]) * dt + \
                noise["sigma_u"] * np.sqrt(np.clip(v * (a - v), 0.0, None) * dt) * zu
        else:
            rho = math.exp(-noise["c"] * dt)
            v = rho * v + math.sqrt(noise["sigma"] ** 2 * (1 - rho**2) / (2 * noise["c"])) * zu
        out[k + 1] = err(k + 1, x, v)
    return out.mean(axis=1), out.std(axis=1, ddof=1) / math.sqrt(n_paths)


@pytest.mark.parametrize("kind,extra", [
    ("track_ou_sidc", {"noise": {"c": 1.5, "sigma": 0.4}, "xi0": [0.2]}),
    ("track_ou_sisc", {"noise": {"c": 1.5, "sigma": 0.4}, "xi0": [0.2]}),
    ("track_jd_sidc", {"noise": {"c": 2.0, "sigma_u": 0.8, "a": [1.0]}, "u0": [0.55]}),
    ("track_jd_sisc", {"noise": {"c": 2.0, "sigma_u": 0.8, "a": [1.0]}, "u0": [0.55]}),
])
def test_tracking_moment_matches_brute_force(kind, extra):
    """The recursion (with the Pearson closure for JD) against a plain Monte
    Carlo of the same Euler scheme, within 5 standard errors."""
    cfg = _track(kind, **extra)
    ref, _ = oracles.tracking_moment(cfg)
    mc, se = _simulate_cascade(cfg, 40_000, seed=5)
    for k in (1, 20, 100, 200):
        assert abs(mc[k] - ref[k]) <= 5 * se[k], (k, mc[k], ref[k], se[k])


def test_track_didc_is_deterministic_without_state_noise():
    cfg = _track("track_didc", system={"A": [[-2.0]], "B": [[1.0]], "Sigma": [[0.0]],
                                       "P": [[1.0]]})
    ref, var = oracles.tracking_moment(cfg)
    x, dt = 0.25, 0.01
    for k in range(200):
        theta = 0.5 + 0.1 * math.sin(k * dt)
        assert ref[k] == pytest.approx((x - 0.5 * theta) ** 2, rel=1e-10, abs=1e-15)
        x = x + (-2.0 * x + theta) * dt
    assert np.all(var == 0.0)


def test_certificate_of_skew_perturbed_system():
    P = np.array([[1.5, 0.3], [0.3, 0.8]])
    W = np.array([[0.0, 0.7], [-0.7, 0.0]])
    A = -1.3 * np.eye(2) + np.linalg.solve(P, W)
    c, ell, sx = oracles.certificate({"A": A.tolist(), "B": [[1.0], [0.0]],
                                      "Sigma": np.eye(2).tolist(), "P": P.tolist()})
    assert c == pytest.approx(1.3, rel=1e-12)
    assert ell == pytest.approx(math.sqrt(1.5), rel=1e-12)
    assert sx == pytest.approx(np.trace(P), rel=1e-12)


def test_wp_limit_band_contains_the_exact_common_noise_limit():
    """1-D: every pair difference tends to d* = b du / c; a brute-force
    evolution of two random clouds stays inside the band."""
    cfg = {"system": {"A": [[-1.2]], "B": [[0.9]], "Sigma": [[0.4]], "P": [[1.0]]},
           "input_x": {"kind": "constant", "value": [1.1]},
           "input_y": {"kind": "constant", "value": [0.0]},
           "cloud": {"k": 256, "mean_x": [4.0], "mean_y": [0.0], "std": 1.0},
           "grid": {"t0": 0.0, "dt": 0.004, "steps": 2000}}
    lo, hi = oracles.wp_limit_band(cfg)
    d_star = 0.9 * 1.1 / 1.2
    assert lo < d_star < hi
    assert hi - lo < 0.05 * d_star
    rng = np.random.default_rng(3)
    x = 4.0 + rng.standard_normal(256)
    y = rng.standard_normal(256)
    for _ in range(2000):  # the common noise cancels in x - y
        x, y = x + (-1.2 * x + 0.99) * 0.004, y + (-1.2 * y) * 0.004
    w2 = math.sqrt(np.mean((np.sort(x) - np.sort(y)) ** 2))
    assert lo <= w2 <= hi
    # a shorter horizon widens the band
    lo_short, hi_short = oracles.wp_limit_band({**cfg, "grid": {**cfg["grid"], "steps": 500}})
    assert lo_short < lo and hi_short > hi


def test_bonferroni_band():
    assert oracles.bonferroni_z(1, 0.05) == pytest.approx(1.959964, rel=1e-6)
    assert oracles.bonferroni_z(40, 1e-6) > oracles.bonferroni_z(1, 1e-6) > 4.8


def test_normal_ks_matches_scipy():
    var = 0.6
    s = math.sqrt(var) * np.random.default_rng(2).standard_normal(1000)
    ref = scipy.stats.kstest(s, "norm", args=(0.0, math.sqrt(var))).statistic
    assert oracles.normal_ks(s, var) == pytest.approx(ref, rel=1e-12)

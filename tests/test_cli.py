"""Tests for scenario-config parsing, report bundles, and the command-line
front end (exit codes, overrides, reproducibility of written artifacts)."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from contracting_sde import (
    CertificationError,
    ConfigError,
    DivergenceError,
    InputSignal,
    ScenarioConfig,
    parse_config,
    run_scenario,
)
from contracting_sde.cli import EXIT_ERROR, EXIT_FAILS, EXIT_HOLDS, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _minimal_niss_pair(**extra):
    cfg = {
        "scenario_kind": "niss_pair",
        "system": {"name": "scalar_tracker", "c": 1.0, "sigma": 0.3},
        "input_x": {"kind": "constant", "value": [1.0]},
        "input_y": {"kind": "constant", "value": [0.0]},
        "x0": [0.0],
        "y0": [0.0],
    }
    cfg.update(extra)
    return cfg


def _tiny_run_config(**extra):
    return _minimal_niss_pair(
        grid={"dt": 0.01, "steps": 50}, n_paths=200, **extra)


def _tiny_track_didc(**extra):
    cfg = {
        "scenario_kind": "track_didc",
        "system": {"name": "scalar_tracker", "c": 1.0, "sigma": 0.2},
        "theta": {"kind": "constant", "value": [0.0]},
        "x0": [0.0],
        "eq_map": {"M": [[1.0]]},
        "grid": {"dt": 0.01, "steps": 50},
        "n_paths": 200,
    }
    cfg.update(extra)
    return cfg


def _tiny_wasserstein(**extra):
    cfg = {
        "scenario_kind": "wasserstein",
        "system": {"name": "scalar_tracker", "c": 1.0, "sigma": 0.3},
        "input_x": {"kind": "constant", "value": [1.0]},
        "input_y": {"kind": "constant", "value": [0.0]},
        "cloud": {"k": 64},
        "grid": {"dt": 0.01, "steps": 50},
    }
    cfg.update(extra)
    return cfg


def _feller_violation():
    return {
        "scenario_kind": "track_jd_sidc",
        "system": {"name": "scalar_tracker", "c": 1.0, "sigma": 0.2},
        "theta": {"kind": "constant", "value": [0.5]},
        "x0": [0.5],
        "eq_map": {"M": [[1.0]]},
        "noise": {"sigma_u": 2.0, "a": [1.0]},
        "grid": {"dt": 0.01, "steps": 100},
        "n_paths": 100,
    }


@pytest.fixture
def certify_calls(monkeypatch):
    """The arguments of each certify_affine call made while the test runs."""
    import sys

    import contracting_sde.contraction as contraction_mod

    calls, certify = [], contraction_mod.certify_affine
    for mod in list(sys.modules.values()):  # every module that imported it
        if (getattr(mod, "__name__", "").startswith("contracting_sde")
                and getattr(mod, "certify_affine", None) is certify):
            monkeypatch.setattr(mod, "certify_affine",
                                lambda *args: calls.append(args) or certify(*args))
    return calls


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = parse_config(json.dumps(_minimal_niss_pair()))
        assert cfg.kind == "niss_pair"
        assert cfg.data["n_paths"] == 10_000
        assert cfg.data["master_seed"] == 0
        assert cfg.data["grid"]["dt"] == pytest.approx(1e-3)
        assert cfg.data["grid"]["steps"] == 10_000
        assert cfg.data["coupling"] == "independent"
        assert cfg.data["alpha_policy"] == "opt"

    def test_unknown_key_names_key_and_kind(self):
        bad = _minimal_niss_pair(tolerance=0.1)
        with pytest.raises(ConfigError, match="unknown key 'tolerance' for scenario kind 'niss_pair'"):
            parse_config(json.dumps(bad))

    def test_missing_field_names_field_and_kind(self):
        bad = _minimal_niss_pair()
        del bad["input_y"]
        with pytest.raises(ConfigError, match="missing required field 'input_y' for scenario kind 'niss_pair'"):
            parse_config(json.dumps(bad))

    def test_unknown_scenario_kind(self):
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            parse_config(json.dumps({"scenario_kind": "tracking"}))

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"niss_pair"', "null"])
    def test_config_must_be_an_object(self, text):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            parse_config(text)

    def test_missing_scenario_kind(self):
        bad = _minimal_niss_pair()
        del bad["scenario_kind"]
        with pytest.raises(ConfigError, match="missing required field 'scenario_kind'"):
            parse_config(json.dumps(bad))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{scenario_kind:")

    def test_jd_noise_key_rejected_for_ou_kind(self):
        bad = {
            "scenario_kind": "track_ou_sidc",
            "system": {"name": "scalar_tracker", "c": 1.0, "sigma": 0.2},
            "theta": {"kind": "constant", "value": [0.0]},
            "x0": [0.0],
            "eq_map": {"M": [[1.0]]},
            "noise": {"sigma": 0.3, "sigma_u": 0.5},
        }
        with pytest.raises(ConfigError, match="noise field 'sigma_u' not valid for scenario kind 'track_ou_sidc'"):
            parse_config(json.dumps(bad))

    def test_missing_noise_field(self):
        bad = {
            "scenario_kind": "track_jd_sidc",
            "system": {"name": "scalar_tracker", "c": 1.0, "sigma": 0.2},
            "theta": {"kind": "constant", "value": [0.5]},
            "x0": [0.5],
            "eq_map": {"M": [[1.0]]},
            "noise": {"sigma_u": 0.5},
        }
        with pytest.raises(ConfigError, match="missing noise field 'a'"):
            parse_config(json.dumps(bad))

    @pytest.mark.parametrize("system, error", [
        ({"name": "scalar_tracker", "sigma": 0.3}, ConfigError),
        ({"name": "scalar_tracker", "c": 1.0}, ConfigError),
        ({"name": "no_such_system", "c": 1.0, "sigma": 0.3}, ConfigError),
        ({"name": "scalar_tracker", "c": "fast", "sigma": 0.3}, ConfigError),
        ({"B": [[1.0]], "Sigma": [[0.3]]}, ConfigError),
        ({"A": [[-1.0]], "Sigma": [[0.3]]}, ConfigError),
        ({"A": [[-1.0, 0.0]], "B": [[1.0]], "Sigma": [[0.3]]}, ConfigError),
        ({"A": -1.0, "B": [[1.0]], "Sigma": [[0.3]]}, ConfigError),
        ({"A": [["x"]], "B": [[1.0]], "Sigma": [[0.3]]}, ConfigError),
        ([[-1.0]], ConfigError),
        ({"name": "scalar_tracker", "c": -1.0, "sigma": 0.3}, CertificationError),
        ({"A": [[0.5]], "B": [[1.0]], "Sigma": [[0.3]]}, CertificationError),
        ({"A": [[-1.0]], "B": [[1.0]], "Sigma": [[0.3]], "P": [[-1.0]]}, CertificationError),
    ])
    def test_bad_system_fails_at_parse_time(self, system, error):
        with pytest.raises(error):
            parse_config(json.dumps(_minimal_niss_pair(system=system)))

    def test_serialize_round_trip_is_stable(self):
        cfg = parse_config(json.dumps(_minimal_niss_pair()))
        again = parse_config(cfg.serialize())
        assert again.kind == cfg.kind
        assert again.data == cfg.data

    def test_bundled_configs_parse_and_round_trip(self):
        files = sorted(CONFIG_DIR.glob("*.json"))
        assert len(files) >= 6
        for path in files:
            cfg = parse_config(path.read_text(encoding="utf-8"))
            again = parse_config(cfg.serialize())
            assert again.data == cfg.data, path.name

    def test_shipped_2d_bottleneck_config_holds(self, tmp_path):
        cfg = parse_config((CONFIG_DIR / "wasserstein_bottleneck_2d.json").read_text(
            encoding="utf-8"))
        assert cfg.data["p"] == "inf" and cfg.data["cloud"]["k"] == 128
        assert run_scenario(cfg, tmp_path / "bundle").holds

    def test_shipped_2d_assignment_config_is_below_the_bottleneck(self, tmp_path):
        # the same system, clouds and seed with p = 2: W_2 <= W_inf at every checkpoint
        w, data = {}, {}
        for name in ("wasserstein_assignment_2d", "wasserstein_bottleneck_2d"):
            cfg = parse_config((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
            data[name] = {**cfg.data, "p": None}
            assert run_scenario(cfg, tmp_path / name).holds
            w[name] = np.loadtxt(tmp_path / name / "wasserstein.csv", delimiter=",",
                                 skiprows=1)
        assert data["wasserstein_assignment_2d"] == data["wasserstein_bottleneck_2d"]
        w2, winf = w["wasserstein_assignment_2d"], w["wasserstein_bottleneck_2d"]
        assert w2.shape == winf.shape == (21, 3)
        assert np.array_equal(w2[:, 0], winf[:, 0])
        assert np.all(w2[:, 1] <= winf[:, 1])
        assert np.all(w2[:, 1] > 0.0)

    def test_shipped_2d_bottleneck_config_probe_count(self, tmp_path, monkeypatch):
        # 21 W_inf solves at the config's seed: 139 matchings when only the
        # bisection cut moved the bracket, 95 when each matching found does
        import scipy.sparse.csgraph

        calls = []
        matching = scipy.sparse.csgraph.maximum_bipartite_matching

        def counted(*args, **kwargs):
            calls.append(1)
            return matching(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.csgraph, "maximum_bipartite_matching", counted)
        cfg = parse_config((CONFIG_DIR / "wasserstein_bottleneck_2d.json").read_text(
            encoding="utf-8"))
        assert run_scenario(cfg, tmp_path / "bundle").holds
        assert 0 < len(calls) <= 95


class TestConfigIsBuiltWhenMade:
    def test_a_direct_config_is_checked_when_made(self):
        with pytest.raises(ConfigError, match="missing required field 'scenario_kind'"):
            ScenarioConfig("niss_pair", {})
        with pytest.raises(ConfigError, match="unknown scenario kind 'tracking'"):
            ScenarioConfig("tracking", {"scenario_kind": "tracking"})
        with pytest.raises(ConfigError, match="'scenario_kind' is 'niss_pair', not the "
                                              "config's kind 'niss_vs_ode'"):
            ScenarioConfig("niss_vs_ode", _tiny_run_config())
        with pytest.raises(ConfigError, match="missing required field 'input_y'"):
            ScenarioConfig("niss_pair", {k: v for k, v in _tiny_run_config().items()
                                         if k != "input_y"})

    def test_a_direct_config_fills_its_defaults_and_runs(self, tmp_path):
        data = _tiny_run_config()
        cfg = ScenarioConfig("niss_pair", data)
        assert cfg.data is data and data["alpha_policy"] == "opt"
        assert cfg == parse_config(json.dumps(_tiny_run_config()))
        assert "_run" not in repr(cfg)
        assert run_scenario(cfg, tmp_path / "bundle").holds

    def test_reruns_write_the_same_bytes(self, tmp_path):
        # runs share one build: nothing a run steps may be written back into it
        for config in (_tiny_run_config(), _tiny_track_didc(), _tiny_wasserstein(),
                       _gibbs()):
            cfg = parse_config(json.dumps(config))
            data = json.dumps(cfg.data, sort_keys=True)
            bundles = [tmp_path / cfg.kind / "a", tmp_path / cfg.kind / "b"]
            for bundle in bundles:
                run_scenario(cfg, bundle)
            assert json.dumps(cfg.data, sort_keys=True) == data
            for path in bundles[0].iterdir():
                assert (bundles[1] / path.name).read_bytes() == path.read_bytes(), path

    @pytest.mark.parametrize("config, message", [
        (_tiny_run_config(master_seed="7"), "invalid config field 'master_seed': value must be "
                                            "an integer, got '7'"),
        (_minimal_niss_pair(n_paths=100.9), "invalid config field 'n_paths': value must be an "
                                          "integer, got 100.9"),
        (_minimal_niss_pair(grid={"dt": 0.01, "steps": 2.5}),
         "invalid grid: steps must be an integer, got 2.5"),
        (_tiny_wasserstein(cloud={"k": True}), "invalid cloud field 'k': value must be an "
                                               "integer, got True"),
        (_tiny_run_config(n_workers=1.5), "invalid config field 'n_workers': value must be an "
                                          "integer, got 1.5"),
        (_minimal_niss_pair(n_paths=50), "'n_paths' must be >= 100, got 50"),
        (_minimal_niss_pair(grid={"t0": math.nan, "dt": 0.01, "steps": 50}),
         "invalid grid: t0 must be finite"),
    ], ids=["master_seed", "n_paths", "grid.steps", "cloud.k", "n_workers", "n_paths_floor",
            "grid.t0"])
    def test_integer_fields_and_the_path_floor(self, config, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(config))

    def test_integral_numbers_are_integers(self, tmp_path):
        cfg = parse_config(json.dumps(_minimal_niss_pair(
            grid={"dt": 0.01, "steps": 50}, n_paths=1e2, master_seed=3.0)))
        assert cfg._run.n_paths == 100 and cfg._run.seed == 3
        assert run_scenario(cfg, tmp_path / "bundle").holds

    def test_unknown_potential_kind(self):
        with pytest.raises(ConfigError, match="unknown potential kind 'sextic'"):
            parse_config(json.dumps(_gibbs(potential={"kind": "sextic"})))


def test_bundle_bytes_do_not_depend_on_the_draw_layer(tmp_path, monkeypatch):
    # one chunk of 512 paths x 2000 steps x 2 normals: a fill split over two
    # threads in two blocks (a), one thread and one buffer (b), and four
    # blocks that reuse both buffers (c)
    from contracting_sde import integrate

    data = json.loads((CONFIG_DIR / "niss_pair.json").read_text(encoding="utf-8"))
    data.update(n_paths=512, grid={**data["grid"], "steps": 2000})
    split_blocks = []
    start = integrate._SharedFill.start
    monkeypatch.setattr(integrate._SharedFill, "start",
                        lambda self, k0: split_blocks.append(k0) or start(self, k0))
    runs = {"a": (2, integrate.DRAW_BLOCK_BYTES, [0, 1023]),
            "b": (1, integrate.DRAW_BLOCK_BYTES, []),
            "c": (2, 2 * 8 * 512 * 2 * 513, [0, 512, 1024, 1536])}
    for name, (cpus, budget, blocks) in runs.items():
        monkeypatch.setattr(integrate, "_cpus", lambda: cpus)
        monkeypatch.setattr(integrate, "DRAW_BLOCK_BYTES", budget)
        split_blocks.clear()
        assert run_scenario(ScenarioConfig("niss_pair", json.loads(json.dumps(data))),
                            tmp_path / name).holds
        assert split_blocks == blocks, name
    for file in ("moments.csv", "envelope.csv"):
        ref = (tmp_path / "a" / file).read_bytes()
        assert (tmp_path / "b" / file).read_bytes() == ref, file
        assert (tmp_path / "c" / file).read_bytes() == ref, file


class TestRunCommand:
    def test_tiny_run_holds_and_writes_bundle(self, tmp_path, capsys):
        config = _write(tmp_path, "tiny.json", _tiny_run_config())
        code = main(["run", config, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "verdict: holds" in out
        bundle = tmp_path / "out" / "tiny"
        assert (bundle / "certificate.json").is_file()
        moments = (bundle / "moments.csv").read_text(encoding="utf-8")
        assert moments.splitlines()[0] == "t,mean_sq,std_err,bound_fixed_alpha,bound_opt_alpha"
        assert (bundle / "envelope.csv").read_text(encoding="utf-8").splitlines()[0] == "t,alpha,bound"
        verdict = json.loads((bundle / "verdict.json").read_text(encoding="utf-8"))
        assert verdict["holds"] is True
        assert verdict["scenario_kind"] == "niss_pair"

    def test_rerun_and_worker_override_byte_identical(self, tmp_path):
        config = _write(tmp_path, "tiny.json", _tiny_run_config())
        assert main(["run", config, "--out", str(tmp_path / "a")]) == EXIT_HOLDS
        assert main(["run", config, "--out", str(tmp_path / "b")]) == EXIT_HOLDS
        assert main(["run", config, "--out", str(tmp_path / "c"), "--workers", "4"]) == EXIT_HOLDS
        ref = (tmp_path / "a" / "tiny" / "moments.csv").read_bytes()
        assert (tmp_path / "b" / "tiny" / "moments.csv").read_bytes() == ref
        assert (tmp_path / "c" / "tiny" / "moments.csv").read_bytes() == ref

    def test_seed_override_runs_the_config_at_that_seed(self, tmp_path, capsys):
        config = _write(tmp_path, "tiny.json", _tiny_run_config())
        seeded = _write(tmp_path, "seeded.json", _tiny_run_config(master_seed=5))
        for args, out in (([config, "--seed", "5"], "a"), ([seeded], "b"), ([config], "c")):
            assert main(["run", *args, "--out", str(tmp_path / out)]) == EXIT_HOLDS
        moments = {out: (tmp_path / out / stem / "moments.csv").read_bytes()
                   for out, stem in (("a", "tiny"), ("b", "seeded"), ("c", "tiny"))}
        assert moments["a"] == moments["b"] != moments["c"]
        capsys.readouterr()
        main(["run", config, "--seed", "5", "--dry-run", "--out", str(tmp_path / "d")])
        assert json.loads(capsys.readouterr().out.split("verdict:")[0])["master_seed"] == 5

    def test_execution_error_names_its_type(self, tmp_path, capsys):
        config = _write(tmp_path, "diverging.json", _gibbs(
            potential={"kind": "quartic"}, grid={"dt": 0.5, "steps": 200}, master_seed=3))
        code = main(["run", config, "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert ("error: DivergenceError: non-finite Gibbs chain state at step"
                in capsys.readouterr().err)

    def test_dry_run_echoes_config_and_skips_simulation(self, tmp_path, capsys):
        config = _write(tmp_path, "tiny.json", _tiny_run_config())
        code = main(["run", config, "--dry-run", "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert '"scenario_kind": "niss_pair"' in out
        bundle = tmp_path / "out" / "tiny"
        names = sorted(p.name for p in bundle.iterdir())
        assert names == ["certificate.json", "verdict.json"]
        assert json.loads((bundle / "verdict.json").read_text())["dry_run"] is True

    def test_failing_verdict_exits_two(self, tmp_path, capsys):
        # the declared equilibrium map x*(u) = 1 disagrees with the true
        # tracked equilibrium x*(u) = u, so the empirical error leaves the
        # (zero) envelope and the verdict must fail
        bad = {
            "scenario_kind": "track_didc",
            "system": {"name": "scalar_tracker", "c": 1.0, "sigma": 0.0},
            "theta": {"kind": "constant", "value": [0.0]},
            "x0": [1.0],
            "eq_map": {"M": [[0.0]], "b": [1.0]},
            "grid": {"dt": 0.01, "steps": 200},
            "n_paths": 100,
        }
        config = _write(tmp_path, "mismatch.json", bad)
        code = main(["run", config, "--out", str(tmp_path / "out")])
        assert code == EXIT_FAILS
        assert "FAILS" in capsys.readouterr().out

    def test_feller_violation_exits_one(self, tmp_path, capsys):
        config = _write(tmp_path, "feller.json", _feller_violation())
        code = main(["run", config, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        assert "Feller" in err
        # the failed run must not leave a partial bundle behind
        assert not (tmp_path / "out" / "feller").exists()

    def test_config_error_exits_one(self, tmp_path, capsys):
        config = _write(tmp_path, "bad.json", {"scenario_kind": "niss_pair"})
        code = main(["run", config, "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert "config error:" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json")])
        assert code == EXIT_ERROR
        assert "config error:" in capsys.readouterr().err

    def test_usage_error_exits_one(self, capsys):
        # 2 means "the verdict fails"; a bad command line is an error
        assert main(["run"]) == EXIT_ERROR
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["run", "--help"]) == EXIT_HOLDS
        assert "--alpha" in capsys.readouterr().out


class TestCertifyCommand:
    def test_prints_certificate_json(self, tmp_path, capsys):
        config = _write(tmp_path, "tiny.json", _tiny_run_config())
        code = main(["certify", config, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        cert = json.loads(out)
        assert cert["c_hat"] == pytest.approx(1.0)
        assert cert["sigma_x_sq_hat"] == pytest.approx(0.09)


class TestBatchCommand:
    def test_runs_every_config(self, tmp_path, capsys):
        _write(tmp_path, "one.json", _tiny_run_config())
        _write(tmp_path, "two.json", _tiny_run_config(master_seed=5))
        code = main(["batch", str(tmp_path), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == EXIT_HOLDS
        assert "one.json: holds" in out
        assert "two.json: holds" in out
        assert (tmp_path / "out" / "one" / "verdict.json").is_file()
        assert (tmp_path / "out" / "two" / "verdict.json").is_file()

    def test_failing_config_does_not_stop_the_batch(self, tmp_path, capsys):
        _write(tmp_path, "a_bad.json", _tiny_run_config(scenario_kind="no_such_kind"))
        _write(tmp_path, "b_good.json", _tiny_run_config())
        code = main(["batch", str(tmp_path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert "a_bad.json: config error: unknown scenario kind" in captured.err
        assert "b_good.json: holds" in captured.out
        assert (tmp_path / "out" / "b_good" / "verdict.json").is_file()

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["batch", str(empty)])
        assert code == EXIT_ERROR
        assert "no *.json configs" in capsys.readouterr().err


class TestRunScenarioApi:
    def test_returns_verdict_and_bundle(self, tmp_path):
        cfg = parse_config(json.dumps(_tiny_run_config()))
        verdict = run_scenario(cfg, tmp_path / "bundle")
        assert verdict.holds
        assert (tmp_path / "bundle" / "plotdata.csv").is_file()

    def test_out_dir_may_be_a_str_or_path_like(self, tmp_path):
        class Where:  # an os.PathLike that is not a Path
            def __fspath__(self):
                return str(tmp_path / "pathlike" / "bundle")

        cfg = parse_config(json.dumps(_tiny_run_config()))
        for out_dir, bundle in ((str(tmp_path / "str" / "bundle"), tmp_path / "str" / "bundle"),
                                (Where(), tmp_path / "pathlike" / "bundle")):
            assert run_scenario(cfg, out_dir).holds
            assert (bundle / "verdict.json").is_file()

    @pytest.mark.parametrize("policy", ["opt", 0.5, 0.3])
    def test_verdict_judged_on_a_written_bound(self, tmp_path, monkeypatch, policy):
        # the envelope is evaluated over the grid once per written column:
        # the fixed policy's alpha (0.5 under "opt") and the optimized alpha
        import dataclasses

        import contracting_sde.bounds as bounds_mod
        import contracting_sde.scenarios as scenarios_mod

        calls = []
        make = bounds_mod.make_envelope

        def counted(kind, params):
            env = make(kind, params)

            def eval_grid(times, alpha):
                calls.append(alpha)
                return env.eval_grid(times, alpha)

            return dataclasses.replace(env, eval_grid=eval_grid)

        monkeypatch.setattr(scenarios_mod.bnd, "make_envelope", counted)
        cfg = parse_config(json.dumps(_tiny_run_config(alpha_policy=policy)))
        verdict = run_scenario(cfg, tmp_path / "bundle")
        assert len(calls) == 2
        rows = (tmp_path / "bundle" / "moments.csv").read_text(encoding="utf-8").splitlines()
        cols = [list(map(float, r.split(","))) for r in rows[1:]]
        column = 4 if policy == "opt" else 3
        margins = [(r[column] - r[1]) / max(r[column], 1e-12) for r in cols]
        assert verdict.worst_margin == min(margins)
        written = json.loads((tmp_path / "bundle" / "verdict.json").read_text(encoding="utf-8"))
        assert written["alpha_fixed"] == (0.5 if policy == "opt" else policy)

    @pytest.mark.parametrize("kind, certifications", [
        ("niss_pair", 1), ("niss_vs_ode", 2), ("track_didc", 1), ("wasserstein", 1),
    ])
    def test_a_run_certifies_each_system_once(self, tmp_path, certify_calls, kind,
                                              certifications):
        # niss_vs_ode also builds the noiseless twin, which is another system;
        # the parse certifies each system and no run certifies again
        configs = {
            "niss_pair": _tiny_run_config(),
            "niss_vs_ode": _tiny_run_config(scenario_kind="niss_vs_ode"),
            "track_didc": _tiny_track_didc(),
            "wasserstein": _tiny_wasserstein(),
        }
        cfg = parse_config(json.dumps(configs[kind]))
        run_scenario(cfg, tmp_path / "bundle")
        run_scenario(cfg, tmp_path / "again")
        assert len(certify_calls) == certifications

    def test_a_jd_config_checks_feller_once_when_parsed(self, tmp_path, monkeypatch):
        # building the cascade checks the Feller condition on the grid; no
        # run checks it again
        import contracting_sde.integrate as integrate_mod

        calls, feller = [], integrate_mod.feller_check
        monkeypatch.setattr(integrate_mod, "feller_check",
                            lambda *args: calls.append(args) or feller(*args))
        data = json.loads((CONFIG_DIR / "track_jd_sidc.json").read_text(encoding="utf-8"))
        data.update(n_paths=100, grid={**data["grid"], "steps": 200})
        cfg = parse_config(json.dumps(data))
        assert len(calls) == 1
        for i in range(3):
            run_scenario(cfg, tmp_path / f"bundle{i}")
        assert len(calls) == 1

    @pytest.mark.parametrize("command", [
        ["run", "--seed", "3", "--paths", "300", "--alpha", "0.4", "--workers", "2"],
        ["run", "--dry-run"], ["certify"], ["batch"],
    ], ids=["run_with_overrides", "run_dry_run", "certify", "batch"])
    def test_each_command_certifies_each_system_once(self, tmp_path, certify_calls, command):
        (tmp_path / "configs").mkdir()
        config = _write(tmp_path / "configs", "tiny.json", _tiny_run_config())
        where = str(tmp_path / "configs") if command[0] == "batch" else config
        assert main([command[0], where, *command[1:], "--out", str(tmp_path / "out")]) == 0
        assert len(certify_calls) == 1

    def test_two_input_ou_config_without_xi0_runs(self, tmp_path):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        cfg = parse_config(json.dumps({
            "scenario_kind": "track_ou_sidc",
            "system": {"A": [[-1.0, 0.0], [0.0, -1.0]], "B": eye,
                       "Sigma": [[0.1, 0.0], [0.0, 0.1]]},
            "theta": {"kind": "constant", "value": [0.5, -0.5]},
            "x0": [0.5, -0.5],
            "eq_map": {"M": eye},
            "noise": {"sigma": 0.2},
            "grid": {"dt": 0.01, "steps": 50},
            "n_paths": 200,
        }))
        assert cfg.data["xi0"] == [0.0, 0.0]
        assert run_scenario(cfg, tmp_path / "bundle").holds

    def test_failed_rerun_keeps_the_earlier_bundle(self, tmp_path):
        bundle = tmp_path / "bundle"
        run_scenario(parse_config(json.dumps(_tiny_run_config())), bundle)
        before = {p.name: p.read_bytes() for p in bundle.iterdir()}
        with pytest.raises(ConfigError, match="Feller"):
            run_scenario(parse_config(json.dumps(_feller_violation())), bundle)
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle"]

    def test_rerun_of_another_kind_leaves_only_its_files(self, tmp_path):
        bundle = tmp_path / "bundle"
        run_scenario(parse_config(json.dumps(_tiny_run_config())), bundle)
        assert (bundle / "moments.csv").is_file()
        run_scenario(parse_config(json.dumps(_tiny_wasserstein())), bundle)
        assert sorted(p.name for p in bundle.iterdir()) == [
            "certificate.json", "plotdata.csv", "verdict.json", "wasserstein.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle"]

    def test_signal_closures_are_called_on_the_whole_grid(self, tmp_path, monkeypatch):
        # a per-time loop would call theta's derivative once per grid time
        # and Simpson node: 30 003 calls on this 10 000-step grid
        import contracting_sde.scenarios as scenarios_mod

        build = scenarios_mod._build_signal
        calls = []

        def counted(spec):
            sig = build(spec)

            def derivative(t):
                calls.append(np.size(t))
                return sig.derivative(np.reshape(t, -1))

            return InputSignal.from_callable(
                lambda t: sig.value(np.reshape(t, -1)), sig.dim, derivative)

        monkeypatch.setattr(scenarios_mod, "_build_signal", counted)
        data = json.loads((CONFIG_DIR / "track_ou_sidc.json").read_text(encoding="utf-8"))
        data["n_paths"] = 100
        assert data["grid"]["steps"] == 10_000
        assert run_scenario(parse_config(json.dumps(data)), tmp_path / "bundle").holds
        assert 0 < len(calls) <= 5

    def test_two_input_gap_and_theta_dot_round_as_row_dot_products(self):
        # batched norms (einsum, sum, norm(axis=1)) round differently from
        # the per-row v @ v once m >= 2
        from contracting_sde.scenarios import _bound_params, _build

        def bound_params(cfg):
            cfg = parse_config(json.dumps({**cfg, "grid": {"dt": 0.01, "steps": 500}}))
            run = _build(cfg.kind, cfg.data)
            return run.scenario, _bound_params(run.kind, run.scenario, run.eq)

        ts = np.linspace(0.0, 5.0, 2001)
        system = {"A": [[-1.0, 0.3], [0.0, -1.5]], "B": [[1.0, 0.2], [0.1, 1.0]],
                  "Sigma": [[0.3, 0.0], [0.1, 0.2]]}
        sc, params = bound_params(_minimal_niss_pair(
            system=system, x0=[0.0, 0.0], y0=[0.0, 0.0],
            input_x={"kind": "sinusoid", "amplitude": [0.7, 1.1], "omega": 2.3, "phase": 0.4},
            input_y={"kind": "piecewise_linear", "times": [0.0, 1.3, 2.0],
                     "values": [[0.0, 1.0], [1.3, -0.4], [0.2, 0.9]]}))
        rows = [sc.u_x.value(t) - sc.u_y.value(t) for t in ts]
        assert np.array_equal(params.input_gap_sq(ts), [v @ v for v in rows])
        sc, params = bound_params({
            "scenario_kind": "track_didc", "system": system, "x0": [0.0, 0.0],
            "theta": {"kind": "sinusoid", "amplitude": [0.7, 1.1], "omega": 2.3},
            "eq_map": {"M": [[1.0, 0.0], [0.0, 1.0]]}})
        rows = [sc.theta.derivative(t) for t in ts]
        assert np.array_equal(params.theta_dot_sq(ts), [v @ v for v in rows])


class TestCheckedBeforeSimulating:
    @pytest.mark.parametrize("alpha", ["foo", 1.5, 0.0, True])
    def test_bad_alpha_policy(self, alpha):
        with pytest.raises(ConfigError, match="'alpha_policy' must be"):
            parse_config(json.dumps(_tiny_run_config(alpha_policy=alpha)))

    @pytest.mark.parametrize("p", ["two", 0.5, None])
    def test_bad_wasserstein_order(self, p):
        with pytest.raises(ConfigError, match="'p' must be"):
            parse_config(json.dumps(_tiny_wasserstein(p=p)))

    def test_alpha_override_is_checked(self, tmp_path, capsys, monkeypatch):
        import contracting_sde.scenarios as scenarios_mod

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a config that should not parse")

        monkeypatch.setattr(scenarios_mod, "pair_error_moment", no_simulation)
        config = _write(tmp_path, "tiny.json", _tiny_run_config())
        code = main(["run", config, "--alpha", "1.5", "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert "config error: 'alpha_policy'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "tiny").exists()

    def test_non_numeric_alpha_override_is_a_config_error(self, tmp_path, capsys):
        config = _write(tmp_path, "tiny.json", _tiny_run_config())
        code = main(["run", config, "--alpha", "foo", "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert "config error: 'alpha_policy' must be \"opt\" or lie in (0, 1), got 'foo'" \
            in capsys.readouterr().err
        assert not (tmp_path / "out" / "tiny").exists()


def _tiny_jd(**extra):
    return {**_feller_violation(), "noise": {"sigma_u": 0.5, "a": [1.0]}, **extra}


def _gibbs(**extra):
    return {"scenario_kind": "gibbs", "potential": {"kind": "quadratic"}, "sigma": 1.0,
            "grid": {"dt": 0.01, "steps": 2000}, **extra}


def _no_simulation(monkeypatch):
    import contracting_sde.scenarios as scenarios_mod

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a config that should not parse")

    for name in ("pair_error_moment", "tracking_error_moment", "wasserstein_series"):
        monkeypatch.setattr(scenarios_mod, name, no_simulation)


class TestEveryKeyIsRead:
    @pytest.mark.parametrize("config, obj, key", [
        (_minimal_niss_pair(grid={"dt": 0.01, "stepz": 50}), "grid", "stepz"),
        (_minimal_niss_pair(system={"A": [[-1.0]], "B": [[1.0]], "Sigma": [[0.3]],
                                    "PP": [[4.0]]}), "system", "PP"),
        (_tiny_run_config(input_x={"kind": "sinusoid", "amplitude": [1.0], "omgea": 2.0}),
         "input_x", "omgea"),
        (_tiny_track_didc(eq_map={"M": [[1.0]], "bb": [0.5]}), "eq_map", "bb"),
        (_tiny_jd(noise={"sigma_u": 0.5, "a": [1.0], "theta_is_target": True}),
         "noise", "theta_is_target"),
        (_tiny_wasserstein(cloud={"k": 64, "sdt": 2.0}), "cloud", "sdt"),
        (_gibbs(potential={"kind": "quartic", "c": 2.0}), "potential", "c"),
    ])
    def test_unread_nested_key_names_object_and_key(self, config, obj, key):
        kind = config["scenario_kind"]
        with pytest.raises(ConfigError,
                           match=f"{obj} field '{key}' not valid for scenario kind '{kind}'"):
            parse_config(json.dumps(config))

    @pytest.mark.parametrize("config, key", [
        (_tiny_wasserstein(n_paths=100), "n_paths"),
        (_tiny_wasserstein(alpha_policy="opt"), "alpha_policy"),
        (_gibbs(n_workers=2), "n_workers"),
        (_gibbs(n_paths=100), "n_paths"),
        (_gibbs(alpha_policy=0.5), "alpha_policy"),
        (_tiny_run_config(scenario_kind="niss_vs_ode", coupling="common"), "coupling"),
    ])
    def test_key_the_kind_never_reads_is_unknown(self, config, key):
        kind = config["scenario_kind"]
        with pytest.raises(ConfigError, match=f"unknown key '{key}' for scenario kind '{kind}'"):
            parse_config(json.dumps(config))

    @pytest.mark.parametrize("config, message", [
        (_tiny_wasserstein(cloud={"mean_x": [1.0]}), "missing cloud field 'k'"),
        (_tiny_run_config(input_x={"kind": "sine", "amplitude": [1.0]}),
         "unknown input signal kind 'sine'"),
        (_tiny_run_config(input_x={"kind": "sinusoid", "omega": 2.0}),
         "missing input_x field 'amplitude'"),
        (_tiny_run_config(coupling="shared"), "invalid config field 'coupling'"),
        (_tiny_run_config(input_y={"kind": "constant", "value": [0.0, 1.0]}),
         "'input_y' has 2 components, not the system's 1"),
        (_tiny_track_didc(eq_map={"M": [[1.0, 0.0]]}),
         "'eq_map' must map the system's 1 inputs to its 1 states"),
        (_tiny_jd(theta={"kind": "sinusoid", "amplitude": [0.45], "offset": [0.5]},
                  noise={"sigma_u": 0.7, "a": [1.0]}), "Feller"),
    ])
    def test_config_is_built_at_parse(self, tmp_path, capsys, monkeypatch, config, message):
        _no_simulation(monkeypatch)
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(config))
        code = main(["run", _write(tmp_path, "bad.json", config), "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_paths_override_on_a_wasserstein_config(self, tmp_path, capsys, monkeypatch):
        _no_simulation(monkeypatch)
        config = _write(tmp_path, "w.json", _tiny_wasserstein())
        code = main(["run", config, "--paths", "100", "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert ("config error: unknown key 'n_paths' for scenario kind 'wasserstein'"
                in capsys.readouterr().err)

    def test_every_default_is_written_into_the_data(self, capsys, tmp_path):
        cfg = parse_config(json.dumps(_tiny_jd(theta={"kind": "sinusoid", "amplitude": [0.1],
                                                      "offset": [0.5]})))
        assert cfg.data["grid"] == {"t0": 0.0, "dt": 0.01, "steps": 100}
        assert cfg.data["noise"] == {"c": 1.0, "sigma_u": 0.5, "a": [1.0], "unsafe": False}
        assert cfg.data["theta"]["omega"] == 1.0 and cfg.data["theta"]["phase"] == 0.0
        assert cfg.data["u0"] == [0.5]
        assert parse_config(cfg.serialize()).data == cfg.data
        config = _write(tmp_path, "jd.json", _tiny_jd())
        assert main(["run", config, "--dry-run", "--out", str(tmp_path / "out")]) == EXIT_HOLDS
        echoed = json.loads(capsys.readouterr().out.split("verdict:")[0])
        assert echoed["noise"]["unsafe"] is False and echoed["alpha_policy"] == "opt"
        assert echoed["system"] == {"name": "scalar_tracker", "c": 1.0, "sigma": 0.2}


class TestBuildErrorsNameTheirObject:
    @pytest.mark.parametrize("config, obj, message", [
        (_minimal_niss_pair(grid={"dt": 0.01, "steps": -5}), "grid", "steps must be nonnegative"),
        (_minimal_niss_pair(grid={"dt": math.inf, "steps": 5}), "grid",
         "dt must be positive and finite"),
        (_tiny_run_config(input_x={"kind": "piecewise_linear", "times": [0.0],
                                   "values": [[0.5]]}), "input_x", "knot times must be strictly"),
        (_tiny_jd(theta={"kind": "piecewise_linear", "times": [1.0, 0.0],
                         "values": [[0.5], [0.5]]}), "theta", "knot times must be strictly"),
        (_tiny_jd(noise={"sigma_u": 0.5, "a": [-1.0]}), "noise",
         "JD upper bounds a must be positive"),
        (_tiny_track_didc(eq_map={"M": [[1.0]], "b": [0.0, 1.0]}), "eq_map",
         "cannot reshape array of size 2"),
        (_tiny_wasserstein(cloud={"k": -5}), "cloud", "negative dimensions"),
        (_tiny_wasserstein(cloud={"k": 0}), "cloud", "initial clouds are empty"),
        (_tiny_wasserstein(cloud={"k": 1}), "cloud", "initial clouds need at least 2 samples"),
        (_tiny_wasserstein(system={"A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[1.0], [0.0]],
                                   "Sigma": [[0.3, 0.0], [0.0, 0.3]]}, cloud={"k": 1}),
         "cloud", "initial clouds need at least 2 samples"),
        # dt is checked before the default steps divide by it
        (_minimal_niss_pair(grid={"dt": 0}), "grid", "dt must be positive and finite"),
        (_minimal_niss_pair(grid={"dt": 0, "steps": 5}), "grid", "dt must be positive and finite"),
        (_minimal_niss_pair(grid={"dt": -0.01}), "grid", "dt must be positive and finite"),
        (_minimal_niss_pair(grid={"dt": -0.01, "steps": 5}), "grid",
         "dt must be positive and finite"),
    ])
    def test_constructor_error_is_a_config_error(self, tmp_path, capsys, monkeypatch, config,
                                                 obj, message):
        _no_simulation(monkeypatch)
        with pytest.raises(ConfigError, match=f"invalid {obj}: {message}"):
            parse_config(json.dumps(config))
        code = main(["run", _write(tmp_path, "bad.json", config), "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert f"config error: invalid {obj}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _tiny_ou(**extra):
    return {**_tiny_jd(), "scenario_kind": "track_ou_sidc", "noise": {"sigma": 0.1}, **extra}


def _signal_with(**fields):
    return {"kind": "sinusoid", "amplitude": [0.1], **fields}


class TestConfigNumbersAreNumbers:
    """A numeric field, scalar or array, takes JSON numbers only: a string
    or a boolean anywhere in it is a ConfigError naming the object and key,
    where float() and np.asarray would have converted it."""

    @pytest.mark.parametrize("config, obj, key", [
        (_minimal_niss_pair(grid={"dt": "0.01"}), "grid", "dt"),
        (_minimal_niss_pair(grid={"dt": True}), "grid", "dt"),
        (_minimal_niss_pair(grid={"dt": [0.01]}), "grid", "dt"),
        (_minimal_niss_pair(grid={"t0": "0"}), "grid", "t0"),
        (_minimal_niss_pair(x0=["0.5"]), "config", "x0"),
        (_minimal_niss_pair(y0=[True]), "config", "y0"),
        (_minimal_niss_pair(system={"A": [["-1"]], "B": [[1.0]], "Sigma": [[0.3]]}),
         "system", "A"),
        (_minimal_niss_pair(system={"A": [[-1.0]], "B": [[1, True]], "Sigma": [[0.3]]}),
         "system", "B"),
        (_minimal_niss_pair(system={"A": [[-1.0]], "B": [[1.0]], "Sigma": [[0.3]],
                                    "P": [["1"]]}), "system", "P"),
        (_minimal_niss_pair(system={"name": "scalar_tracker", "c": "1.0", "sigma": 0.3}),
         "system", "c"),
        (_minimal_niss_pair(system={"name": "scalar_tracker", "c": 1.0, "sigma": False}),
         "system", "sigma"),
        (_minimal_niss_pair(input_x={"kind": "constant", "value": ["1"]}), "input_x", "value"),
        (_minimal_niss_pair(input_x=_signal_with(amplitude=[True])), "input_x", "amplitude"),
        (_minimal_niss_pair(input_x=_signal_with(omega="1")), "input_x", "omega"),
        (_minimal_niss_pair(input_x=_signal_with(phase=True)), "input_x", "phase"),
        (_minimal_niss_pair(input_y=_signal_with(offset=["0"])), "input_y", "offset"),
        (_tiny_jd(theta={"kind": "piecewise_linear", "times": ["0", "1"],
                         "values": [[0.5], [0.5]]}), "theta", "times"),
        (_tiny_jd(theta={"kind": "piecewise_linear", "times": [0, 1],
                         "values": [[0.5], ["0.5"]]}), "theta", "values"),
        (_tiny_jd(eq_map={"M": [[True]]}), "eq_map", "M"),
        (_tiny_jd(eq_map={"M": [[1.0]], "b": ["0"]}), "eq_map", "b"),
        (_tiny_jd(noise={"sigma_u": "0.5", "a": [1.0]}), "noise", "sigma_u"),
        (_tiny_jd(noise={"sigma_u": 0.5, "a": ["1"]}), "noise", "a"),
        (_tiny_jd(noise={"c": True, "sigma_u": 0.5, "a": [1.0]}), "noise", "c"),
        (_tiny_jd(u0=["0.5"]), "config", "u0"),
        (_tiny_ou(noise={"sigma": "0.1"}), "noise", "sigma"),
        (_tiny_ou(xi0=[False]), "config", "xi0"),
        (_tiny_wasserstein(cloud={"k": 64, "std": "1"}), "cloud", "std"),
        (_tiny_wasserstein(cloud={"k": 64, "mean_x": ["0"]}), "cloud", "mean_x"),
        (_gibbs(potential={"kind": "quadratic", "c": "1"}), "potential", "c"),
        (_gibbs(sigma="1.0"), "config", "sigma"),
    ])
    def test_a_string_or_bool_is_not_a_number(self, config, obj, key):
        with pytest.raises(ConfigError, match=f"invalid {obj} field '{key}': value must be "):
            parse_config(json.dumps(config))

    @pytest.mark.parametrize("unsafe", ["false", "true", 0, 1, 0.0, None, [False]])
    def test_unsafe_takes_a_json_boolean_only(self, unsafe):
        # sigma_u = 2 breaks the Feller condition: a truthy non-boolean
        # would switch its check off
        config = _feller_violation()
        config["noise"]["unsafe"] = unsafe
        with pytest.raises(ConfigError, match=f"invalid noise field 'unsafe': value must be "
                                              f"true or false, got {re.escape(repr(unsafe))}"):
            parse_config(json.dumps(config))

    def test_unsafe_booleans_switch_the_feller_check(self):
        config = _feller_violation()
        config["noise"]["unsafe"] = True
        assert parse_config(json.dumps(config))._run.scenario.noise.unsafe is True
        config["noise"]["unsafe"] = False
        with pytest.raises(ConfigError, match="Feller"):
            parse_config(json.dumps(config))

    def test_numbers_of_every_json_form_are_accepted(self):
        cfg = parse_config(json.dumps(_tiny_jd(grid={"dt": 1e-2, "steps": 100}, x0=[1],
                                               noise={"sigma_u": 0, "a": [1]})))
        assert cfg.data["x0"] == [1] and cfg._run.scenario.noise.a.dtype == float

    def test_a_config_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys):
        for data in ([1], "niss_pair", None):
            with pytest.raises(ConfigError, match="config must be a JSON object"):
                ScenarioConfig("niss_pair", data)
        code = main(["run", _write(tmp_path, "list.json", [1]), "--paths", "200"])
        assert code == EXIT_ERROR
        assert "config must be a JSON object" in capsys.readouterr().err


class TestGibbsKind:
    def test_shipped_config_writes_its_bundle(self, tmp_path):
        cfg = parse_config((CONFIG_DIR / "gibbs_quadratic.json").read_text(encoding="utf-8"))
        verdict = run_scenario(cfg, tmp_path / "bundle")
        assert verdict.holds
        bundle = tmp_path / "bundle"
        assert sorted(p.name for p in bundle.iterdir()) == [
            "certificate.json", "gibbs.csv", "plotdata.csv", "verdict.json"]
        written = json.loads((bundle / "verdict.json").read_text(encoding="utf-8"))
        assert set(written) == {"scenario_kind", "holds", "worst_margin", "worst_t",
                                "slack_rule", "ks_stat", "residual", "n_samples"}
        assert written["scenario_kind"] == "gibbs" and written["holds"] is True
        assert written["worst_t"] == 200.0
        assert written["n_samples"] == 40000 // 200 - 10 + 1  # burn 10 / c, one per unit time
        assert 0.0 <= written["ks_stat"] <= 1.63 / math.sqrt(written["n_samples"])
        cert = json.loads((bundle / "certificate.json").read_text(encoding="utf-8"))
        assert cert["stationary_variance_quadratic"] == 0.5
        rows = (bundle / "gibbs.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "x,density_model" and len(rows) == 2002

    @pytest.mark.parametrize("potential, grid", [
        # c = 0 used to reach default_dt(c) and fail as a division by zero
        ({"kind": "quadratic", "c": 0}, {"dt": 0.01, "steps": 2000}),
        ({"kind": "quadratic", "c": 0}, {}),
        # c = -1 used to parse and then fail in the run on a math domain error
        ({"kind": "quadratic", "c": -1.0}, {"dt": 0.01, "steps": 2000}),
        ({"kind": "quadratic", "c": math.inf}, {"dt": 0.01, "steps": 2000}),
    ])
    def test_curvature_checked_at_parse(self, tmp_path, capsys, potential, grid):
        config = _gibbs(potential=potential, grid=grid)
        message = "invalid potential field 'c': the curvature must be positive and finite"
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps(config))
        code = main(["run", _write(tmp_path, "bad.json", config), "--out", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_diverging_chain_raises_and_leaves_no_bundle(self, tmp_path):
        cfg = parse_config(json.dumps(_gibbs(potential={"kind": "quartic"},
                                             grid={"dt": 0.5, "steps": 200}, master_seed=3)))
        with pytest.raises(DivergenceError, match="non-finite Gibbs chain state at step"):
            run_scenario(cfg, tmp_path / "bundle")
        assert list(tmp_path.iterdir()) == []

"""Config validation, scenario runners, exit codes, deterministic outputs."""

import json
import math
import os

import pytest

from extphase.cli import SCHEMAS, ScenarioConfig, main, run, validate


def write_config(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def test_validate_minimal_config():
    config, errors = validate({"scenario": "lorentz"})
    assert errors == []
    assert config.params["beta_x"] == 0.6
    assert config.seed == 0


def test_validate_collects_all_errors():
    _, errors = validate({"scenario": "nope", "bogus": 1,
                          "params": {"alpha": 2}, "seed": "x"})
    assert len(errors) >= 3
    assert any("unknown key 'bogus'" in e for e in errors)
    assert any("seed" in e for e in errors)


def test_validate_rejects_unknown_param():
    _, errors = validate({"scenario": "lorentz", "params": {"beta_w": 0.1}})
    assert any("beta_w" in e for e in errors)


def test_validate_rejects_superluminal_beta():
    _, errors = validate({"scenario": "lorentz",
                          "params": {"beta_x": 0.8, "beta_y": 0.8}})
    assert any("beta" in e for e in errors)


def test_validate_vector_lengths():
    _, errors = validate({"scenario": "oscillator",
                          "params": {"n": 2, "q0": [1.0]}})
    assert any("q0" in e for e in errors)


def test_validate_tolerance_overrides():
    config, errors = validate({"scenario": "lorentz",
                               "tolerances": {"rel_tol": 1e-9}})
    assert errors == []
    assert config.tolerances.rel_tol == 1e-9
    _, errors = validate({"scenario": "lorentz",
                          "tolerances": {"rel_tol": -1.0}})
    assert errors


def test_every_scenario_has_schema_defaults():
    for scenario, schema in SCHEMAS.items():
        for name, (default, check, doc) in schema.items():
            assert doc
            if check is not None and default is not None:
                assert check(default), (scenario, name)


def test_run_bracket_suite(tmp_path):
    config = ScenarioConfig(scenario="bracket-suite",
                            params={"count": 20}, output_dir=str(tmp_path))
    report = run(config)
    assert report.passed
    assert report.metrics["bracket_max_error"] < 1e-12
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["pass"] is True
    assert payload["scenario"] == "bracket-suite"


def test_run_lorentz_metrics(tmp_path):
    config = ScenarioConfig(scenario="lorentz",
                            params={"beta_x": 0.6, "beta_y": 0.0,
                                    "beta_z": 0.0, "c": 1.0, "count": 5},
                            output_dir=str(tmp_path), seed=1)
    report = run(config)
    assert report.passed
    assert report.metrics["gamma"] == pytest.approx(1.25, abs=1e-14)
    assert report.metrics["time_global"] == 0.0
    assert report.metrics["symplectic_residual_max"] < 1e-12


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path / "ok.json",
                       {"scenario": "bracket-suite",
                        "params": {"count": 10}, "seed": 3})
    code = main(["run", cfg, "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "bracket-suite: PASS" in out
    assert os.path.exists(tmp_path / "out" / "report.json")


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path / "bad.json", {"scenario": "nope"})
    assert main(["run", bad]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", str(broken)]) == 2
    assert "JSON parse error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_validate_and_list(tmp_path, capsys):
    cfg = write_config(tmp_path / "v.json", {"scenario": "kepler-direct"})
    assert main(["validate", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "kepler-direct"
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for scenario in SCHEMAS:
        assert scenario in out


def test_cli_no_command_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_deterministic_outputs(tmp_path):
    cfg = {"scenario": "ks", "params": {"count": 30, "count_symplectic": 2},
           "seed": 9}
    a, b = tmp_path / "a", tmp_path / "b"
    run(ScenarioConfig(scenario="ks", params=validate(cfg)[0].params,
                       output_dir=str(a), seed=9))
    run(ScenarioConfig(scenario="ks", params=validate(cfg)[0].params,
                       output_dir=str(b), seed=9))
    assert (a / "report.json").read_text() == (b / "report.json").read_text()


def test_seed_changes_probe_points(tmp_path):
    cfg, _ = validate({"scenario": "ks",
                       "params": {"count": 30, "count_symplectic": 2}})
    r1 = run(ScenarioConfig(scenario="ks", params=cfg.params,
                            output_dir=str(tmp_path / "s1"), seed=1))
    r2 = run(ScenarioConfig(scenario="ks", params=cfg.params,
                            output_dir=str(tmp_path / "s2"), seed=2))
    assert r1.passed and r2.passed
    assert r1.metrics != r2.metrics


def test_kepler_direct_reports_stall(tmp_path):
    cfg, errors = validate({"scenario": "kepler-direct",
                            "params": {"K2": 1.0, "x0": 1.0, "p0": 0.0,
                                       "t_end": 3.0}})
    assert not errors
    cfg.output_dir = str(tmp_path)
    report = run(cfg)
    assert report.passed
    assert report.metrics["stalled"] == 1.0
    assert (tmp_path / "report.json").exists()


def test_validate_rejects_non_finite_numbers():
    # validation only: at least t_end = inf would never finish running
    for obj in ({"scenario": "kepler-direct", "params": {"t_end": math.inf}},
                {"scenario": "oscillator", "params": {"eps": math.nan}},
                {"scenario": "potential", "params": {"q0": [math.nan]}},
                {"scenario": "lorentz", "tolerances": {"rel_tol": math.nan}},
                {"scenario": "lorentz", "tolerances": {"max_step": math.inf}},
                # finite, but no float can hold it
                {"scenario": "kepler-direct", "params": {"t_end": 10 ** 400}},
                # not non-finite, but it hangs a stalling run the same way
                {"scenario": "kepler-direct",
                 "tolerances": {"min_step": 0}}):
        config, errors = validate(obj)
        assert config is None and errors, obj


def test_cli_validate_non_finite_exits_2(tmp_path, capsys):
    for text in ('{"scenario": "kepler-direct", "params": {"t_end": Infinity}}',
                 '{"scenario": "oscillator", "params": {"eps": NaN}}',
                 '{"scenario": "lorentz", "tolerances": {"rel_tol": NaN}}'):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert "error" in capsys.readouterr().err


def test_kepler_regularized_counts_collisions(tmp_path):
    # the default orbit starts at its maximum x0 = 2 and bounces off x = 0
    # once, at t' = pi
    cfg, errors = validate({"scenario": "kepler-regularized"})
    assert not errors
    cfg.output_dir = str(tmp_path / "default")
    report = run(cfg)
    assert report.passed
    assert report.metrics["collision_count"] == 1.0
    # three fictitious periods 2 pi / omega, omega^2 = -2 e0, three bounces
    K2, x0, p0 = 1.0, 1.0, 0.5
    omega = math.sqrt(-2.0 * (0.5 * p0 ** 2 - K2 / x0))
    cfg, errors = validate({"scenario": "kepler-regularized",
                            "params": {"K2": K2, "x0": x0, "p0": p0,
                                       "tprime_end": 6.0 * math.pi / omega}})
    assert not errors
    cfg.output_dir = str(tmp_path / "three")
    report = run(cfg)
    assert report.passed
    assert report.metrics["collision_count"] == 3.0

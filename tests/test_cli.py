"""Config validation, scenario runners, exit codes, deterministic outputs."""

import json
import math
import os
import random

import numpy as np
import pytest

from extphase import lagrangian, numkit, tdsystems
from extphase.cli import (SCHEMAS, ScenarioConfig, _run_lagrangian_check,
                          _run_oscillator, _run_potential, main, run, validate)


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
    # the free fall from rest at x0 = 1 reaches x = 0 at pi/2 sqrt(x0^3/2K^2)
    stall = report.metrics["stall_time"]
    assert abs(stall - math.pi / 2.0 * math.sqrt(0.5)) <= 1e-9
    last = (tmp_path / "kepler_direct.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) <= 0.98 * stall


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
                 "tolerances": {"min_step": 0}},
                # finite, but past the bounds on horizon, count and dimension
                {"scenario": "kepler-regularized",
                 "params": {"tprime_end": 1e6}},
                {"scenario": "kepler-direct", "params": {"t_end": 4e4}},
                {"scenario": "ks", "params": {"count": 10 ** 9}},
                {"scenario": "ks", "params": {"count_symplectic": 10 ** 6}},
                {"scenario": "oscillator", "params": {"n": 10 ** 6}},
                {"scenario": "potential", "params": {"n": 101}},
                # JSON true is a Python int, but not a count
                {"scenario": "ks", "params": {"count": True}}):
        config, errors = validate(obj)
        assert config is None and errors, obj


def test_cli_validate_non_finite_exits_2(tmp_path, capsys):
    for text in ('{"scenario": "kepler-direct", "params": {"t_end": Infinity}}',
                 '{"scenario": "oscillator", "params": {"eps": NaN}}',
                 '{"scenario": "lorentz", "tolerances": {"rel_tol": NaN}}',
                 '{"scenario": "kepler-regularized", '
                 '"params": {"tprime_end": 1e6}}',
                 '{"scenario": "lorentz", "params": {"count": 1000000000}}',
                 '{"scenario": "oscillator", "params": {"n": 1000000}}'):
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


def test_potential_columns_match_per_sample_reference(monkeypatch):
    # the runner's batched det and Xi^T triple against one call per sample
    seen = []
    transfer_matrix = tdsystems.transfer_matrix

    def keep(*args, **kwargs):
        seen.append(transfer_matrix(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(tdsystems, "transfer_matrix", keep)
    cfg, errors = validate({"scenario": "potential",
                            "params": {"n": 2, "t_end": 3.0}})
    assert not errors
    metrics, passed, [(_, _, rows)] = _run_potential(
        cfg.params, random.Random(0), cfg.tolerances)
    assert passed
    (traj, Xi), = seen
    n = 2
    triple0 = tdsystems.invariant_triple(traj.states[0, :n],
                                         traj.states[0, n:2 * n],
                                         traj.states[0, 2 * n])
    dets = [float(np.linalg.det(m)) for m in Xi]
    backs = [m.T @ tdsystems.invariant_triple(y[:n], y[n:2 * n], y[2 * n])
             for y, m in zip(traj.states, Xi)]
    assert rows[:, 2 * n + 5].tolist() == dets
    assert np.array_equal(rows[:, 2 * n + 6:], np.array(backs))
    assert metrics["det_xi_error"] == max(abs(d - 1.0) for d in dets)
    assert metrics["invariant_triple_error_max"] == max(
        float(np.max(np.abs(b - triple0))) for b in backs)


def test_step_budget_exit_codes(tmp_path, capsys, monkeypatch):
    # at least 1e4 / 1e-6 = 1e10 steps: rejected before it runs
    cfg = write_config(tmp_path / "long.json",
                       {"scenario": "kepler-regularized",
                        "params": {"tprime_end": 1e4},
                        "tolerances": {"max_step": 1e-6}})
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        assert "step budget" in capsys.readouterr().err
    # a run that exhausts the budget fails with exit 1, not as a stall
    monkeypatch.setattr(numkit, "MAX_STEPS", 100)
    cfg = write_config(tmp_path / "direct.json", {"scenario": "kepler-direct"})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"].startswith("StepBudgetError")
    assert report["metrics"] == {"runner_failed": 1.0}


def test_oscillator_seeds_coefficients_once_per_sample(monkeypatch):
    # the Leach invariant and the positivity residual of a sampled point
    # share one seeding of the coefficients; the RHS kernel traces one more
    calls = []
    coefficients = tdsystems.OscillatorSpec.coefficients

    def counted(self, t):
        calls.append(t)
        return coefficients(self, t)

    monkeypatch.setattr(tdsystems.OscillatorSpec, "coefficients", counted)
    cfg, errors = validate({"scenario": "oscillator",
                            "params": {"t_end": 5.0}})
    assert not errors
    metrics, passed, [(_, _, rows)] = _run_oscillator(
        cfg.params, random.Random(0), cfg.tolerances)
    assert passed
    samples = len(range(0, len(rows), max(1, len(rows) // 200)))
    assert len(calls) == samples + 1


def test_lagrangian_check_evaluates_paired_h_once_per_probe(monkeypatch):
    # each paired.H evaluation is one Newton solve for the velocities
    solves = []
    newton_solve = numkit.newton_solve

    def counted(residual, x0):
        solves.append(x0)
        return newton_solve(residual, x0)

    monkeypatch.setattr(numkit, "newton_solve", counted)
    cfg, errors = validate({"scenario": "lagrangian-check",
                            "params": {"count": 5}})
    assert not errors
    metrics, passed, _ = _run_lagrangian_check(
        cfg.params, random.Random(0), cfg.tolerances)
    assert passed
    assert len(solves) == 5


def test_lagrangian_check_fails_on_wrong_time_momentum(tmp_path, capsys,
                                                       monkeypatch):
    # legendre_agreement_max compares h1 with H1 at e = -p_{n+1}, so a
    # shifted p_{n+1} shows
    legendre_to_h1 = lagrangian.legendre_to_h1

    def shifted(sys, pt):
        p, p_np1, h1 = legendre_to_h1(sys, pt)
        return p, p_np1 + 1e-6, h1

    monkeypatch.setattr(lagrangian, "legendre_to_h1", shifted)
    cfg = write_config(tmp_path / "lag.json",
                       {"scenario": "lagrangian-check",
                        "params": {"count": 5}})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "lagrangian-check: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metrics"]["legendre_agreement_max"] > 1e-7

"""Config validation, scenario runners, exit codes, deterministic outputs."""

import contextlib
import io
import json
import math
import os
import random
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extphase import lagrangian, numkit, tdsystems
from extphase.cli import (SCHEMAS, ScenarioConfig, _atomic_write, _csv_lines,
                          _run_lagrangian_check, _run_lorentz, _run_oscillator,
                          _run_potential, main, run, validate)


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


@pytest.mark.parametrize("key", ["beta_x", "beta_y", "beta_z"])
@pytest.mark.parametrize("value", [1e200, -1e200])
def test_validate_rejects_huge_beta(tmp_path, capsys, key, value):
    # |beta|^2 overflows to inf, which fails |beta| < 1 like beta = 2
    config = {"scenario": "lorentz", "params": {key: value}}
    _, errors = validate(config)
    assert errors == ["beta must satisfy |beta| < 1"]
    path = write_config(tmp_path / "cfg.json", config)
    assert main(["validate", path]) == 2
    assert "beta" in capsys.readouterr().err


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


def test_cli_config_not_utf8_exits_2(tmp_path, capsys):
    # a \xff byte inside a JSON string: the read fails, not the parse
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"scenario": "ks", "output_dir": "\xff"}')
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err and "Traceback" not in err


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


def test_rhs_overflow_is_a_typed_failure(tmp_path, capsys):
    # e^{f t} with f = 1e8 overflows math.exp within the first steps; the
    # run must end through DomainEvaluationError, not a bare OverflowError
    cfg = write_config(tmp_path / "overflow.json", {
        "scenario": "oscillator",
        "params": {"eps": 1e-300, "f": 1e8, "q0": [0.001, 1e-300],
                   "p0": [0.5, 2.0]},
        "seed": 74, "tolerances": {"max_step": 0.001}})
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"].startswith("DomainEvaluationError")
    assert "OverflowError" in report["error"]
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
    # each paired.H evaluation is one Newton solve for the velocities: the
    # first probe's runs on floats, the second's over leaves, which traces
    # the paired H's kernel, and the others run on that kernel
    solves = []
    newton_solve = numkit.newton_solve

    def counted(residual, x0, *jacobian):
        solves.append(x0)
        return newton_solve(residual, x0, *jacobian)

    monkeypatch.setattr(numkit, "newton_solve", counted)
    cfg, errors = validate({"scenario": "lagrangian-check",
                            "params": {"count": 5}})
    assert not errors
    metrics, passed, _ = _run_lagrangian_check(
        cfg.params, random.Random(0), cfg.tolerances)
    assert passed
    assert [numkit._floats(x0) for x0 in solves] == [True, False]


@pytest.mark.parametrize("scenario, runner, solve", [
    ("lorentz", _run_lorentz, "_root"),
    ("lagrangian-check", _run_lagrangian_check, "h"),
    ("oscillator", _run_oscillator, "flow"),
    ("potential", _run_potential, "derivatives"),
])
def test_scenario_kernels_take_no_guard_fallback(monkeypatch, scenario,
                                                 runner, solve):
    # the Newton solves of lorentz (the boost's applies) and lagrangian-check
    # (the paired H), and the right-hand sides of oscillator and potential,
    # run on kernels: once traced, a fn runs only inside its kernel, never
    # on floats for a failed guard or an aborted trace
    traced, fallbacks = [], []
    on_first_call = numkit._trace_on_first_call

    def recorded(fn, warm=False):
        def counted(x):
            if not numkit._floats(x):
                traced.append(fn)
            elif fn in traced:
                fallbacks.append(fn)
            return fn(x)
        return on_first_call(counted, warm)

    monkeypatch.setattr(numkit, "_trace_on_first_call", recorded)
    params = {"t_end": 5.0} if scenario in ("oscillator", "potential") \
        else {"count": 8}
    cfg, errors = validate({"scenario": scenario, "params": params})
    assert not errors
    _, passed, _ = runner(cfg.params, random.Random(0), cfg.tolerances)
    assert passed
    assert solve in {getattr(fn, "func", fn).__name__ for fn in traced}
    assert fallbacks == []


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


def test_kepler_direct_overflowing_start_passes_without_warnings(tmp_path,
                                                                 capsys):
    # at x0 = 1e160, x^2 overflows to inf in float64: the right-hand side
    # and the energy column take the inf silently and the run passes
    cfg = write_config(tmp_path / "far.json", {"scenario": "kepler-direct",
                                               "params": {"x0": 1e160}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "3"]) == 0
    assert "kepler-direct: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("scenario, params", [
    ("kepler-regularized", {"p0": 1e200}),  # p0 ** 2 overflows
    ("kepler-direct", {"x0": 1e-320}),  # K2 / x0 is inf
    ("kepler-regularized", {"K2": 1e300, "x0": 1e-10}),
])
def test_nonfinite_initial_energy_is_a_typed_failure(tmp_path, capsys,
                                                     scenario, params):
    cfg = write_config(tmp_path / "start.json",
                       {"scenario": scenario, "params": params})
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"] \
        == "DomainEvaluationError: initial energy not finite"
    assert report["metrics"] == {"runner_failed": 1.0}


_ball = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda b: b[0] ** 2 + b[1] ** 2 + b[2] ** 2 < 1.0)


@given(c=st.floats(-300.0, 300.0).map(lambda k: 10.0 ** k), beta=_ball,
       count=st.integers(1, 3))
@example(c=1e200, beta=(0.6, 0.0, 0.0), count=10)
@settings(max_examples=50, deadline=None)
def test_lorentz_any_speed_of_light_ends_in_a_report(c, beta, count):
    # every c that passes validate ends with a report and exit 0 or 1, never
    # a bare exception or a line on stderr; an m^2 c^4 beyond the float
    # range (c above about 1.2e77) is a typed runner failure
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(os.path.join(tmp, "lorentz.json"), {
            "scenario": "lorentz",
            "params": {"c": c, "beta_x": beta[0], "beta_y": beta[1],
                       "beta_z": beta[2], "count": count}})
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            assert main(["validate", cfg]) == 0
            code = main(["run", cfg, "--out", out])
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
    assert code in (0, 1)
    assert err.getvalue() == ""
    if c > 1.2e77:
        assert report["metrics"] == {"runner_failed": 1.0}
        assert report["error"] \
            == "DomainEvaluationError: m^2 c^4 overflows a float"


def _per_value_csv_text(header, rows):
    """The CSV text as the CLI once built it, value by value."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


def test_streamed_csv_matches_per_value_text(tmp_path):
    header = ("t", "a", "b", "c")
    rows = np.array([
        [-0.0, math.nan, math.inf, -math.inf],
        [5e-324, 1e308, -1.7976931348623157e308, 2.2250738585072014e-308],
        [0.1 + 0.2, 1.0 / 3.0, -2.718281828459045, 123456789012345678.0],
        [0.0, 1.0, -1e-300, 9007199254740993.0]])
    for table in (rows, rows[:0]):
        path = tmp_path / "table.csv"
        _atomic_write(str(path), _csv_lines(header, table))
        assert path.read_bytes() \
            == _per_value_csv_text(header, table).encode()


def test_failed_streamed_write_leaves_no_file(tmp_path):
    def lines():
        yield "t,x\n"
        yield "0,1\n"
        raise RuntimeError("row failed")

    with pytest.raises(RuntimeError, match="row failed"):
        _atomic_write(str(tmp_path / "table.csv"), lines())
    assert os.listdir(tmp_path) == []
    # an existing target keeps its old text
    (tmp_path / "table.csv").write_text("old\n")
    with pytest.raises(RuntimeError, match="row failed"):
        _atomic_write(str(tmp_path / "table.csv"), lines())
    assert os.listdir(tmp_path) == ["table.csv"]
    assert (tmp_path / "table.csv").read_text() == "old\n"

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jumpkit
from jumpkit.cli import MAX_COUNT, main, parse_config
from jumpkit.errors import ConfigError


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


RACE_DOC = {
    "kind": "pattern-race",
    "seed": 1,
    "parameters": {
        "patterns": [[1, 1], [0, 0]],
        "source": {"type": "iid", "symbols": [0, 1], "probs": [0.5, 0.5]},
        "n_trials": 2000,
    },
}


# ---------------------------------------------------------------------------
# parsing


def test_parse_valid_race_config():
    scenario = parse_config(RACE_DOC)
    assert scenario.kind == "pattern-race"
    assert scenario.seed == 1


def test_parse_missing_seed():
    doc = {k: v for k, v in RACE_DOC.items() if k != "seed"}
    with pytest.raises(ConfigError, match="missing field: seed"):
        parse_config(doc)


def test_parse_unknown_kind():
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config({**RACE_DOC, "kind": "frobnicate"})


def test_missing_seed_exit_code(tmp_path, capsys):
    doc = {k: v for k, v in RACE_DOC.items() if k != "seed"}
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    assert "missing field: seed" in capsys.readouterr().err


def test_unknown_kind_exit_code(tmp_path, capsys):
    doc = {**RACE_DOC, "kind": "frobnicate"}
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    assert "unknown kind" in capsys.readouterr().err


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "malformed JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# execution and determinism


def test_pattern_race_outputs_and_determinism(tmp_path, capsys):
    config = write_config(tmp_path, RACE_DOC)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", str(config), "--out", str(out_a)]) == 0
    assert main(["--config", str(config), "--out", str(out_b), "--workers", "8"]) == 0
    a = (out_a / "pattern_race.csv").read_bytes()
    b = (out_b / "pattern_race.csv").read_bytes()
    assert a == b
    text = a.decode()
    assert text.splitlines()[0] == "name,value,stderr,n"
    assert "P_1" in text and "E_T_min" in text and "mc_P_1" in text


def test_pattern_race_seed_changes_mc(tmp_path):
    config = write_config(tmp_path, RACE_DOC)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["--config", str(config), "--out", str(out_a)])
    main(["--config", str(config), "--out", str(out_b), "--seed", "2"])
    a = (out_a / "pattern_race.csv").read_text()
    b = (out_b / "pattern_race.csv").read_text()
    assert a != b
    # analytic rows stay identical; only Monte Carlo rows move
    assert a.splitlines()[1] == b.splitlines()[1]


def test_hypothesis_violation_exit_code(tmp_path, capsys):
    doc = {
        "kind": "pattern-expect",
        "seed": 3,
        "parameters": {
            "pattern": [1, 1, 1],
            "source": {"type": "iid", "symbols": [0, 1], "probs": [0.5, 0.5]},
            "closed_form": True,
        },
    }
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 4
    assert "hypothesis violation" in capsys.readouterr().err


def test_pattern_expect_closed_form_and_oracle(tmp_path):
    doc = {
        "kind": "pattern-expect",
        "seed": 3,
        "parameters": {
            "pattern": [1, 1],
            "source": {"type": "iid", "symbols": [0, 1], "probs": [0.5, 0.5]},
        },
    }
    assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "pattern_expect.csv").read_text().splitlines()
    values = {line.split(",")[0]: float(line.split(",")[1]) for line in rows[1:]}
    assert values["closed_form"] == pytest.approx(6.0)
    assert values["automaton"] == pytest.approx(6.0)


def test_simulate_path_schema(tmp_path):
    doc = {
        "kind": "simulate",
        "seed": 11,
        "parameters": {
            "x0": 1.0, "horizon": 1.0, "dt": 0.01,
            "drift": {"type": "linear", "rate": -1.0},
            "diffusion": {"type": "constant", "value": 0.0},
            "jump_intensity": 2.0,
            "marks": {"type": "discrete", "values": [1.0], "probs": [1.0]},
            "compensated": False,
        },
    }
    assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "simulate.csv").read_text().splitlines()
    assert lines[0] == "t,x,jump_flag,intervention_flag,impulse"
    flags = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(flags) >= 1  # at least one jump recorded at rate 2 on [0, 1] usually
    assert all(line.split(",")[3] == "0" for line in lines[1:])


def test_renewal_check_blackwell(tmp_path):
    doc = {
        "kind": "renewal-check",
        "seed": 5,
        "parameters": {
            "check": "blackwell",
            "interarrival": {"type": "exponential", "rate": 1.0},
            "mode": "nonlattice",
            "t": 10.0, "a": 2.0, "n_paths": 500,
        },
    }
    assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "renewal_check.csv").read_text().splitlines()
    values = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
    assert values["limit"] == 2.0
    assert abs(values["blackwell_nonlattice"] - 2.0) < 0.5


def test_json_format(tmp_path):
    config = write_config(tmp_path, RACE_DOC)
    assert main(["--config", str(config), "--out", str(tmp_path), "--format", "json"]) == 0
    payload = json.loads((tmp_path / "pattern_race.json").read_text())
    assert payload["columns"][0] == "name"
    assert any(row[0] == "P_1" for row in payload["rows"])


def test_impulse_solve_and_verify_smoke(tmp_path):
    bench = {"grid_step": 0.02, "grid_lo": -5.0, "grid_hi": 5.0, "jump_size": 0.6}
    solve_doc = {"kind": "impulse-solve", "seed": 9, "parameters": {"benchmark": bench}}
    assert main(["--config", str(write_config(tmp_path, solve_doc, "s.json")),
                 "--out", str(tmp_path)]) == 0
    qvi_lines = (tmp_path / "impulse_solve.csv").read_text().splitlines()
    assert qvi_lines[0] == "x,L_phi_plus_l,phi_minus_Mphi,region"
    assert qvi_lines[1].split(",")[3] in {"action", "continuation"}
    summary = (tmp_path / "impulse_solve_summary.csv").read_text()
    assert "band_hi" in summary and "value_at_zero" in summary

    verify_doc = {
        "kind": "impulse-verify", "seed": 10,
        "parameters": {"benchmark": bench, "n_paths": 400, "dt": 5e-3,
                       "horizon": 8.0, "y0": [0.0]},
    }
    assert main(["--config", str(write_config(tmp_path, verify_doc, "v.json")),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "impulse_verify.csv").read_text().splitlines()
    assert lines[0] == "check,y0,phi,cost,stderr,passed"
    assert any(line.startswith("equality") for line in lines[1:])
    assert any(line.startswith("dominance_") for line in lines[1:])


def test_cli_and_pattern_race_leave_scipy_interpolate_unloaded(tmp_path):
    # CandidateValue builds its own spline, so no run pays for importing scipy.interpolate
    race = write_config(tmp_path, RACE_DOC)
    solve = write_config(tmp_path, {"kind": "impulse-solve", "seed": 1,
                                    "parameters": {"benchmark": {"grid_step": 0.02}}}, "s.json")
    verify = write_config(tmp_path, {"kind": "impulse-verify", "seed": 1,
                                     "parameters": {"n_paths": 8, "dt": 0.01}}, "v.json")
    script = f"""
import sys
import jumpkit.cli
assert "scipy.interpolate" not in sys.modules, "loaded by import jumpkit.cli"
for config, kind in [({str(race)!r}, "pattern-race"), ({str(solve)!r}, "impulse-solve"),
                     ({str(verify)!r}, "impulse-verify")]:
    assert jumpkit.cli.main(["--config", config, "--out", {str(tmp_path)!r}]) == 0
    assert "scipy.interpolate" not in sys.modules, "loaded by the " + kind + " run"
"""
    src = str(Path(jumpkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for table in ("pattern_race", "impulse_solve", "impulse_verify"):
        assert (tmp_path / f"{table}.csv").is_file()


def test_float_formatting_17_digits(tmp_path):
    doc = {
        "kind": "pattern-race",
        "seed": 1,
        "parameters": {
            "patterns": [[1, 0], [0, 1]],
            "source": {"type": "iid", "symbols": [0, 1], "probs": [1 / 3, 2 / 3]},
        },
    }
    main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    lines = (tmp_path / "pattern_race.csv").read_text().splitlines()
    for line in lines[1:]:
        value = line.split(",")[1]
        assert float(value) == float(f"{float(value):.17g}")  # round-trips exactly


SIMULATE_DOC = {
    "kind": "simulate",
    "seed": 11,
    "parameters": {
        "x0": 1.0, "horizon": 1.0, "dt": 0.01,
        "drift": {"type": "linear", "rate": -1.0},
        "diffusion": {"type": "constant", "value": 0.2},
    },
}


@pytest.mark.parametrize("field,literal", [
    ("dt", "NaN"), ("x0", "Infinity"), ("horizon", "-Infinity"), ("dt", "1e999"),
])
def test_non_finite_numbers_rejected(tmp_path, capsys, field, literal):
    doc = {**SIMULATE_DOC, "parameters": {**SIMULATE_DOC["parameters"], field: 123.25}}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(doc).replace("123.25", literal), encoding="utf-8")
    code = main(["--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    assert f"non-finite number {literal}" in capsys.readouterr().err
    assert not (tmp_path / "simulate.csv").exists()


def test_non_finite_nested_list_entry_rejected(tmp_path, capsys):
    doc = {**RACE_DOC, "parameters": {**RACE_DOC["parameters"], "source": {
        "type": "iid", "symbols": [0, 1], "probs": [0.5, float("nan")]}}}
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    assert "non-finite number NaN" in capsys.readouterr().err


def test_invalid_iid_probabilities_exit_code(tmp_path, capsys):
    doc = {
        "kind": "pattern-expect",
        "seed": 3,
        "parameters": {
            "pattern": [1, 1],
            "source": {"type": "iid", "symbols": [0, 1], "probs": [0.7, 0.7]},
        },
    }
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    assert "summing to 1" in capsys.readouterr().err
    assert not (tmp_path / "pattern_expect.csv").exists()


IMPULSE_VERIFY_DOC = {
    "kind": "impulse-verify",
    "seed": 4,
    "parameters": {"benchmark": {"grid_step": 0.02}, "n_paths": 8, "dt": 0.01},
}


def _with_parameters(doc, **changes):
    return {**doc, "parameters": {**doc["parameters"], **changes}}


EXPECT_DOC = {
    "kind": "pattern-expect",
    "seed": 3,
    "parameters": {"pattern": [1, 1],
                   "source": {"type": "iid", "symbols": [0, 1], "probs": [0.5, 0.5]}},
}


@pytest.mark.parametrize("doc", [
    _with_parameters(IMPULSE_VERIFY_DOC, benchmark={"fixed_cost": "x"}),
    _with_parameters(IMPULSE_VERIFY_DOC, benchmark={"fixed_cost": [1]}),
    _with_parameters(IMPULSE_VERIFY_DOC, benchmark={"fixed_cost": True}),
    _with_parameters(IMPULSE_VERIFY_DOC, y0=["a"]),
    _with_parameters(IMPULSE_VERIFY_DOC, alternatives=[{"band_delta": "w"}]),
    _with_parameters(IMPULSE_VERIFY_DOC, dt=10**330),
    _with_parameters(RACE_DOC, source={"type": "iid", "symbols": [0, 1], "probs": ["a", 0.5]}),
    _with_parameters(RACE_DOC, source={"type": "markov", "states": [0, 1],
                                       "matrix": [[0.5, 0.5], ["a", 0.5]]}),
    _with_parameters(RACE_DOC, source={"type": "markov", "states": [0, 1],
                                       "matrix": [[0.5, 0.5], [1.0]]}),
    _with_parameters(RACE_DOC, n_trials="many"),
    _with_parameters(SIMULATE_DOC, jump_intensity="x"),
    _with_parameters(SIMULATE_DOC, dt=10**330),
    # flags take only JSON true or false
    _with_parameters(EXPECT_DOC, closed_form="no"),
    _with_parameters(EXPECT_DOC, strict=1),
    _with_parameters(SIMULATE_DOC, compensated="false"),
    # a label must fit in one CSV cell, and y0 must name at least one start
    _with_parameters(IMPULSE_VERIFY_DOC, alternatives=[{"band_delta": 0.5, "label": "wide,band"}]),
    _with_parameters(IMPULSE_VERIFY_DOC, alternatives=[{"band_delta": 0.5, "label": ["x"]}]),
    _with_parameters(IMPULSE_VERIFY_DOC, alternatives=[{"label": "\ud800"}]),
    _with_parameters(IMPULSE_VERIFY_DOC, y0=[]),
], ids=["benchmark-str", "benchmark-list", "benchmark-bool", "y0-str", "alternative-str",
        "verify-dt-huge-int", "iid-probs-str", "markov-entry-str", "markov-ragged",
        "n-trials-str", "jump-intensity-str", "simulate-dt-huge-int",
        "closed-form-str", "strict-int", "compensated-str", "label-comma", "label-list",
        "label-surrogate", "y0-empty"])
def test_wrong_typed_numbers_exit_code(tmp_path, capsys, doc):
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    assert "config error: field" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_contained_patterns_exit_code(tmp_path, capsys):
    # the race system assumes no pattern occurs inside another; at a fair
    # coin (0, 1) always wins this race, in 4 symbols on average
    doc = _with_parameters(RACE_DOC, patterns=[[0, 1], [1, 0, 1, 1]])
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 4
    assert "occurs inside" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_race_with_a_symbol_of_probability_zero_exit_code(tmp_path):
    # (1, 1) never occurs: its solo waiting time is infinite and (0, 0)
    # wins at the second symbol
    source = {"type": "iid", "symbols": [0, 1], "probs": [1.0, 0.0]}
    doc = _with_parameters(RACE_DOC, source=source, n_trials=100)
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "pattern_race.csv").read_text().splitlines()
    assert {"P_2,1,0,0", "E_T_min,2,0,0", "E_T_1,inf,0,0", "mc_E_T_min,2,0,100"} <= set(lines)


@pytest.mark.parametrize("doc", [
    _with_parameters(RACE_DOC, patterns=[[2, 2], [0, 0]]),
    {"kind": "pattern-expect", "seed": 3,
     "parameters": {"pattern": [2, 2], "closed_form": False,
                    "source": {"type": "iid", "symbols": [0, 1], "probs": [0.5, 0.5]}}},
], ids=["pattern-race", "pattern-expect"])
def test_foreign_pattern_symbol_exit_code(tmp_path, capsys, doc):
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    assert "not in source alphabet" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("doc", [
    {"kind": "pattern-expect", "seed": 3,
     "parameters": {"pattern": [[1], 0],
                    "source": {"type": "iid", "symbols": [0, 1], "probs": [0.5, 0.5]}}},
    _with_parameters(RACE_DOC, patterns=[[1, [0]], [0, 0]]),
    _with_parameters(RACE_DOC, patterns=[1, [0, 0]]),
    _with_parameters(RACE_DOC, source={"type": "iid", "symbols": [0, None], "probs": [0.5, 0.5]}),
    _with_parameters(RACE_DOC, source={"type": "markov", "states": [0, {"s": 1}],
                                       "matrix": [[0.5, 0.5], [0.5, 0.5]]}, initial_state=0),
], ids=["pattern-expect-nested", "pattern-race-nested", "pattern-race-scalar-pattern",
        "iid-symbol-null", "markov-state-object"])
def test_non_scalar_symbol_exit_code(tmp_path, capsys, doc):
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: field")
    assert not list(tmp_path.glob("*.csv"))


def test_step_count_beyond_kernel_bound_exit_code(tmp_path, capsys):
    doc = _with_parameters(SIMULATE_DOC, dt=1e-15)
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    assert "MAX_STEPS" in capsys.readouterr().err
    assert not (tmp_path / "simulate.csv").exists()


RENEWAL_DOC = {
    "kind": "renewal-check",
    "seed": 5,
    "parameters": {"check": "mean-process", "interarrival": {"type": "exponential", "rate": 1.0},
                   "t": 2.0, "n_paths": 50},
}


@pytest.mark.parametrize("doc", [
    _with_parameters(RACE_DOC, n_trials=MAX_COUNT + 1),
    _with_parameters(RACE_DOC, n_trials=1e12),
    _with_parameters(RACE_DOC, n_trials=2.5),
    _with_parameters(RACE_DOC, n_trials=-3),
    _with_parameters(RENEWAL_DOC, n_paths=MAX_COUNT + 1),
    _with_parameters(RENEWAL_DOC, n_paths=0),
    _with_parameters(IMPULSE_VERIFY_DOC, n_paths=10**18),
], ids=["n-trials-over", "n-trials-float-over", "n-trials-fraction", "n-trials-negative",
        "n-paths-over", "n-paths-zero", "verify-n-paths-over"])
def test_counts_out_of_bounds_exit_code(tmp_path, capsys, doc):
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    assert "must be an integer from" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_integral_float_trial_count_accepted(tmp_path):
    # a JSON literal such as 2e3 arrives as a float
    doc = _with_parameters(RACE_DOC, n_trials=2000.0)
    assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "pattern_race.csv").read_text().splitlines()
    assert any(line.startswith("mc_P_1,") and line.endswith(",2000") for line in lines)


def test_workers_must_be_a_positive_integer():
    parse_config({**RACE_DOC, "workers": 10**9})
    for workers in (True, 0, 2.0):
        with pytest.raises(ConfigError, match="workers must be a positive integer"):
            parse_config({**RACE_DOC, "workers": workers})


REGENERATIVE_DOC = {
    "kind": "renewal-check",
    "seed": 5,
    "parameters": {"check": "regenerative", "rates": [1.0, 2.0], "state": 0,
                   "horizon": 5.0, "n_paths": 20},
}


@pytest.mark.parametrize("doc, name", [
    ({**RACE_DOC, "seed": True}, "seed"),
    ({**RACE_DOC, "seed": 1.0}, "seed"),
    ({**RACE_DOC, "workers": False}, "workers"),
    (_with_parameters(REGENERATIVE_DOC, state=True), "state"),
    (_with_parameters(REGENERATIVE_DOC, state="0"), "state"),
], ids=["seed-true", "seed-float", "workers-false", "state-true", "state-str"])
def test_integer_fields_refuse_booleans_exit_code(tmp_path, capsys, doc, name):
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: field {name} must be a")
    assert not list(tmp_path.glob("*.csv"))


def test_regenerative_state_accepts_an_integer(tmp_path):
    path = write_config(tmp_path, REGENERATIVE_DOC)
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "renewal_check.csv").read_text().splitlines()[1].startswith("occupancy,")


@pytest.mark.parametrize("output", ["sub/dir/x", "/abs", "x/", "..", ".", "", "a\0b", 3],
                         ids=["nested", "absolute", "trailing-slash", "parent", "dot", "empty",
                              "nul", "int"])
def test_output_must_be_a_plain_file_name(tmp_path, capsys, output):
    doc = {**RACE_DOC, "output": output}
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    assert "field output must be a plain file name" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_out_naming_a_file_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, RACE_DOC)
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    for out in (blocker, blocker / "below"):
        code = main(["--config", str(config), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: cannot write output: ")
    assert blocker.read_text(encoding="utf-8") == ""


def test_output_name_keeps_its_own_suffix(tmp_path):
    out = tmp_path / "o1"
    for seed, output in ((1, "res.v1"), (2, "res.v2"), (1, "race")):
        doc = {**RACE_DOC, "seed": seed, "output": output}
        config = write_config(tmp_path, doc, name=f"{output}.json")
        assert main(["--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["race.csv", "res.v1.csv", "res.v2.csv"]
    assert (out / "res.v1.csv").read_text() == (out / "race.csv").read_text()
    assert (out / "res.v1.csv").read_text() != (out / "res.v2.csv").read_text()
    config = write_config(tmp_path, {**RACE_DOC, "output": "res.v1"})
    assert main(["--config", str(config), "--out", str(out), "--format", "json"]) == 0
    assert (out / "res.v1.json").is_file()


def test_unwritable_output_file_exit_code(tmp_path, capsys):
    (tmp_path / "x.csv").mkdir()
    config = write_config(tmp_path, {**RACE_DOC, "output": "x"})
    code = main(["--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: cannot write output: ")
    assert not list((tmp_path / "x.csv").iterdir())


IMPULSE_SOLVE_DOC = {"kind": "impulse-solve", "seed": 1,
                     "parameters": {"benchmark": {"grid_step": 0.02}}}


@pytest.mark.parametrize("grid, message", [
    ({"grid_step": 0}, "grid step must be positive"),
    ({"grid_step": -0.005}, "grid step must be positive"),
    ({"grid_lo": 6, "grid_hi": -6}, "need grid_lo < grid_hi"),
    ({"grid_lo": 1, "grid_hi": 1}, "need grid_lo < grid_hi"),
    ({"grid_step": 1e-7}, "MAX_GRID_NODES"),
    # sigma^2 and jump_size^2 overflow a Python float
    ({"sigma": 1e200}, "not finite"),
    ({"jump_size": 1e200, "grid_step": 1e200, "grid_lo": -1e201, "grid_hi": 1e201},
     "not finite"),
], ids=["step-zero", "step-negative", "lo-above-hi", "lo-equals-hi", "too-many-nodes",
        "sigma-overflow", "jump-size-overflow"])
def test_bad_qvi_grid_exit_code(tmp_path, capsys, grid, message):
    doc = _with_parameters(IMPULSE_SOLVE_DOC, benchmark=grid)
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not list(tmp_path.glob("*.csv"))


def test_overflowing_benchmark_exit_code_in_verify(tmp_path, capsys):
    doc = _with_parameters(IMPULSE_VERIFY_DOC, benchmark={"sigma": 1e200})
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    assert "not finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("doc, message", [
    (_with_parameters(RENEWAL_DOC, t=1e300), "MAX_ARRIVALS"),
    (_with_parameters(RENEWAL_DOC, check="wald", t=1e300), "MAX_ARRIVALS"),
    (_with_parameters(RENEWAL_DOC, check="blackwell", mode="random_walk", t=1e300, a=1.0),
     "MAX_ARRIVALS"),
    (_with_parameters(RENEWAL_DOC, check="regenerative", rates=[1.0, 2.0], state=0,
                      horizon=1e300), "MAX_ARRIVALS"),
    (_with_parameters(RENEWAL_DOC, check="renewal-equation", t_max=1e12, step=1e-3),
     "MAX_NODES"),
    # one step over 2^18; the step and t_max are exact in binary
    (_with_parameters(RENEWAL_DOC, check="renewal-equation", t_max=(2**18 + 1) / 1024,
                      step=1 / 1024), "MAX_NODES"),
    (_with_parameters(RENEWAL_DOC, check="last-renewal-cdf", t=1.0, s=0.5, step=0),
     "delta must be positive"),
    # exp(-rate s) is integrable only for a positive rate
    (_with_parameters(RENEWAL_DOC, check="renewal-equation", t_max=10.0, step=0.01,
                      f_decay_rate=0), "f_decay_rate must be positive"),
    (_with_parameters(RENEWAL_DOC, check="renewal-equation", t_max=10.0, step=0.01,
                      f_decay_rate=-1), "f_decay_rate must be positive"),
    (_with_parameters(RENEWAL_DOC, check="renewal-equation", t_max=10.0, step=0.01,
                      f_decay_rate=-1e300), "f_decay_rate must be positive"),
    # the Poisson jump schedule is a renewal sequence and shares its bound
    (_with_parameters(SIMULATE_DOC, jump_intensity=1e15,
                      marks={"type": "discrete", "values": [1.0], "probs": [1.0]}),
     "MAX_ARRIVALS"),
], ids=["mean-process", "wald", "blackwell-random-walk", "regenerative", "renewal-equation",
        "renewal-equation-one-step-over", "last-renewal-cdf-step-zero", "f-decay-rate-zero",
        "f-decay-rate-negative", "f-decay-rate-huge-negative", "simulate-jump-intensity"])
def test_oversized_renewal_work_exit_code(tmp_path, capsys, doc, message):
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not list(tmp_path.glob("*.csv"))


def test_lattice_mode_with_a_delay_exit_code(tmp_path, capsys):
    doc = _with_parameters(RENEWAL_DOC, check="blackwell", mode="lattice", t=10.0, a=1.0,
                           interarrival={"type": "discrete", "values": [1.0, 2.0],
                                         "probs": [0.5, 0.5]},
                           lattice_period=1.0, delay={"type": "exponential", "rate": 1.0})
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 4
    assert "hypothesis violation" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_failed_write_leaves_no_table_of_the_scenario(tmp_path, capsys):
    # the summary table cannot be written, so the node table, written
    # first in file order, must not stay behind either
    (tmp_path / "x_summary.csv").mkdir()
    config = write_config(tmp_path, {**IMPULSE_SOLVE_DOC, "output": "x"})
    code = main(["--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: cannot write output: ")
    assert not (tmp_path / "x.csv").exists()
    assert not list((tmp_path / "x_summary.csv").iterdir())


def test_output_name_utf8_cannot_encode_exit_code(tmp_path, capsys):
    # a lone surrogate is valid JSON but no file name holds it
    out = tmp_path / "out"
    config = write_config(tmp_path, {**EXPECT_DOC, "output": "\ud800"})
    for fmt in ("csv", "json"):
        assert main(["--config", str(config), "--out", str(out), "--format", fmt]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write output: ")
    assert not list(out.iterdir())


def test_verify_refuses_its_fields_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the QVI was solved for a refused config")

    monkeypatch.setattr(jumpkit.cli, "solve_benchmark_qvi", no_solve)
    for doc in (_with_parameters(IMPULSE_VERIFY_DOC, alternatives=[{"label": "a\nb"}]),
                _with_parameters(IMPULSE_VERIFY_DOC, y0=[])):
        code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: field ")


# ---------------------------------------------------------------------------
# every kind's tables against the library's result, rendered cell by cell


def _cell(value):
    """The per-cell rule: a float to 17 significant digits."""
    return f"{float(value):.17g}"


def _estimate_cells(entries):
    return [(name, _cell(value), _cell(stderr), str(int(n))) for name, value, stderr, n in entries]


def _rendered(fmt, columns, rows):
    if fmt == "json":
        payload = {"columns": list(columns), "rows": [list(row) for row in rows]}
        return json.dumps(payload, indent=1) + "\n"
    lines = [",".join(columns)] + [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


ESTIMATE_COLUMNS = ["name", "value", "stderr", "n"]


def _simulate_oracle():
    doc = {"kind": "simulate", "seed": 11, "parameters": {
        "x0": 1.0, "horizon": 4.0, "dt": 0.01,
        "drift": {"type": "linear", "rate": -1.0},
        "diffusion": {"type": "constant", "value": 0.3},
        "jump_intensity": 2.0,
        "marks": {"type": "discrete", "values": [1.0, -0.5], "probs": [0.5, 0.5]}}}
    spec = jumpkit.JumpDiffusionSpec(
        drift=lambda t, x: -1.0 * np.asarray(x, dtype=float),
        diffusion=lambda t, x: np.full(np.shape(x), 0.3, dtype=float),
        jump_intensity=2.0,
        mark_distribution=jumpkit.Discrete(values=[1.0, -0.5], probs=[0.5, 0.5]))
    path = jumpkit.simulate_jump_diffusion(spec, 1.0, 4.0, 0.01, jumpkit.derive_stream(11, 0))
    assert len(path.jumps) >= 3
    jump_idx = {rec.index for rec in path.jumps}
    impulses = {rec.index: rec.impulse for rec in path.interventions}
    rows = [(_cell(t), _cell(path.states[k]), str(int(k in jump_idx)),
             str(int(k in impulses)), _cell(impulses.get(k, 0.0)))
            for k, t in enumerate(path.times)]
    return doc, {"": (["t", "x", "jump_flag", "intervention_flag", "impulse"], rows)}


def _renewal_check_oracle():
    doc = {"kind": "renewal-check", "seed": 6, "parameters": {
        "check": "delayed", "interarrival": {"type": "exponential", "rate": 1.0},
        "delay": {"type": "deterministic", "value": 0.5}, "t": 8.0, "n_paths": 300}}
    spec = jumpkit.RenewalSpec(interarrival=jumpkit.Exponential(rate=1.0),
                               delay=jumpkit.Deterministic(value=0.5))
    mean, age, age_limit = jumpkit.delayed_renewal_stats(spec, 8.0, 300,
                                                         jumpkit.derive_stream(6, 0))
    entries = [("mean_process", mean.value, mean.stderr, mean.n),
               ("age", age.value, age.stderr, age.n), ("age_limit", age_limit, 0.0, 0)]
    return doc, {"": (ESTIMATE_COLUMNS, _estimate_cells(entries))}


MARKOV_SOURCE = {"type": "markov", "states": [0, 1], "matrix": [[0.3, 0.7], [0.6, 0.4]]}


def _markov_chain():
    return jumpkit.MarkovChain(matrix=np.asarray(MARKOV_SOURCE["matrix"]), states=(0, 1))


def _pattern_expect_oracle():
    doc = {"kind": "pattern-expect", "seed": 1,
           "parameters": {"pattern": [0, 1, 1], "x0": 1, "source": MARKOV_SOURCE}}
    pattern, chain = jumpkit.Pattern((0, 1, 1)), _markov_chain()
    entries = [("closed_form", jumpkit.expected_time_markov(pattern, chain, x0=1), 0.0, 0),
               ("automaton", jumpkit.automaton_expected_time(pattern, chain, last_symbol=1),
                0.0, 0)]
    return doc, {"": (ESTIMATE_COLUMNS, _estimate_cells(entries))}


def _pattern_race_oracle():
    doc = {"kind": "pattern-race", "seed": 2, "parameters": {
        "patterns": [[1, 0, 1], [0, 0]], "source": MARKOV_SOURCE, "initial_state": 1,
        "n_trials": 3000}}
    patterns, chain = [jumpkit.Pattern((1, 0, 1)), jumpkit.Pattern((0, 0))], _markov_chain()
    exact = jumpkit.race_solve(patterns, chain, initial_state=1)
    sim = jumpkit.simulate_pattern_race(patterns, chain, 3000, jumpkit.derive_stream(2, 0),
                                        initial_state=1)
    entries = [(f"P_{i + 1}", p, 0.0, 0) for i, p in enumerate(exact.probabilities)]
    entries.append(("E_T_min", exact.expected_min_time, 0.0, 0))
    entries += [(f"E_T_{i + 1}", e, 0.0, 0) for i, e in enumerate(exact.expected_times)]
    entries += [(f"mc_P_{i + 1}", sim.probabilities[i], sim.prob_stderr[i],
                 sim.n_trials - sim.n_truncated) for i in range(2)]
    entries.append(("mc_E_T_min", sim.min_time.value, sim.min_time.stderr, sim.min_time.n))
    return doc, {"": (ESTIMATE_COLUMNS, _estimate_cells(entries))}


def _impulse_solve_oracle():
    doc = _with_parameters(IMPULSE_SOLVE_DOC, benchmark={"grid_step": 0.02,
                                                         "fixed_cost": 0.95})
    params = jumpkit.BenchmarkParams(grid_step=0.02, fixed_cost=0.95)
    solution = jumpkit.solve_benchmark_qvi(params)
    report = jumpkit.qvi_residual(jumpkit.make_benchmark_problem(params), solution.candidate)
    nodes = [(_cell(x), _cell(g), _cell(v), str(r))
             for x, g, v, r in zip(report.x, report.generator_plus_running,
                                   report.value_minus_intervention, report.region)]
    summary = [("band_lo", solution.band[0], 0.0, 0), ("band_hi", solution.band[1], 0.0, 0),
               ("value_at_zero", solution.candidate.psi(0.0), 0.0, 0),
               ("qvi_sup_norm", report.sup_norm, 0.0, 0), ("sweeps", solution.sweeps, 0.0, 0)]
    return doc, {"": (["x", "L_phi_plus_l", "phi_minus_Mphi", "region"], nodes),
                 "_summary": (ESTIMATE_COLUMNS, _estimate_cells(summary))}


def _impulse_verify_oracle():
    doc = _with_parameters(IMPULSE_VERIFY_DOC, n_paths=16, horizon=4.0, y0=[0.0, -0.4],
                           alternatives=[{"band_delta": 0.2, "label": "wide"},
                                         {"target_delta": 0.1}])
    params = jumpkit.BenchmarkParams(grid_step=0.02)
    solution = jumpkit.solve_benchmark_qvi(params)
    problem = jumpkit.make_benchmark_problem(params)
    policy = jumpkit.synthesize_policy(problem, solution.candidate)
    alternatives = [("wide", policy.shifted(band_delta=0.2)),
                    ("band+0_target+0.1", policy.shifted(target_delta=0.1))]
    stream = jumpkit.derive_stream(IMPULSE_VERIFY_DOC["seed"], 0)
    rows = []
    for j, y0 in enumerate((0.0, -0.4)):
        report = jumpkit.verify_value(problem, solution.candidate, policy, y0, alternatives,
                                      16, 0.01, stream.substream(j), horizon=4.0)
        checks = [("equality", report.policy_cost, report.equality_passed)]
        checks += [(f"dominance_{e.label}", e.cost, e.passed) for e in report.alternatives]
        rows += [(check, _cell(y0), _cell(report.candidate_value), _cell(cost.value),
                  _cell(cost.stderr), str(int(passed))) for check, cost, passed in checks]
    return doc, {"": (["check", "y0", "phi", "cost", "stderr", "passed"], rows)}


ORACLES = {
    "simulate": _simulate_oracle,
    "renewal-check": _renewal_check_oracle,
    "pattern-expect": _pattern_expect_oracle,
    "pattern-race": _pattern_race_oracle,
    "impulse-solve": _impulse_solve_oracle,
    "impulse-verify": _impulse_verify_oracle,
}


@pytest.mark.parametrize("kind", list(ORACLES))
def test_no_kind_runs_the_dense_intervention_search(tmp_path, monkeypatch, kind):
    # the benchmark's cost is an AffineInterventionCost, so the solver, the
    # residual and the synthesis all take the O(n) envelope
    doc, _ = ORACLES[kind]()

    def refuse(*args):
        raise AssertionError("dense search called")

    monkeypatch.setattr(jumpkit.impulse, "minimize_over_targets", refuse)
    assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("kind", list(ORACLES))
def test_tables_equal_the_library_result_rendered_cell_by_cell(tmp_path, kind):
    doc, tables = ORACLES[kind]()
    assert doc["kind"] == kind
    config = write_config(tmp_path, doc)
    stem = kind.replace("-", "_")
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main(["--config", str(config), "--out", str(out), "--format", fmt]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(f"{stem}{s}.{fmt}" for s in tables)
        for suffix, (columns, rows) in tables.items():
            expected = _rendered(fmt, columns, rows).encode("utf-8")
            assert (out / f"{stem}{suffix}.{fmt}").read_bytes() == expected

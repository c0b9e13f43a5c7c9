import json
import os

import numpy as np
import pytest

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
    assert scenario.workers == 1


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
], ids=["benchmark-str", "benchmark-list", "benchmark-bool", "y0-str", "alternative-str",
        "verify-dt-huge-int", "iid-probs-str", "markov-entry-str", "markov-ragged",
        "n-trials-str", "jump-intensity-str", "simulate-dt-huge-int"])
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


def test_workers_clamped_to_cpu_count():
    cpus = os.cpu_count() or 1
    assert parse_config({**RACE_DOC, "workers": 10**9}).workers == cpus
    assert parse_config({**RACE_DOC, "workers": 1}).workers == 1
    with pytest.raises(ConfigError, match="workers must be a positive integer"):
        parse_config({**RACE_DOC, "workers": True})


IMPULSE_SOLVE_DOC = {"kind": "impulse-solve", "seed": 1,
                     "parameters": {"benchmark": {"grid_step": 0.02}}}


@pytest.mark.parametrize("grid, message", [
    ({"grid_step": 0}, "grid step must be positive"),
    ({"grid_step": -0.005}, "grid step must be positive"),
    ({"grid_lo": 6, "grid_hi": -6}, "need grid_lo < grid_hi"),
    ({"grid_lo": 1, "grid_hi": 1}, "need grid_lo < grid_hi"),
    ({"grid_step": 1e-7}, "MAX_GRID_NODES"),
], ids=["step-zero", "step-negative", "lo-above-hi", "lo-equals-hi", "too-many-nodes"])
def test_bad_qvi_grid_exit_code(tmp_path, capsys, grid, message):
    doc = _with_parameters(IMPULSE_SOLVE_DOC, benchmark=grid)
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("changes, message", [
    ({"t": 1e300}, "MAX_ARRIVALS"),
    ({"check": "wald", "t": 1e300}, "MAX_ARRIVALS"),
    ({"check": "blackwell", "mode": "random_walk", "t": 1e300, "a": 1.0}, "MAX_ARRIVALS"),
    ({"check": "regenerative", "rates": [1.0, 2.0], "state": 0, "horizon": 1e300},
     "MAX_ARRIVALS"),
    ({"check": "renewal-equation", "t_max": 1e12, "step": 1e-3}, "MAX_NODES"),
    ({"check": "last-renewal-cdf", "t": 1.0, "s": 0.5, "step": 0}, "delta must be positive"),
], ids=["mean-process", "wald", "blackwell-random-walk", "regenerative", "renewal-equation",
        "last-renewal-cdf-step-zero"])
def test_oversized_renewal_work_exit_code(tmp_path, capsys, changes, message):
    doc = _with_parameters(RENEWAL_DOC, **changes)
    code = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not list(tmp_path.glob("*.csv"))

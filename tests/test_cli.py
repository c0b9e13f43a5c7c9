import json

import numpy as np
import pytest

from jumpkit.cli import main, parse_config
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

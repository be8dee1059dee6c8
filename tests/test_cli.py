import json
from importlib import resources

import jsonschema
import pytest

import opnorm_lab as ol
from opnorm_lab.cli import RunConfig, run_cli, sweep_gap
from opnorm_lab.reports import emit_report


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("opnorm_lab") / "schema" / "opnorm_lab_v1.json"
    ).read_text()
    return json.loads(text)


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


BASE = {
    "symbol": "(c + t + z)",
    "bindings": {"c": 0.3},
    "space": {"kind": "hardy", "p": 2},
}


def test_gap_command_outputs_small_gap(tmp_path, capsys, schema):
    cfg = _write_config(tmp_path, BASE)
    assert run_cli(["gap", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    assert abs(payload["gap"]) < 1e-6
    assert payload["schema"] == "opnorm-lab/1"
    assert list(payload) == ["schema", "space", "lhs", "rhs", "gap", "per_t", "flags"]


def test_certify_command_strict_verdict(tmp_path, capsys, schema):
    cfg = _write_config(tmp_path, {**BASE, "bindings": {"c": -0.5}})
    assert run_cli(["certify", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    assert payload["verdict"] == "StrictInequalityEvidence"
    assert list(payload) == [
        "schema",
        "candidates",
        "verdict",
        "gap_crosscheck",
        "tolerances",
    ]


def test_wx_check_command(tmp_path, capsys, schema):
    cfg = _write_config(tmp_path, BASE)
    assert run_cli(["wx-check", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    assert payload["verdict"] == "PassEvidence"
    assert list(payload) == ["schema", "cond1", "cond2", "cond3", "verdict"]


def test_norm_and_supnorm_and_opnorm(tmp_path, capsys, schema):
    cfg = _write_config(tmp_path, {**BASE, "t": 0.5})
    for cmd in ("norm", "supnorm", "opnorm"):
        assert run_cli([cmd, "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, schema)
    cfg_b = _write_config(
        tmp_path,
        {**BASE, "t": 0.5, "space": {"kind": "bergman", "p": 2, "alpha": 0.5}},
        "bergman.json",
    )
    assert run_cli(["norm", "--config", str(cfg_b)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["space"]["alpha"] == 0.5


def test_missing_t_for_t_dependent_symbol(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE)
    assert run_cli(["norm", "--config", str(cfg)]) == 1
    assert "config.t" in capsys.readouterr().err


def test_unknown_config_field_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**BASE, "mystery": 1})
    assert run_cli(["gap", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "unknown config field" in err and "mystery" in err


def test_nested_unknown_field_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**BASE, "quad": {"n_theta": 256, "junk": 2}})
    assert run_cli(["gap", "--config", str(cfg)]) == 1
    assert "config.quad.junk" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        {"space": 5},
        {"quad": {"n_theta": None}},
        {"sweep": {"binding": "c", "values": 5}},
        {"certify": {"tol": None}},
        {"t": [1]},
        {"t": True},
        {"t": "0.5"},
        {"quad": {"n_theta": 2048.9}},
        {"quad": {"n_theta": 1000000000000}},
    ],
)
def test_mistyped_config_is_domain_error(tmp_path, capsys, extra):
    cfg = _write_config(tmp_path, {**BASE, **extra})
    assert run_cli(["gap", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config.") and "internal error" not in err


def test_malformed_json_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert run_cli(["gap", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_subcommand_exit_code(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_noncontinuous_symbol_is_domain_error_for_gap(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"symbol": "1 / (1 - z)", "space": {"kind": "hardy", "p": 2}}
    )
    assert run_cli(["gap", "--config", str(cfg)]) == 1
    assert "boundary-continuous" in capsys.readouterr().err


def test_boundary_pole_between_grid_points_is_domain_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"symbol": "1/(1 - exp(i*pi/1536)*z)"})
    assert run_cli(["supnorm", "--config", str(cfg)]) == 1
    assert "boundary-continuous" in capsys.readouterr().err


def test_out_file(tmp_path):
    cfg = _write_config(tmp_path, {**BASE, "t": 0.5})
    out = tmp_path / "report.json"
    assert run_cli(["supnorm", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "sup-norm"


def test_out_path_from_config(tmp_path):
    out = tmp_path / "from_config.json"
    cfg = _write_config(tmp_path, {**BASE, "t": 0.5, "out": str(out)})
    assert run_cli(["supnorm", "--config", str(cfg)]) == 0
    assert json.loads(out.read_text())["kind"] == "sup-norm"


def test_selftest_runs_clean(capsys, schema):
    assert run_cli(["selftest"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    assert payload["passed"] is True


def test_sweep_csv_shape_and_error_rows(tmp_path, capsys):
    cfg = RunConfig.from_dict(
        {
            "symbol": "1 / (c - z)",
            "space": {"kind": "hardy", "p": 2},
            "sweep": {"binding": "c", "values": [0.5, 2.0]},
        }
    )
    csv_text = sweep_gap(cfg)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "c,lhs,rhs,gap,verdict"
    assert len(lines) == 3
    assert lines[1].endswith("Error")  # pole inside the disk
    assert lines[2].endswith("EqualityCertified")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "sweep: c = 0.5: DomainError: symbol is not certified boundary-continuous; "
        "boundary sup norms would be unreliable"
    ]


def test_sweep_requires_binding_in_symbol():
    cfg = RunConfig.from_dict(
        {
            "symbol": "t + z",
            "space": {"kind": "hardy", "p": 2},
            "sweep": {"binding": "c", "values": [1.0]},
        }
    )
    with pytest.raises(ol.DomainError, match="does not occur"):
        sweep_gap(cfg)


def test_sweep_determinism(tmp_path):
    cfg = RunConfig.from_dict(
        {
            "symbol": "(c + t + z)",
            "space": {"kind": "hardy", "p": 2},
            "sweep": {"binding": "c", "values": [-0.75, 0.25]},
        }
    )
    assert sweep_gap(cfg) == sweep_gap(cfg)


def test_gap_json_determinism(quad):
    fam = ol.parse_symbol("(c + t + z)", {"c": -0.5})
    sp = ol.SpaceSpec.hardy(2.0)
    first = emit_report(ol.gap_report(fam, sp, quad))
    second = emit_report(ol.gap_report(fam, sp, quad))
    assert first == second


def test_emit_report_significant_digits(quad):
    fam = ol.parse_symbol("(c + t + z)", {"c": 0.3})
    sp = ol.SpaceSpec.hardy(2.0)
    text = emit_report(ol.gap_report(fam, sp, quad))
    payload = json.loads(text)
    # 1.8 survives rounding to 12 significant digits
    assert payload["lhs"] == pytest.approx(1.8, abs=1e-11)
    assert len(f"{payload['rhs']:.17g}".replace(".", "").lstrip("0").rstrip("0")) <= 12

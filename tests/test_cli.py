import json
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        {"bindings": {"c": 10**400}},
        {"space": {"kind": "hardy"}},
        {"space": {"kind": "hardy", "p": 2, "alpha": 0.5}},
        {"out": 5},
        {"quad": {"tol": float("inf")}},
        {"quad": {"tol": float("nan")}},
        {"quad": {"hardy_radii": [0.5, float("nan")]}},
        {"space": {"kind": "hardy", "p": float("inf")}},
        {"space": {"kind": "bergman", "p": 2, "alpha": float("inf")}},
        {"certify": {"tol": float("nan")}},
        {"bindings": {"c": float("nan")}},
        {"t": float("-inf")},
        {"sweep": {"binding": "c", "values": [0.1, float("inf")]}},
    ],
)
def test_mistyped_config_is_domain_error(tmp_path, capsys, extra):
    cfg = _write_config(tmp_path, {**BASE, **extra})
    assert run_cli(["gap", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config.") and "internal error" not in err


def test_sup_refine_iters_is_an_unknown_quad_field(tmp_path, capsys):
    # The sup norm's refinement step count is a constant, not a config field.
    cfg = _write_config(tmp_path, {**BASE, "quad": {"sup_refine_iters": 32}})
    assert run_cli(["supnorm", "--config", str(cfg)]) == 1
    assert "unknown config field config.quad.sup_refine_iters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "symbol",
    ["(" * 3000 + "z" + ")" * 3000, "-" * 3000 + "z", "z" + "+z" * 3000, "exp(" * 500 + "z" + ")" * 500],
    ids=["parentheses", "signs", "sum", "exp"],
)
def test_deep_symbol_is_a_parse_error(tmp_path, capsys, symbol):
    cfg = _write_config(tmp_path, {"symbol": symbol})
    assert run_cli(["supnorm", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: symbol nests deeper than")


@pytest.mark.parametrize("symbol", ["2^100000 * z", "(1+i)^5000 + z"])
@pytest.mark.parametrize("command", ["supnorm", "opnorm", "norm", "gap", "certify", "wx-check"])
def test_constant_overflow_is_not_an_internal_error(tmp_path, capsys, symbol, command):
    # Constant subtrees run as Python complex numbers, whose powers raise on overflow.
    cfg = _write_config(tmp_path, {"symbol": symbol})
    code = run_cli([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    if command == "wx-check":
        assert code == 0 and json.loads(captured.out)["verdict"] == "Inconclusive"
    else:
        assert code == 1 and captured.err.startswith("error: "), captured.err


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


def test_sweep_requires_values(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**BASE, "sweep": {"binding": "c", "values": []}})
    assert run_cli(["sweep", "--config", str(cfg)]) == 1
    assert "config.sweep.values must be a nonempty list" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# Fuzzing: any config that parses as JSON exits 0 or 1, never 2.

_EXTREME = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([0, -1, 0.5, 1e-320, 1e308, 10**400]),
)
_MISTYPED = st.one_of(
    _EXTREME,
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(_EXTREME, max_size=2),
    st.dictionaries(st.text(max_size=3), _EXTREME, max_size=2),
)
_DEEP = st.builds(
    lambda n, make: make(n),
    st.one_of(st.integers(min_value=0, max_value=120), st.sampled_from([300, 1000, 3000])),
    st.sampled_from(
        [
            lambda n: "(" * n + "z" + ")" * n,
            lambda n: "-" * n + "z",
            lambda n: "z" + "+t*z" * n,
            lambda n: "exp(" * n + "z" + ")" * n,
            lambda n: f"z^{n}" + "9" * (n % 40),
            lambda n: f"1/(1.{n} - c*z)",
        ]
    ),
)
_SYMBOL = st.one_of(
    st.sampled_from(["z", "c + t*z", "1e400*z", "exp(1e300*z)", "1/(1 - z)", "blaschke([0.5]; 1)"]),
    _DEEP,
    st.text(alphabet="zt+-*/^()[];,.019eicpx ", max_size=24),
)
_SMALL_QUAD = st.fixed_dictionaries(
    {
        "n_theta": st.sampled_from([16, 32]),
        "n_radial": st.just(8),
        "hardy_radii": st.just([0.5, 0.75]),
        "t_nodes": st.sampled_from([2, 4]),
        "tol": st.sampled_from([1e-3, 1e-5]),
    }
)
_NUMBER = st.one_of(st.sampled_from([0.3, 0.7]), _EXTREME)
#: Well-formed configs with a small quad, so most examples reach the numerics.
_CONFIG = st.fixed_dictionaries(
    {"symbol": _SYMBOL, "quad": _SMALL_QUAD, "bindings": st.fixed_dictionaries({"c": _NUMBER})},
    optional={
        "t": _NUMBER,
        "space": st.fixed_dictionaries({"kind": st.just("hardy"), "p": _NUMBER}),
        "certify": st.fixed_dictionaries({"tol": _NUMBER}),
        "sweep": st.fixed_dictionaries({"binding": st.just("c"), "values": st.lists(_NUMBER, max_size=2)}),
    },
)
_FIELDS = [
    ("symbol",), ("bindings",), ("bindings", "c"), ("t",), ("space",), ("space", "kind"),
    ("space", "p"), ("space", "alpha"), ("quad",), ("certify", "tol"), ("sweep",),
    ("sweep", "values"), ("out",), ("mystery",),
] + [("quad", key) for key in ("n_theta", "n_radial", "hardy_radii", "t_nodes", "tol", "junk")]


def _set(cfg, path, value):
    """``cfg`` with the field at ``path`` set to ``value``, where the path exists."""
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            return cfg
    node[path[-1]] = value
    return cfg


#: The same configs with one field, or the whole document, mistyped.
_MISTYPED_CONFIG = st.one_of(
    _MISTYPED, st.builds(_set, _CONFIG, st.sampled_from(_FIELDS), _MISTYPED)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw=_MISTYPED_CONFIG)
def test_fuzz_config_fields_raise_only_domain_errors(raw):
    try:
        RunConfig.from_dict(raw)
    except ol.DomainError:
        pass


@settings(
    max_examples=100,
    deadline=2000,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    raw=_CONFIG,
    command=st.sampled_from(["supnorm", "opnorm", "norm", "gap", "certify", "wx-check", "sweep"]),
)
def test_fuzz_cli_exits_0_or_1(tmp_path, capsys, raw, command):
    cfg = _write_config(tmp_path, raw)
    code = run_cli([command, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code in (0, 1) and "internal error" not in err, err

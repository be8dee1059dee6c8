"""Every correctness check accepts a right output and rejects a wrong one."""

import json
from dataclasses import dataclass
from importlib import resources

import pytest

from perfbench import checks

HEADER = "c,lhs,rhs,gap,verdict"


def test_canonical_closed_form():
    assert checks.canonical_gap(-0.5) == 0.25
    assert checks.canonical_gap(-0.9) == pytest.approx(0.01)
    assert checks.canonical_gap(-1.0) == 0.0
    assert checks.canonical_gap(0.0) == 0.0
    assert checks.canonical_verdict(-0.5) == checks.STRICT
    assert checks.canonical_verdict(-1.0) == checks.EQUAL
    assert checks.canonical_verdict(0.25) == checks.EQUAL


@pytest.mark.parametrize(
    "c, row, ok",
    [
        (-0.5, "-0.5,1,1.25,0.25,StrictInequalityEvidence", True),
        (0.25, "0.25,1.25,1.25,1e-13,EqualityCertified", True),
        (-0.5, "-0.5,1,1.2,0.2,StrictInequalityEvidence", False),
        (-0.5, "-0.5,1,1.25,0.25,EqualityCertified", False),
        (0.0, "0,0.5,0.5,0,StrictInequalityEvidence", False),
        (-0.5, "-0.5,nan,nan,nan,Error", False),
        (-0.5, "-0.5,1,1.25,0.25", False),
    ],
)
def test_sweep_row(c, row, ok):
    reason = checks.check_sweep_row(c, f"{HEADER}\n{row}\n")
    assert (reason is None) is ok, reason


def test_sweep_row_rejects_missing_header():
    assert checks.check_sweep_row(-0.5, "-0.5,1,1.25,0.25,StrictInequalityEvidence\n")


@dataclass
class FakeGap:
    gap: float
    rhs_refine_delta: float = 0.0


def test_one_sided():
    assert checks.check_one_sided(FakeGap(gap=0.3), 1e-8) is None
    assert checks.check_one_sided(FakeGap(gap=-5e-7), 1e-8) is None
    assert checks.check_one_sided(FakeGap(gap=-1e-3), 1e-8)
    assert checks.check_one_sided(FakeGap(gap=float("nan")), 1e-8)
    assert checks.check_one_sided(FakeGap(gap=0.1, rhs_refine_delta=1e-3), 1e-8)


def test_extremal():
    assert checks.check_extremal(1.0 + 1e-9, 4.0, 4.0) is None
    assert checks.check_extremal(1.001, 4.0, 4.0)
    assert checks.check_extremal(1.0, 4.0 * (1 + 1e-9), 4.0)
    assert checks.check_extremal(1.0, 4.0j, 4.0)


@pytest.fixture(scope="module")
def validator():
    text = (resources.files("opnorm_lab") / "schema" / "opnorm_lab_v1.json").read_text()
    return checks.schema_validator(text)


def _report(payload: dict) -> bytes:
    return (json.dumps({"schema": "opnorm-lab/1", **payload}, indent=2) + "\n").encode()


EXPECTED = {"sup": 1.2, "norm": 1.0198, "gap": 0.25, "certify": checks.STRICT,
            "wx-check": checks.WX_PASS}
SUP = {"kind": "sup-norm", "value": 1.2, "maximizer": {"re": 1.0, "im": 0.0},
       "residual": 1e-9, "plateau": False}


def test_cli_report_accepts_right_output(validator):
    raw = _report(SUP)
    assert checks.check_cli_report("supnorm", 0, raw, None, validator, EXPECTED) is None
    assert checks.check_cli_report("supnorm", 0, raw, raw, validator, EXPECTED) is None


@pytest.mark.parametrize(
    "command, code, payload, reference, why",
    [
        ("supnorm", 1, SUP, None, "exit code"),
        ("supnorm", 0, SUP, b"{}", "differs from its first run"),
        ("supnorm", 0, {**SUP, "value": 1.3}, None, "differs from expected"),
        ("supnorm", 0, {k: v for k, v in SUP.items() if k != "residual"}, None, "schema"),
        ("norm", 0, {"kind": "space-norm", "space": {"kind": "hardy", "p": 2.0}, "t": 0.3,
                     "value": 1.1}, None, "differs from expected"),
        ("certify", 0, {"candidates": [], "verdict": checks.EQUAL, "gap_crosscheck": 0.25,
                        "tolerances": {"residual": 1e-6, "gap_equality": 1e-5,
                                       "gap_strict": 1e-4}}, None, "verdict"),
    ],
)
def test_cli_report_rejects_wrong_output(validator, command, code, payload, reference, why):
    reason = checks.check_cli_report(
        command, code, _report(payload), reference, validator, EXPECTED
    )
    assert reason is not None and why in reason, reason


def test_cli_report_rejects_non_json(validator):
    reason = checks.check_cli_report("gap", 0, b"not json", None, validator, EXPECTED)
    assert reason is not None and "not JSON" in reason

"""Correctness checks applied to every benchmark item.

Each check takes the program's output and the expected values and returns
``None`` when the output is right, or a one-line reason when it is not.  A
failed check counts the item as failed; it never stops the run.
"""

from __future__ import annotations

import json
import math

GAP_TOL = 1e-6
NORM_TOL = 1e-6
ATTAIN_RTOL = 1e-12

STRICT = "StrictInequalityEvidence"
EQUAL = "EqualityCertified"
WX_PASS = "PassEvidence"


def canonical_gap(c: float) -> float:
    """Closed-form gap of (c + t + z) * blaschke([0.5, 0.9]; 0) on H^2."""
    return min(c * c, (c + 1.0) ** 2) if -1.0 < c < 0.0 else 0.0


def canonical_verdict(c: float) -> str:
    return STRICT if -1.0 < c < 0.0 else EQUAL


def check_sweep_row(c: float, csv_text: str) -> str | None:
    """One-row sweep CSV: gap within GAP_TOL of the closed form, verdict exact."""
    lines = csv_text.splitlines()
    if len(lines) != 2 or lines[0] != "c,lhs,rhs,gap,verdict":
        return f"malformed sweep CSV {csv_text!r}"
    fields = lines[1].split(",")
    if len(fields) != 5:
        return f"malformed sweep row {lines[1]!r}"
    gap, verdict = float(fields[3]), fields[4]
    if not abs(gap - canonical_gap(c)) <= GAP_TOL:
        return f"c={c}: gap {gap} differs from closed form {canonical_gap(c)}"
    if verdict != canonical_verdict(c):
        return f"c={c}: verdict {verdict}, expected {canonical_verdict(c)}"
    return None


def check_one_sided(report, atol: float) -> str | None:
    """gap >= -GAP_TOL, and the t-integral settled within ``atol``."""
    if not report.gap >= -GAP_TOL:
        return f"gap {report.gap} violates the one-sided inequality"
    if not report.rhs_refine_delta <= max(atol, 1e-12):
        return f"t-integral unresolved by {report.rhs_refine_delta}"
    return None


def check_extremal(norm: float, value_at_point: complex, functional_norm: float) -> str | None:
    """Extremal function has norm 1 and attains the functional norm at its point."""
    if not abs(norm - 1.0) <= NORM_TOL:
        return f"extremal norm {norm} is not 1"
    defect = abs(complex(value_at_point) - functional_norm) / functional_norm
    if not defect <= ATTAIN_RTOL:
        return f"attainment defect {defect:.3g} exceeds {ATTAIN_RTOL}"
    return None


def _close(label: str, got: float, want: float, tol: float) -> str | None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return f"{label} {got} differs from expected {want}"
    return None


def check_cli_report(
    command: str,
    exit_code: int,
    raw: bytes,
    reference: bytes | None,
    validator,
    expected: dict,
) -> str | None:
    """A CLI report: exit code 0, valid against the bundled schema, equal byte
    for byte to the first output of the same command, and carrying the
    expected value or verdict.

    ``expected`` maps "sup" (supnorm, opnorm), "norm", "gap" to closed-form
    values and "certify", "wx-check" to verdicts.
    """
    if exit_code != 0:
        return f"{command}: exit code {exit_code}"
    if reference is not None and raw != reference:
        return f"{command}: output differs from its first run"
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        return f"{command}: output is not JSON ({exc})"
    errors = sorted(validator.iter_errors(payload), key=str)
    if errors:
        return f"{command}: schema violation: {errors[0].message}"
    if command in ("supnorm", "opnorm"):
        return _close(command, payload["value"], expected["sup"], NORM_TOL)
    if command == "norm":
        return _close(command, payload["value"], expected["norm"], NORM_TOL)
    if command == "gap":
        return _close(command, payload["gap"], expected["gap"], GAP_TOL)
    if payload["verdict"] != expected[command]:
        return f"{command}: verdict {payload['verdict']}, expected {expected[command]}"
    return None


def schema_validator(schema_text: str):
    """A validator for the bundled report schema."""
    import jsonschema

    schema = json.loads(schema_text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)

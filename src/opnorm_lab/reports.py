"""JSON serialization of report objects.

Every report carries the schema tag, keys appear in a fixed order, and
reals are rounded to 12 significant digits before serialization so that
identical runs produce byte-identical output.
"""

from __future__ import annotations

import json
from typing import Any

from .certify import CertificateReport, WxReport, _gap_bands
from .operators import GapReport
from .spaces import SpaceSpec, SupNormResult

__all__ = ["SCHEMA_ID", "emit_report", "space_payload"]

SCHEMA_ID = "opnorm-lab/1"


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _rounded(obj: Any) -> Any:
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _complex_payload(c: complex) -> dict:
    return {"re": float(c.real), "im": float(c.imag)}


def space_payload(space: SpaceSpec) -> dict:
    payload: dict = {"kind": space.kind, "p": float(space.p)}
    if space.kind == "bergman":
        payload["alpha"] = float(space.alpha)
    return payload


def _gap_payload(rep: GapReport) -> dict:
    return {
        "schema": SCHEMA_ID,
        "space": space_payload(rep.space),
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "gap": rep.gap,
        "per_t": [
            {"t": e.t, "sup": e.sup, "maximizer": _complex_payload(e.maximizer)}
            for e in rep.per_t
        ],
        "flags": list(rep.flags),
    }


def _certificate_payload(rep: CertificateReport) -> dict:
    equality_band, strict_band = _gap_bands(rep.residual_tol)
    return {
        "schema": SCHEMA_ID,
        "candidates": [
            {
                "xi": _complex_payload(c.xi),
                "theta": _complex_payload(c.theta),
                "i2_residual": c.i2_residual,
                "i1_residual": c.i1_residual,
            }
            for c in rep.candidates
        ],
        "verdict": rep.verdict,
        "gap_crosscheck": rep.gap_crosscheck,
        "tolerances": {
            "residual": rep.residual_tol,
            "gap_equality": equality_band,
            "gap_strict": strict_band,
        },
    }


def _wx_payload(rep: WxReport) -> dict:
    return {
        "schema": SCHEMA_ID,
        "cond1": [
            {
                "t0": p.t0,
                "deltas": list(p.deltas),
                "values": list(p.values),
                "decreasing": p.decreasing,
            }
            for p in rep.cond1
        ],
        "cond2": [
            {"epsilon": b.epsilon, "sup": b.sup_value}
            for b in rep.cond2
        ],
        "cond3": {
            "estimates": [{"n": n, "value": v} for n, v in rep.cond3.estimates],
            "deltas": list(rep.cond3.deltas),
            "diverging": rep.cond3.diverging,
        },
        "verdict": rep.verdict,
    }


def _supnorm_payload(rep: SupNormResult) -> dict:
    return {
        "schema": SCHEMA_ID,
        "kind": "sup-norm",
        "value": rep.value,
        "maximizer": _complex_payload(rep.maximizer),
        "residual": rep.residual,
        "plateau": rep.plateau,
    }


def emit_report(report) -> str:
    """Serialize a report to stable, schema-tagged JSON text."""
    if isinstance(report, GapReport):
        payload = _gap_payload(report)
    elif isinstance(report, CertificateReport):
        payload = _certificate_payload(report)
    elif isinstance(report, WxReport):
        payload = _wx_payload(report)
    elif isinstance(report, SupNormResult):
        payload = _supnorm_payload(report)
    elif isinstance(report, dict):
        payload = {"schema": SCHEMA_ID, **report}
    else:
        raise TypeError(f"no JSON payload defined for {type(report).__name__}")
    return json.dumps(_rounded(payload), indent=2, allow_nan=False) + "\n"

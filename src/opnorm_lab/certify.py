"""Numerical certificates for the integrated-operator equality.

Two characterizations are checked.  The integrability side: a family
{g_t} induces a well-defined integrated operator when t -> g_t is norm
continuous, locally uniformly bounded, and has integrable sup norms
(:func:`check_wx` gathers numerical evidence for each condition, reading
the integral from one table of sup norms on nested Fejer t-rules).  The
equality side: for boundary-continuous families with p > 1, equality of
the integrated-operator norm with the integrated norms holds exactly when
one boundary point xi and one unimodular phase theta align every g_t, i.e.
theta * g_t(xi) = ||g_t||_inf for almost every t (:func:`certify_equality`
searches for such a pair and reports residuals).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DomainError, OpnormLabError, QuadratureError
from .operators import gap_report
from .quadrature import fejer_rule_01, gauss_rule_01, integrate_adaptive_01
from .spaces import QuadConfig, SpaceSpec, SupNormResult, _t_atol, space_norm, sup_norm
from .symbols import SymbolFamily, eval_symbol, frozen_symbol, is_boundary_continuous

__all__ = [
    "BoundaryArgmax",
    "CertCandidate",
    "CertificateReport",
    "Cond1Probe",
    "Cond2Band",
    "Cond3Integral",
    "WxReport",
    "argmax_set",
    "certify_equality",
    "check_wx",
    "i1_i2_residuals",
]

_TWO_PI = 2.0 * math.pi

VERDICT_PASS = "PassEvidence"
VERDICT_FAIL = "FailWithWitness"
VERDICT_INCONCLUSIVE = "Inconclusive"
VERDICT_EQUAL = "EqualityCertified"
VERDICT_STRICT = "StrictInequalityEvidence"


# ---------------------------------------------------------------------------
# W(X) evidence


@dataclass(frozen=True)
class Cond1Probe:
    t0: float
    deltas: tuple[float, ...]
    values: tuple[float, ...]
    decreasing: bool


@dataclass(frozen=True)
class Cond2Band:
    epsilon: float
    sup_value: float


@dataclass(frozen=True)
class Cond3Integral:
    """(n, value) on Fejer rules of n = t_nodes - 1, 2 t_nodes - 1, 4 t_nodes - 1."""

    estimates: tuple[tuple[int, float], ...]
    deltas: tuple[float, ...]
    diverging: bool


@dataclass(frozen=True)
class WxReport:
    """Numerical evidence for the three integrability conditions.

    cond1: norm continuity in t at each probe, sampled at shrinking
    offsets.  cond2: sup of the per-t sup norms on compact subintervals;
    a sup norm that cannot be evaluated makes the verdict Inconclusive.
    cond3: the t-integral of the sup norms on three nested rules, each
    about twice the size of the last, with the deltas between them.  These
    conditions are semi-decidable numerically, so the verdict records
    trends, not proofs.
    """

    cond1: tuple[Cond1Probe, ...]
    cond2: tuple[Cond2Band, ...]
    cond3: Cond3Integral
    verdict: str
    witness: str | None = None


_COND1_DELTAS = (1e-2, 1e-3, 1e-4)
_COND2_EPSILONS = (0.1, 0.01)


def _probe_quad(q: QuadConfig) -> QuadConfig:
    # Continuity probes need trends, not full accuracy; trim the ladders.
    radii = q.hardy_radii[: min(16, len(q.hardy_radii))]
    return replace(q, hardy_radii=radii, n_radial=max(32, min(q.n_radial, 48)))


def check_wx(
    f: SymbolFamily,
    space: SpaceSpec,
    q: QuadConfig,
    t_probe=None,
) -> WxReport:
    """Gather evidence for the three conditions making the family integrable.

    Condition 3 reads one table of sup norms over the nested rules' t, so
    only the finest rule's 4 * t_nodes - 1 nodes are scanned.
    """
    if t_probe is None:
        t_probe = (np.arange(8) + 0.5) / 8
    t_probe = np.asarray(t_probe, dtype=float)
    if t_probe.size < 8:
        raise DomainError("t_probe needs at least 8 points")
    if np.any(t_probe <= 0) or np.any(t_probe >= 1):
        raise DomainError("t_probe must lie inside (0, 1)")

    qp = _probe_quad(q)
    probes: list[Cond1Probe] = []
    bands: list[Cond2Band] = []
    estimates: list[tuple[int, float]] = []
    condition = 1
    try:
        # Condition 1: || g_t - g_{t0} ||_X -> 0 as t -> t0.
        for t0 in t_probe:
            values, deltas = [], []
            for delta in _COND1_DELTAS:
                diffs = []
                for t in (t0 - delta, t0 + delta):
                    if not 0.0 < t < 1.0:
                        continue

                    def diff(w, _t=t, _t0=t0):
                        return eval_symbol(f, _t, w) - eval_symbol(f, _t0, w)

                    diffs.append(space_norm(diff, space, qp))
                if diffs:
                    deltas.append(delta)
                    values.append(max(diffs))
            floor = 1e-9 * max(max(values), 1.0) if values else 0.0
            decreasing = all(
                later <= 0.5 * earlier + floor
                for earlier, later in zip(values, values[1:])
            )
            probes.append(Cond1Probe(float(t0), tuple(deltas), tuple(values), decreasing))

        # Condition 2: sup norms bounded on compact subintervals.
        condition = 2
        for eps in _COND2_EPSILONS:
            grid = np.linspace(eps, 1.0 - eps, 33)
            sups = [sup_norm(frozen_symbol(f, t), q).value for t in grid]
            bands.append(Cond2Band(epsilon=eps, sup_value=float(max(sups))))

        # Condition 3: the t-integral of the sup norms on nested Fejer rules;
        # each t is scanned once, and each estimate lands as its rule completes.
        condition = 3
        table: dict[float, float] = {}
        for n in (q.t_nodes - 1, 2 * q.t_nodes - 1, 4 * q.t_nodes - 1):
            nodes, weights = fejer_rule_01(n)
            for t in nodes.tolist():
                if t not in table:
                    table[t] = sup_norm(frozen_symbol(f, t), q).value
            vals = [table[t] for t in nodes.tolist()]
            estimates.append((n, float(weights @ vals)))
    except OpnormLabError as exc:
        return WxReport(
            cond1=tuple(probes),
            cond2=tuple(bands),
            cond3=Cond3Integral(tuple(estimates), (), False),
            verdict=VERDICT_INCONCLUSIVE,
            witness=f"evaluation failed during condition {condition}: {exc}",
        )

    witness = None
    cond1_ok = all(p.decreasing for p in probes)
    if not cond1_ok:
        bad = next(p for p in probes if not p.decreasing)
        witness = f"norm continuity not evident at t0 = {bad.t0:.6g}"
    deltas = tuple(abs(b - a) for (_, a), (_, b) in zip(estimates, estimates[1:]))
    scale = max(1.0, abs(estimates[-1][1]))
    settled = deltas[-1] <= max(100.0 * q.tol * scale, 1e-10)
    shrinking = deltas[-1] <= 0.5 * deltas[0] + 1e-12
    diverging = not settled and not shrinking
    cond3 = Cond3Integral(estimates=tuple(estimates), deltas=deltas, diverging=diverging)
    if diverging and witness is None:
        witness = (
            "doubled-rule estimates of the sup-norm integral keep growing: "
            + ", ".join(f"n={n}: {v:.6g}" for n, v in estimates)
        )

    verdict = VERDICT_PASS if cond1_ok and not diverging else VERDICT_FAIL
    return WxReport(tuple(probes), tuple(bands), cond3, verdict, witness)


# ---------------------------------------------------------------------------
# Boundary argmax sets


@dataclass(frozen=True)
class BoundaryArgmax:
    """Near-maximizers of |g_t| on the circle; full_circle marks plateaus.

    A near-zero or constant-modulus symbol maximizes everywhere, which acts
    as the identity under intersection over t.
    """

    points: tuple[complex, ...]
    full_circle: bool = False


def _angular_distance(a: complex, b: complex) -> float:
    return abs(cmath.phase(a * b.conjugate()))


def _phase_from(z: complex, spacing: float) -> float:
    """Phase of z in [0, 2 pi), counted from half a grid cell below 0.

    A point a hair below theta = 0 thus sorts first, next to 0, not last.
    """
    return (cmath.phase(z) + 0.5 * spacing) % _TWO_PI


def _boundary_argmax(sres: SupNormResult, q: QuadConfig, band: float) -> BoundaryArgmax:
    """The maximizer and the (at most 64) best peaks of ``sres`` within ``band``."""
    if sres.value < max(q.tol, 1e-12) or sres.plateau:
        return BoundaryArgmax((), full_circle=True)

    near = [pair for pair in sres.peaks if pair[0] >= sres.value - band]
    points = [(sres.value, sres.maximizer)] + sorted(near, key=lambda pair: pair[0])[-64:]

    # Merge candidates closer than one grid cell, keeping the best value.
    spacing = _TWO_PI / q.n_theta
    points.sort(key=lambda pair: (-pair[0], cmath.phase(pair[1])))
    kept: list[complex] = []
    for _, z in points:
        if all(_angular_distance(z, other) > spacing for other in kept):
            kept.append(z)
    kept.sort(key=lambda z: _phase_from(z, spacing))
    return BoundaryArgmax(tuple(kept))


def argmax_set(f: SymbolFamily, t: float, q: QuadConfig, band: float = 1e-6) -> BoundaryArgmax:
    """Near-maximizers of |g_t| on the circle, within ``band`` of the sup.

    The maximizer and ``peaks`` of one :func:`sup_norm` call, one per grid
    cell; the full-circle sentinel for near-zero or constant-modulus
    symbols, where every boundary point maximizes.
    """
    if band <= 0:
        raise DomainError("band must be positive")
    return _boundary_argmax(sup_norm(frozen_symbol(f, t), q), q, band)


# ---------------------------------------------------------------------------
# Equality certificates


@dataclass(frozen=True)
class CertCandidate:
    xi: complex
    theta: complex
    i2_residual: float
    i1_residual: float


@dataclass(frozen=True)
class CertificateReport:
    """Verdict on the integrated-operator equality, with residual evidence.

    A candidate passes when both residuals fall below the tolerance; the
    verdict additionally cross-checks the directly computed gap so that a
    spurious candidate cannot certify a family whose gap is visibly
    positive.
    """

    candidates: tuple[CertCandidate, ...]
    verdict: str
    gap_crosscheck: float | None
    residual_tol: float
    notes: tuple[str, ...] = ()


def _gap_bands(tol: float) -> tuple[float, float]:
    """The |gap| below which a passing candidate certifies equality, and the
    gap above which no passing candidate is evidence of strict inequality."""
    return 10.0 * tol, 100.0 * tol


#: Residual sums this close (relative to max(1, sum)) count as tied.
_SUM_TIE = 1e-12


def _ranked(candidates: list[CertCandidate], spacing: float) -> list[CertCandidate]:
    """Candidates by i1 + i2 residual sum, tied sums in order of xi's phase.

    Near-symmetric candidates have sums that differ in the last bits, so a
    plain sort would let any rounding change swap them.
    """
    groups: list[tuple[float, list[CertCandidate]]] = []
    for c in sorted(candidates, key=lambda c: c.i1_residual + c.i2_residual):
        total = c.i1_residual + c.i2_residual
        if groups and total - groups[-1][0] <= _SUM_TIE * max(1.0, abs(groups[-1][0])):
            groups[-1][1].append(c)
        else:
            groups.append((total, [c]))
    by_phase = lambda c: _phase_from(c.xi, spacing)
    return [c for _, tied in groups for c in sorted(tied, key=by_phase)]


def _certify_t_grid(q: QuadConfig) -> np.ndarray:
    nodes, _ = gauss_rule_01(q.t_nodes)
    probes = (np.arange(16) + 0.5) / 16
    return np.unique(np.concatenate([nodes, probes]))


def i1_i2_residuals(
    f: SymbolFamily,
    space: SpaceSpec,
    xi: complex,
    q: QuadConfig,
    sups: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Residuals of the two equality conditions at a boundary point xi.

    r1 (phase alignment): integral of |g_t(xi)| dt minus the modulus of
    integral of g_t(xi) dt; zero exactly when the values g_t(xi) share one
    phase for almost every t, i.e. the triangle inequality at the point
    mass in xi is an equality.

    r2 (maximum attainment): max over the t grid of ||g_t||_inf - |g_t(xi)|;
    zero exactly when xi maximizes every |g_t|.  ``sups`` may hand in the
    grid's sup norms, one per t of ``_certify_t_grid(q)`` in its order;
    without it they are computed here.

    Both are nonnegative up to quadrature tolerance.
    """
    axi = abs(xi)
    if abs(axi - 1.0) > 1e-6:
        raise DomainError("xi must lie on the unit circle")
    xi = complex(xi / axi)

    t_grid = _certify_t_grid(q)
    if sups is None:
        sups = [sup_norm(frozen_symbol(f, t), q).value for t in t_grid.tolist()]
    elif len(sups) != t_grid.size:
        raise DomainError(f"sups holds {len(sups)} values for {t_grid.size} grid points")
    r2 = float(np.max(np.asarray(sups) - np.abs(eval_symbol(f, t_grid, xi))))

    atol = _t_atol(q)
    i_abs = integrate_adaptive_01(
        lambda ts: np.abs(eval_symbol(f, ts, xi)), base_n=16, atol=atol
    )
    i_cplx = integrate_adaptive_01(lambda ts: eval_symbol(f, ts, xi), base_n=16, atol=atol)
    if not (i_abs.converged and i_cplx.converged):
        raise QuadratureError("t-integration of the point values did not converge")
    r1 = float(i_abs.value) - abs(i_cplx.value)
    return float(r1), float(r2)


def certify_equality(
    f: SymbolFamily,
    space: SpaceSpec,
    q: QuadConfig,
    tol: float = 1e-6,
    gap_value: float | None = None,
) -> CertificateReport:
    """Search for a boundary point and phase certifying the equality.

    Intersects the per-t argmax sets over a t grid (plateau sentinels act
    as identities), fixes the phase from the first non-vanishing sample at
    each surviving point, and scores both residuals there.  The verdict is
    EqualityCertified only when a candidate's residuals and the directly
    computed gap agree; StrictInequalityEvidence requires a decisively
    positive gap and no passing candidate; everything else, including an
    empty candidate set with a small gap, is Inconclusive.
    """
    if not space.reflexive:
        raise DomainError("certification requires p > 1")
    notes: list[str] = []
    if not is_boundary_continuous(f):
        return CertificateReport(
            candidates=(),
            verdict=VERDICT_INCONCLUSIVE,
            gap_crosscheck=None,
            residual_tol=tol,
            notes=("symbol is not certified boundary-continuous",),
        )

    band = max(100.0 * q.tol, tol)
    merge_radius = _TWO_PI / q.n_theta
    t_grid = _certify_t_grid(q)
    sups: list[float] = []

    survivors: list[complex] | None = None
    for t in t_grid.tolist():
        sres = sup_norm(frozen_symbol(f, t), q)
        sups.append(sres.value)
        box = _boundary_argmax(sres, q, band)
        if box.full_circle:
            continue
        if survivors is None:
            survivors = list(box.points)
            continue
        survivors = [
            s
            for s in survivors
            if any(_angular_distance(s, p) <= merge_radius for p in box.points)
        ]
        if not survivors:
            break

    if survivors is None:
        survivors = [complex(1.0)]
        notes.append("every frozen symbol plateaus; any boundary point serves")

    candidates: list[CertCandidate] = []
    for xi in survivors:
        theta = complex(1.0)
        for val in eval_symbol(f, t_grid, xi).tolist():
            if abs(val) > tol:
                theta = val.conjugate() / abs(val)
                break
        r1, r2 = i1_i2_residuals(f, space, xi, q, sups=sups)
        candidates.append(
            CertCandidate(xi=xi, theta=theta, i2_residual=r2, i1_residual=r1)
        )
    candidates = _ranked(candidates, merge_radius)

    if gap_value is None:
        gap_value = gap_report(f, space, q).gap
    passing = [
        c for c in candidates if c.i1_residual < tol and c.i2_residual < tol
    ]
    equality_band, strict_band = _gap_bands(tol)
    if passing and abs(gap_value) < equality_band:
        verdict = VERDICT_EQUAL
    elif not passing and gap_value > strict_band:
        verdict = VERDICT_STRICT
    else:
        verdict = VERDICT_INCONCLUSIVE
        if not candidates:
            notes.append("empty candidate set with a small gap: grid too coarse")

    return CertificateReport(
        candidates=tuple(candidates),
        verdict=verdict,
        gap_crosscheck=float(gap_value),
        residual_tol=tol,
        notes=tuple(notes),
    )

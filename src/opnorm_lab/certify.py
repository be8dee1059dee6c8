"""Numerical certificates for the integrated-operator equality.

Two characterizations are checked.  The integrability side: a family
{g_t} induces a well-defined integrated operator when t -> g_t is norm
continuous, locally uniformly bounded, and has integrable sup norms
(:func:`check_wx` gathers numerical evidence for each condition).  The
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
from typing import Mapping

import numpy as np

from .errors import DomainError, OpnormLabError, QuadratureError
from .quadrature import gauss_rule_01, integrate_adaptive_01
from .spaces import QuadConfig, SpaceSpec, SupNormResult, space_norm, sup_norm
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
    finite: bool


@dataclass(frozen=True)
class Cond3Integral:
    estimates: tuple[tuple[int, float], ...]
    deltas: tuple[float, ...]
    diverging: bool


@dataclass(frozen=True)
class WxReport:
    """Numerical evidence for the three integrability conditions.

    cond1: norm continuity in t at each probe, sampled at shrinking
    offsets.  cond2: sup of the per-t sup norms on compact subintervals.
    cond3: the t-integral of the sup norms at three doubled rule sizes,
    with the deltas between them.  These conditions are semi-decidable
    numerically, so the verdict records trends, not proofs.
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
    """Gather evidence for the three conditions making the family integrable."""
    if t_probe is None:
        t_probe = (np.arange(8) + 0.5) / 8
    t_probe = np.asarray(t_probe, dtype=float)
    if t_probe.size < 8:
        raise DomainError("t_probe needs at least 8 points")
    if np.any(t_probe <= 0) or np.any(t_probe >= 1):
        raise DomainError("t_probe must lie inside (0, 1)")

    qp = _probe_quad(q)
    witness = None

    # Condition 1: || g_t - g_{t0} ||_X -> 0 as t -> t0.
    probes: list[Cond1Probe] = []
    try:
        for t0 in t_probe:
            values = []
            deltas = []
            for delta in _COND1_DELTAS:
                diffs = []
                for t in (t0 - delta, t0 + delta):
                    if not 0.0 < t < 1.0:
                        continue

                    def diff(w, _t=t, _t0=t0):
                        return np.asarray(eval_symbol(f, _t, w)) - np.asarray(
                            eval_symbol(f, _t0, w)
                        )

                    diffs.append(space_norm(diff, space, qp))
                if diffs:
                    deltas.append(delta)
                    values.append(max(diffs))
            floor = 1e-9 * max(max(values), 1.0) if values else 0.0
            decreasing = all(
                later <= 0.5 * earlier + floor
                for earlier, later in zip(values, values[1:])
            )
            probes.append(
                Cond1Probe(
                    t0=float(t0),
                    deltas=tuple(deltas),
                    values=tuple(values),
                    decreasing=decreasing,
                )
            )
    except OpnormLabError as exc:
        return WxReport(
            cond1=tuple(probes),
            cond2=(),
            cond3=Cond3Integral((), (), False),
            verdict=VERDICT_INCONCLUSIVE,
            witness=f"evaluation failed during condition 1: {exc}",
        )
    cond1_ok = all(p.decreasing for p in probes)
    if not cond1_ok and witness is None:
        bad = next(p for p in probes if not p.decreasing)
        witness = f"norm continuity not evident at t0 = {bad.t0:.6g}"

    # Condition 2: sup norms bounded on compact subintervals.
    bands: list[Cond2Band] = []
    try:
        for eps in _COND2_EPSILONS:
            grid = np.linspace(eps, 1.0 - eps, 33)
            sups = [sup_norm(frozen_symbol(f, t), q).value for t in grid]
            finite = all(math.isfinite(s) for s in sups)
            bands.append(Cond2Band(epsilon=eps, sup_value=float(max(sups)), finite=finite))
    except OpnormLabError as exc:
        return WxReport(
            cond1=tuple(probes),
            cond2=tuple(bands),
            cond3=Cond3Integral((), (), False),
            verdict=VERDICT_INCONCLUSIVE,
            witness=f"evaluation failed during condition 2: {exc}",
        )
    cond2_ok = all(b.finite for b in bands)
    if not cond2_ok and witness is None:
        witness = "sup norms not finite on a compact subinterval"

    # Condition 3: the t-integral of the sup norms, at doubled rule sizes.
    estimates: list[tuple[int, float]] = []
    try:
        for n in (q.t_nodes, 2 * q.t_nodes, 4 * q.t_nodes):
            nodes, weights = gauss_rule_01(n)
            vals = [sup_norm(frozen_symbol(f, t), q).value for t in nodes]
            estimates.append((n, float(np.dot(weights, vals))))
    except OpnormLabError as exc:
        return WxReport(
            cond1=tuple(probes),
            cond2=tuple(bands),
            cond3=Cond3Integral(tuple(estimates), (), False),
            verdict=VERDICT_INCONCLUSIVE,
            witness=f"evaluation failed during condition 3: {exc}",
        )
    deltas = tuple(
        abs(b[1] - a[1]) for a, b in zip(estimates, estimates[1:])
    )
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

    if cond1_ok and cond2_ok and not diverging:
        verdict = VERDICT_PASS
    else:
        verdict = VERDICT_FAIL
    return WxReport(
        cond1=tuple(probes),
        cond2=tuple(bands),
        cond3=cond3,
        verdict=verdict,
        witness=witness,
    )


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


def _boundary_argmax(sres: SupNormResult, q: QuadConfig, band: float) -> BoundaryArgmax:
    """The maximizer and the (at most 64) best peaks of ``sres`` within ``band``."""
    if sres.value < max(q.tol, 1e-12) or (sres.plateau and sres.residual >= 0.9 * _TWO_PI):
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
    kept.sort(key=lambda z: cmath.phase(z) % _TWO_PI)
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


def _certify_t_grid(q: QuadConfig) -> np.ndarray:
    nodes, _ = gauss_rule_01(q.t_nodes)
    probes = (np.arange(16) + 0.5) / 16
    return np.unique(np.concatenate([nodes, probes]))


def _point_moduli(f: SymbolFamily, ts, xi: complex) -> np.ndarray:
    """|g_t(xi)| for every t in ``ts``, in one kernel call."""
    vals = eval_symbol(f, ts, xi)
    # hypot rounds as Python's abs(complex) does; np.abs may not.
    return np.hypot(vals.real, vals.imag)


def i1_i2_residuals(
    f: SymbolFamily,
    space: SpaceSpec,
    xi: complex,
    q: QuadConfig,
    sup_cache: Mapping[float, SupNormResult] | None = None,
) -> tuple[float, float]:
    """Residuals of the two equality conditions at a boundary point xi.

    r1 (phase alignment): integral of |g_t(xi)| dt minus the modulus of
    integral of g_t(xi) dt; zero exactly when the values g_t(xi) share one
    phase for almost every t, i.e. the triangle inequality at the point
    mass in xi is an equality.

    r2 (maximum attainment): max over the t grid of ||g_t||_inf - |g_t(xi)|;
    zero exactly when xi maximizes every |g_t|.

    Both are nonnegative up to quadrature tolerance.
    """
    axi = abs(xi)
    if abs(axi - 1.0) > 1e-6:
        raise DomainError("xi must lie on the unit circle")
    xi = complex(xi / axi)
    cache = dict(sup_cache) if sup_cache else {}

    t_grid = _certify_t_grid(q)
    sups = []
    for t in t_grid:
        res = cache.get(float(t))
        if res is None:
            res = sup_norm(frozen_symbol(f, float(t)), q)
        sups.append(res.value)
    r2 = float(np.max(np.asarray(sups) - _point_moduli(f, t_grid, xi)))

    atol = max(q.tol * 1e-1, 1e-12)
    i_abs = integrate_adaptive_01(
        lambda ts: _point_moduli(f, ts, xi), base_n=16, atol=atol, vectorized=True
    )
    i_cplx = integrate_adaptive_01(
        lambda ts: eval_symbol(f, ts, xi), base_n=16, atol=atol, vectorized=True
    )
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
    from .operators import gap_report

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
    sup_cache: dict[float, SupNormResult] = {}

    survivors: list[complex] | None = None
    for t in t_grid:
        sup_cache[float(t)] = sres = sup_norm(frozen_symbol(f, float(t)), q)
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
        r1, r2 = i1_i2_residuals(f, space, xi, q, sup_cache=sup_cache)
        candidates.append(
            CertCandidate(xi=xi, theta=theta, i2_residual=r2, i1_residual=r1)
        )
    candidates.sort(key=lambda c: (c.i1_residual + c.i2_residual, c.xi.real, c.xi.imag))

    if gap_value is None:
        gap_value = gap_report(f, space, q).gap
    passing = [
        c for c in candidates if c.i1_residual < tol and c.i2_residual < tol
    ]
    if passing and abs(gap_value) < 10.0 * tol:
        verdict = VERDICT_EQUAL
    elif not passing and gap_value > 100.0 * tol:
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

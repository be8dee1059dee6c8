"""Multiplication-operator quantities on Hardy and weighted Bergman spaces.

For a bounded analytic symbol g the multiplication operator f -> g f has
operator norm equal to the sup norm of g, and on the reflexive spaces
(p > 1) the same number is the supremum of limsup ||g f_n|| over weakly
null unit-norm sequences, attained along evaluation-functional extremals
concentrating at a maximizing boundary point.  This module reports that
one number, builds the concentrating sequences, and compares the two sides
of the inequality

    ||integral of g_t dt||_inf  <=  integral of ||g_t||_inf dt

for a t-parameterized family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError
from .quadrature import gauss_rule_01, integrate_adaptive_01
from .spaces import QuadConfig, SpaceSpec, _t_atol, sup_norm
from .symbols import SymbolFamily, frozen_symbol, integrate_family_at

__all__ = [
    "ApproxEvalMap",
    "GapReport",
    "PerTSup",
    "gap_report",
    "integrated_symbol",
    "maximizing_sequence",
    "mult_operator_norm",
]


@dataclass(frozen=True)
class ApproxEvalMap:
    """Points marching toward a boundary concentration point xi.

    The induced extremal functions form a unit-norm sequence whose mass
    concentrates at xi; ``values`` are |g(z_k)| along the march and
    ``converged`` records whether they reached the sup norm at the last
    point.
    """

    xi: complex
    points: tuple[complex, ...]
    space: SpaceSpec
    values: tuple[float, ...]
    sup_value: float
    converged: bool


@dataclass(frozen=True)
class PerTSup:
    t: float
    sup: float
    maximizer: complex


@dataclass(frozen=True)
class GapReport:
    """Both sides of the integrated-operator inequality and their gap.

    lhs is the sup norm of the integrated symbol (the norm of the
    integrated operator); rhs integrates the per-t sup norms over (0, 1).
    The gap rhs - lhs is nonnegative up to quadrature tolerance.
    """

    space: SpaceSpec
    lhs: float
    rhs: float
    gap: float
    per_t: tuple[PerTSup, ...]
    integrated_maximizer: complex
    flags: tuple[str, ...] = ()
    rhs_refine_delta: float = 0.0


def mult_operator_norm(g, space: SpaceSpec, q: QuadConfig) -> float:
    """Operator norm of f -> g f, equal to the boundary sup of |g|.

    The same value is the essential-norm style supremum over weakly null
    unit sequences when p > 1, so a single number serves for all three
    quantities.  ``g`` must be boundary-continuous for the boundary grid
    to be trustworthy; symbol families should be screened with
    :func:`opnorm_lab.symbols.is_boundary_continuous` first.
    """
    return sup_norm(g, q).value


def maximizing_sequence(
    g, space: SpaceSpec, K: int, q: QuadConfig, tol: float = 1e-4
) -> ApproxEvalMap:
    """Concentration points z_k = (1 - 2^-k) xi toward the sup-norm maximizer.

    |g(z_k)| climbs to the sup norm; the map is flagged non-converged when
    the last value is still more than 10*tol below it.
    """
    if K < 1:
        raise DomainError("K must be at least 1")
    sres = sup_norm(g, q)
    xi = sres.maximizer
    points = tuple((1.0 - 2.0**-k) * xi for k in range(1, K + 1))
    values = tuple(float(abs(np.asarray(g(z)))) for z in points)
    converged = values[-1] >= sres.value - 10.0 * tol
    return ApproxEvalMap(
        xi=xi,
        points=points,
        space=space,
        values=values,
        sup_value=sres.value,
        converged=converged,
    )


def integrated_symbol(f: SymbolFamily, q: QuadConfig) -> Callable:
    """The symbol of the integrated operator: z -> integral of g_t(z) dt.

    For a family constant in t this is the frozen symbol itself.  The
    result is boundary-continuous whenever the family is, so it can be fed
    back into :func:`mult_operator_norm`.
    """
    if not f.uses_t:
        return frozen_symbol(f)
    rule = gauss_rule_01(q.t_nodes)
    return lambda z: integrate_family_at(f, z, rule)


def gap_report(f: SymbolFamily, space: SpaceSpec, q: QuadConfig) -> GapReport:
    """Evaluate both sides of the integrated-operator inequality.

    lhs = sup norm of the integrated symbol; rhs = adaptive integral over
    t of the per-t sup norms (the integrand may have kinks where the
    maximizing boundary point jumps, hence the adaptivity).  Raises
    :class:`QuadratureError` when the t-integration does not settle, which
    is the numerical signature of a non-integrable family.
    """
    if not space.reflexive:
        raise DomainError("gap comparison requires p > 1")
    flags: list[str] = []

    g_int = integrated_symbol(f, q)
    left = sup_norm(g_int, q)
    if left.plateau:
        flags.append("integrated-symbol-plateau")

    samples: list[PerTSup] = []

    def per_t_sup(t: float) -> float:
        res = sup_norm(frozen_symbol(f, t), q)
        samples.append(PerTSup(t=t, sup=res.value, maximizer=res.maximizer))
        return res.value

    integral = integrate_adaptive_01(
        lambda ts: [per_t_sup(t) for t in ts.tolist()], base_n=8, atol=_t_atol(q)
    )
    if not integral.converged:
        raise QuadratureError(
            "t-integration of the per-t sup norms did not converge "
            f"(unresolved delta {integral.refine_delta:.3g})"
        )

    rhs = float(integral.value)
    lhs = left.value
    per_t = tuple(sorted(samples, key=lambda s: s.t))
    return GapReport(
        space=space,
        lhs=lhs,
        rhs=rhs,
        gap=rhs - lhs,
        per_t=per_t,
        integrated_maximizer=left.maximizer,
        flags=tuple(flags),
        rhs_refine_delta=integral.refine_delta,
    )

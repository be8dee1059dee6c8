"""Hardy, weighted Bergman, and boundary sup norms with their extremal data.

Conventions.  The circle carries the rotation-invariant unit measure and
the disk the normalized area measure, so the constant 1 has norm 1 in every
space here.  The weighted Bergman norm integrates |f|^p against the
normalized weight (1+a)(1-|z|^2)^a dA with a > -1.  Hardy norms are the
L^p means of the boundary values, which is the norm for functions
continuous on the closed disk; the circle means M_p(r) on a ladder of radii
below 1 only check that they increase up to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError, QuadratureError
from .quadrature import (
    SUP_REFINE_STEPS,
    _zoom_max,
    circle_grid,
    circle_mean_abs_pow,
    jacobi_rule_01,
)

__all__ = [
    "EvalFunctionalData",
    "QuadConfig",
    "SpaceSpec",
    "SupNormResult",
    "bergman_norm",
    "eval_functional_data",
    "eval_functional_norm",
    "extremal_function",
    "hardy_norm",
    "multiplied_extremal_norm",
    "space_norm",
    "sup_norm",
]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SpaceSpec:
    """Selects the underlying space: Hardy H^p or weighted Bergman A^p_a."""

    kind: str
    p: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("hardy", "bergman"):
            raise DomainError(f"unknown space kind {self.kind!r}")
        if not 0 < self.p < np.inf:
            raise DomainError("p must be positive and finite")
        if self.kind == "bergman" and not -1 < self.alpha < np.inf:
            raise DomainError("Bergman weight parameter must be finite and exceed -1")

    @classmethod
    def hardy(cls, p: float) -> "SpaceSpec":
        return cls("hardy", float(p))

    @classmethod
    def bergman(cls, p: float, alpha: float = 0.0) -> "SpaceSpec":
        return cls("bergman", float(p), float(alpha))

    @property
    def reflexive(self) -> bool:
        return self.p > 1


def _default_hardy_radii() -> tuple[float, ...]:
    return tuple(1.0 - 2.0**-k for k in range(1, 17))


#: Largest allowed value of each QuadConfig field that sizes memory or work.
RESOURCE_CAPS = {"n_theta": 1 << 20, "n_radial": 2048, "t_nodes": 512}


@dataclass(frozen=True)
class QuadConfig:
    """Grid sizes and the tolerance that every quadrature here reads.

    hardy_radii is the increasing ladder of circle radii below 1 on which a
    Hardy norm checks that its circle means increase up to the boundary
    mean; the default ladder is 1 - 2^-k for k = 1..16.  The fields that
    size grids and eigensolves are capped (``RESOURCE_CAPS``); check_wx
    reads Fejer rules of up to 4 * t_nodes - 1 nodes.  NaN and infinite
    values fail every check.  Zoom-search step counts are constants of
    :mod:`opnorm_lab.quadrature`.
    """

    n_theta: int = 2048
    n_radial: int = 96
    hardy_radii: tuple[float, ...] = _default_hardy_radii()
    t_nodes: int = 64
    tol: float = 1e-8

    def __post_init__(self):
        if not self.n_theta >= 16:
            raise DomainError("n_theta must be at least 16")
        if not self.n_radial >= 8:
            raise DomainError("n_radial must be at least 8")
        for name, cap in RESOURCE_CAPS.items():
            if not getattr(self, name) <= cap:
                raise DomainError(f"{name} must be at most {cap}")
        radii = tuple(float(r) for r in self.hardy_radii)
        object.__setattr__(self, "hardy_radii", radii)
        if not radii:
            raise DomainError("hardy_radii must be nonempty")
        if not all(0.0 < r < 1.0 for r in radii):
            raise DomainError("hardy_radii must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise DomainError("hardy_radii must be strictly increasing")
        if not self.t_nodes >= 2:
            raise DomainError("t_nodes must be at least 2")
        if not 0 < self.tol < np.inf:
            raise DomainError("tol must be positive and finite")


def _mean_rtol(q: QuadConfig) -> float:
    # Circle means are Hardy norms and the terms of radial sums, so they are
    # held one to two orders tighter than the advertised tolerance.
    return max(min(q.tol * 1e-2, 1e-10), 1e-13)


def _t_atol(q: QuadConfig) -> float:
    # Adaptive t-integrals (the gap's rhs, the certificate's point values)
    # are held an order tighter than the advertised tolerance.
    return max(q.tol * 1e-1, 1e-12)


@dataclass(frozen=True)
class SupNormResult:
    """Boundary sup norm with the point attaining it.

    ``residual`` is a width in theta, not a bound on the error of
    ``value``: the final zoom bracket, or one grid cell when no
    refined value beats the grid maximum, as when it sits on a flat arc,
    which is not refined.  ``plateau`` flags |g| flat on at least 90 % of
    the grid; the residual is then the full circle.  ``peaks`` holds
    (value, point) for every grid local maximum, refined where the search
    refined it; argmax sets and equality certificates reuse them instead of
    searching again.
    """

    value: float
    maximizer: complex
    residual: float
    plateau: bool = False
    peaks: tuple[tuple[float, complex], ...] = ()


# ---------------------------------------------------------------------------
# Hardy and Bergman norms


def hardy_norm(f, p: float, q: QuadConfig) -> float:
    """H^p norm of an evaluable f: the L^p mean of its boundary values.

    That mean is the norm when f is analytic and continuous on the closed
    disk.  The means M_p(r) on q.hardy_radii and at r = 1 must be
    nondecreasing (Hardy convexity); a decrease beyond quadrature noise is
    reported as a :class:`QuadratureError`.
    """
    if not p > 0:
        raise DomainError("p must be positive")
    radii = np.asarray((*q.hardy_radii, 1.0))
    means = circle_mean_abs_pow(f, radii, p, n0=q.n_theta, rtol=_mean_rtol(q)) ** (1.0 / p)
    slack = max(1e-12, 1e-8 * float(means.max()))
    drops = means[1:] < means[:-1] - slack
    if np.any(drops):
        k = int(np.flatnonzero(drops)[0])
        raise QuadratureError(
            f"circle means decreased between r={radii[k]:.6g} and r={radii[k + 1]:.6g}; "
            "the integrand is not an analytic-function modulus or quadrature failed"
        )
    return float(means[-1])


def bergman_norm(f, p: float, alpha: float, q: QuadConfig) -> float:
    """Weighted Bergman norm against the normalized weight (1+a)(1-|z|^2)^a.

    Tensor quadrature: Gauss-Jacobi in s = r^2 (the weight is exact, so
    the constant 1 has norm 1 to machine precision) and adaptive periodic
    trapezoid in the angle.  The radial rule doubles until two successive
    sizes agree within q.tol relative.
    """
    if not p > 0:
        raise DomainError("p must be positive")
    if not alpha > -1:
        raise DomainError("Bergman weight parameter must exceed -1")
    rtol = _mean_rtol(q)
    n = q.n_radial
    prev = None
    while True:
        s_nodes, s_weights = jacobi_rule_01(n, alpha)
        means = circle_mean_abs_pow(f, np.sqrt(s_nodes), p, n0=256, rtol=rtol)
        integral = float(s_weights @ means)
        if prev is not None and abs(integral - prev) <= max(
            q.tol * abs(integral), 1e-15
        ):
            return integral ** (1.0 / p)
        if n >= 2048:
            raise QuadratureError("radial Bergman rule did not converge by n=2048")
        prev = integral
        n *= 2


def space_norm(f, space: SpaceSpec, q: QuadConfig) -> float:
    if space.kind == "hardy":
        return hardy_norm(f, space.p, q)
    return bergman_norm(f, space.p, space.alpha, q)


# ---------------------------------------------------------------------------
# Boundary sup norm


def sup_norm(g, q: QuadConfig) -> SupNormResult:
    """Global maximum of |g| on the unit circle.

    Dense sampling on q.n_theta nodes followed by a zoom search (one call
    of g per step, ``SUP_REFINE_STEPS`` steps) within one grid cell of
    every local maximum that could still reach the grid maximum after
    refinement (judged by the local curvature).  Flat arcs,
    at least three grid cells where |g| is within 1e-9 relative of the grid
    maximum, have no bracket to refine and keep their grid values.  When
    at least 90 % of the grid is flat, the result is the grid maximum with
    ``plateau=True`` and the full circle as the residual.  All grid local
    maxima are returned as ``peaks``.  A nonfinite |g| on the grid or an
    infinite refined maximum raises :class:`EvaluationError`.
    """
    n = q.n_theta
    thetas = _TWO_PI * np.arange(n) / n
    zs = circle_grid(n)
    vals = np.abs(np.asarray(g(zs)))
    if not np.all(np.isfinite(vals)):
        raise EvaluationError("sup-norm integrand is not finite on the boundary grid")
    vmax = float(vals.max())
    jmax = int(np.argmax(vals))
    spacing = _TWO_PI / n

    band = max(1e-9 * vmax, 1e-13)
    flat = vals >= vmax - band
    if float(flat.mean()) >= 0.9:
        return SupNormResult(vmax, complex(zs[jmax]), _TWO_PI, plateau=True)

    # On a cyclic flat arc: a cell that is, or neighbours, the centre of 3 flat cells.
    ext = np.concatenate((flat[-2:], flat, flat[:2]))
    centre = ext[1:-1] & ext[:-2] & ext[2:]
    in_arc = centre[:-2] | centre[1:-1] | centre[2:]

    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    is_lmax = (vals >= left) & (vals >= right)
    curvature = np.abs(left - 2.0 * vals + right)
    cand = is_lmax & ~in_arc & (vals + curvature >= vmax - band)
    js = np.flatnonzero(cand)
    if js.size > 64:
        js = js[np.argsort(vals[js])[-64:]]
    lmax = np.flatnonzero(is_lmax)
    peak_vals, peak_zs = vals[lmax], zs[lmax]

    best_value = vmax
    best_theta = float(thetas[jmax])
    best_width = spacing

    if js.size:
        fn = lambda th: np.abs(np.asarray(g(np.exp(1j * th))))
        theta_ref, val_ref, widths = _zoom_max(
            fn, thetas[js] - spacing, thetas[js] + spacing, SUP_REFINE_STEPS
        )
        if not np.all(np.isfinite(val_ref)):  # |g| overflowed between grid points
            raise EvaluationError("sup-norm integrand is not finite between grid points")
        at = np.searchsorted(lmax, js)
        peak_vals[at] = val_ref
        peak_zs[at] = np.exp(1j * theta_ref)
        k = int(np.argmax(val_ref))
        if float(val_ref[k]) >= best_value:
            best_value = float(val_ref[k])
            best_theta = float(theta_ref[k])
            best_width = float(widths[k])

    return SupNormResult(
        value=best_value,
        maximizer=complex(np.exp(1j * best_theta)),
        residual=best_width,
        peaks=tuple(zip(peak_vals.tolist(), peak_zs.tolist())),
    )


# ---------------------------------------------------------------------------
# Evaluation functionals and their extremal functions


def eval_functional_norm(z: complex, space: SpaceSpec) -> float:
    """Norm of the point-evaluation functional f -> f(z), in closed form.

    (1-|z|^2)^(-1/p) on Hardy spaces and (1-|z|^2)^(-(2+a)/p) on weighted
    Bergman spaces.
    """
    a = abs(z)
    if a >= 1.0:
        raise DomainError("evaluation point must lie in the open disk")
    u = 1.0 - a * a
    if space.kind == "hardy":
        return float(u ** (-1.0 / space.p))
    return float(u ** (-(2.0 + space.alpha) / space.p))


def extremal_function(z_n: complex, space: SpaceSpec) -> Callable:
    """Unit-norm function attaining the evaluation-functional norm at z_n.

    Hardy:   w -> (1-|z_n|^2)^(1/p)       / (1 - conj(z_n) w)^(2/p)
    Bergman: w -> (1-|z_n|^2)^((2+a)/p)   / (1 - conj(z_n) w)^(2(2+a)/p)

    Powers use the principal branch, which is smooth here because
    Re(1 - conj(z_n) w) > 0 on the closed disk.
    """
    z_n = complex(z_n)
    if abs(z_n) >= 1.0:
        raise DomainError("extremal base point must lie in the open disk")
    u = 1.0 - abs(z_n) ** 2
    if space.kind == "hardy":
        amp = u ** (1.0 / space.p)
        expo = 2.0 / space.p
    else:
        amp = u ** ((2.0 + space.alpha) / space.p)
        expo = 2.0 * (2.0 + space.alpha) / space.p
    zc = z_n.conjugate()

    def f(w):
        base = 1.0 - zc * np.asarray(w, dtype=complex)
        out = amp * base ** (-expo)
        if np.ndim(w) == 0:
            return complex(out)
        return out

    return f


@dataclass(frozen=True)
class EvalFunctionalData:
    """A point in the disk with its functional norm and extremal function."""

    z: complex
    space: SpaceSpec
    norm_value: float
    extremal: Callable


def eval_functional_data(z: complex, space: SpaceSpec) -> EvalFunctionalData:
    return EvalFunctionalData(
        z=complex(z),
        space=space,
        norm_value=eval_functional_norm(z, space),
        extremal=extremal_function(z, space),
    )


def multiplied_extremal_norm(g, z_n: complex, space: SpaceSpec, q: QuadConfig) -> float:
    """Norm of g times the extremal function of z_n.

    Sandwiched between |g(z_n)| and the boundary sup of |g|, which is what
    drives the norm up to sup|g| as z_n approaches the maximizing boundary
    point.
    """
    fn = extremal_function(z_n, space)

    def h(w):
        return np.asarray(g(w)) * np.asarray(fn(w))

    return space_norm(h, space, q)

"""Hardy, weighted Bergman, and boundary sup norms with their extremal data.

Conventions.  The circle carries the rotation-invariant unit measure and
the disk the normalized area measure, so the constant 1 has norm 1 in every
space here.  The weighted Bergman norm integrates |f|^p against the
normalized weight (1+a)(1-|z|^2)^a dA with a > -1.  Hardy norms are the
increasing limit of circle means M_p(r), computed on a ladder of radii and
Richardson-extrapolated to r = 1, which also covers symbols that are merely
bounded rather than continuous up to the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError, QuadratureError
from .quadrature import (
    circle_grid,
    circle_mean_abs_pow,
    extrapolate_to_zero,
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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpaceSpec:
    """Selects the underlying space: Hardy H^p or weighted Bergman A^p_a."""

    kind: str
    p: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("hardy", "bergman"):
            raise DomainError(f"unknown space kind {self.kind!r}")
        if not self.p > 0:
            raise DomainError("p must be positive")
        if self.kind == "bergman" and not self.alpha > -1:
            raise DomainError("Bergman weight parameter must exceed -1")

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
    return tuple(1.0 - 2.0**-k for k in range(1, 31))


#: Largest allowed value of each QuadConfig field that sizes memory or work.
RESOURCE_CAPS = {"n_theta": 1 << 20, "n_radial": 2048, "t_nodes": 512}


@dataclass(frozen=True)
class QuadConfig:
    """Knobs for every quadrature and refinement loop in the package.

    hardy_radii is the increasing ladder of circle radii whose means are
    extrapolated to r = 1; the default ladder 1 - 2^-k reaches within 1e-9
    of the boundary so evaluation-functional extremals concentrated near it
    are still resolved.  The fields that size grids and eigensolves are
    capped (``RESOURCE_CAPS``); check_wx builds a Gauss rule of 4 * t_nodes.
    """

    n_theta: int = 2048
    n_radial: int = 96
    hardy_radii: tuple[float, ...] = _default_hardy_radii()
    t_nodes: int = 64
    sup_refine_iters: int = 32
    tol: float = 1e-8

    def __post_init__(self):
        if self.n_theta < 16:
            raise DomainError("n_theta must be at least 16")
        if self.n_radial < 8:
            raise DomainError("n_radial must be at least 8")
        for name, cap in RESOURCE_CAPS.items():
            if getattr(self, name) > cap:
                raise DomainError(f"{name} must be at most {cap}")
        radii = tuple(float(r) for r in self.hardy_radii)
        object.__setattr__(self, "hardy_radii", radii)
        if not radii:
            raise DomainError("hardy_radii must be nonempty")
        if any(r >= 1.0 or r <= 0.0 for r in radii):
            raise DomainError("hardy_radii must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise DomainError("hardy_radii must be strictly increasing")
        if self.t_nodes < 2:
            raise DomainError("t_nodes must be at least 2")
        if self.sup_refine_iters < 1:
            raise DomainError("sup_refine_iters must be positive")
        if not self.tol > 0:
            raise DomainError("tol must be positive")


def _mean_rtol(q: QuadConfig) -> float:
    # Circle means feed extrapolation and radial sums, so they are held one
    # to two orders tighter than the advertised tolerance.
    return max(min(q.tol * 1e-2, 1e-10), 1e-13)


@dataclass(frozen=True)
class SupNormResult:
    """Boundary sup norm with the point attaining it.

    ``residual`` is the width of the final refinement bracket, or the arc
    width when the modulus plateaus and no bracket exists; ``plateau``
    flags that case.  ``peaks`` holds (value, point) for every grid local
    maximum, refined where the search refined it; argmax sets and equality
    certificates reuse them instead of searching again.
    """

    value: float
    maximizer: complex
    residual: float
    plateau: bool = False
    peaks: tuple[tuple[float, complex], ...] = ()


# ---------------------------------------------------------------------------
# Hardy and Bergman norms


def hardy_norm(f, p: float, q: QuadConfig, compare_boundary: bool = False) -> float:
    """H^p norm of an evaluable f: the r -> 1 limit of its circle means.

    The means M_p(r) on q.hardy_radii must be nondecreasing (Hardy
    convexity); a decrease beyond quadrature noise is reported as a
    :class:`QuadratureError`.  With ``compare_boundary`` the extrapolated
    value is cross-checked against the direct boundary integral, which is
    only meaningful for boundary-continuous integrands.
    """
    if not p > 0:
        raise DomainError("p must be positive")
    radii = np.asarray(q.hardy_radii)
    rtol = _mean_rtol(q)
    means_p = circle_mean_abs_pow(f, radii, p, n0=q.n_theta, rtol=rtol)
    means = means_p ** (1.0 / p)
    scale = float(means.max())
    slack = max(1e-12, 1e-8 * scale)
    drops = means[1:] < means[:-1] - slack
    if np.any(drops):
        k = int(np.flatnonzero(drops)[0])
        raise QuadratureError(
            f"circle means decreased between r={radii[k]:.6g} and r={radii[k + 1]:.6g}; "
            "the integrand is not an analytic-function modulus or quadrature failed"
        )
    h = 1.0 - radii
    value = extrapolate_to_zero(h, means, npts=min(8, len(means)))
    value = max(value, float(means[-1]))
    if compare_boundary:
        boundary = float(
            circle_mean_abs_pow(f, [1.0], p, n0=q.n_theta, rtol=rtol)[0] ** (1.0 / p)
        )
        if abs(boundary - value) > 1e-6 * max(1.0, value):
            raise QuadratureError(
                f"boundary integral {boundary:.12g} disagrees with extrapolated "
                f"norm {value:.12g}"
            )
    return float(value)


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


def _golden_max(fn, a, b, iters: int):
    """Vectorized golden-section maximization on brackets [a_i, b_i].

    Returns (argmax, value, width) arrays.  One new evaluation per bracket
    per iteration.
    """
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = fn(x1)
    f2 = fn(x2)
    for _ in range(iters):
        keep_left = f1 > f2
        a2 = np.where(keep_left, a, x1)
        b2 = np.where(keep_left, x2, b)
        x1n = np.where(keep_left, b2 - _INVPHI * (b2 - a2), x2)
        x2n = np.where(keep_left, x1, a2 + _INVPHI * (b2 - a2))
        fresh = fn(np.where(keep_left, x1n, x2n))
        f1n = np.where(keep_left, fresh, f2)
        f2n = np.where(keep_left, f1, fresh)
        a, b, x1, x2, f1, f2 = a2, b2, x1n, x2n, f1n, f2n
        if float(np.max(b - a)) < 1e-15:
            break
    best_left = f1 >= f2
    theta = np.where(best_left, x1, x2)
    value = np.maximum(f1, f2)
    return theta, value, b - a


def _cyclic_runs(mask: np.ndarray) -> list[np.ndarray]:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    if idx.size == mask.size:
        return [idx]
    splits = np.flatnonzero(np.diff(idx) > 1)
    runs = np.split(idx, splits + 1)
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == mask.size - 1:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs.pop()
    return runs


def sup_norm(g, q: QuadConfig) -> SupNormResult:
    """Global maximum of |g| on the unit circle.

    Dense sampling on q.n_theta nodes followed by golden-section
    refinement around every local maximum that could still reach the grid
    maximum after refinement (judged by the local curvature).  Plateaus,
    where |g| is constant to within 1e-9 relative, have no bracket to
    refine; they return the plateau midpoint with the arc width as the
    residual and ``plateau=True``.  All grid local maxima are returned as ``peaks``.
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

    runs = _cyclic_runs(flat)
    arc_entries = []
    in_arc = np.zeros(n, dtype=bool)
    for run in runs:
        if run.size >= 3:
            in_arc[run] = True
            mid = run[run.size // 2]
            arc_entries.append(
                (float(vals[run].max()), float(thetas[mid]), run.size * spacing)
            )

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
    best_plateau = False

    if js.size:
        fn = lambda th: np.abs(np.asarray(g(np.exp(1j * th))))
        theta_ref, val_ref, widths = _golden_max(
            fn, thetas[js] - spacing, thetas[js] + spacing, q.sup_refine_iters
        )
        at = np.searchsorted(lmax, js)
        peak_vals[at] = val_ref
        peak_zs[at] = np.exp(1j * theta_ref)
        k = int(np.argmax(val_ref))
        if float(val_ref[k]) >= best_value:
            best_value = float(val_ref[k])
            best_theta = float(theta_ref[k])
            best_width = float(widths[k])
    for arc_val, arc_mid, arc_width in arc_entries:
        if arc_val > best_value:
            best_value = arc_val
            best_theta = arc_mid
            best_width = arc_width
            best_plateau = True

    return SupNormResult(
        value=max(best_value, vmax),
        maximizer=complex(np.exp(1j * best_theta)),
        residual=best_width,
        plateau=best_plateau,
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

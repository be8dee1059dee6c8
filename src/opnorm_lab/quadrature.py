"""Rules on (0, 1), circle means, adaptive integration and a zoom search.

All rules here are open (no endpoint nodes), which matters because the
integrands fed to them may blow up or lose meaning at t = 0, 1.  Unlike
Gauss rules, Fejer's second rule nests: rule n's nodes are rule 2n + 1's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

__all__ = [
    "AdaptiveIntegral",
    "circle_grid",
    "circle_mean_abs_pow",
    "fejer_rule_01",
    "gauss_rule_01",
    "integrate_adaptive_01",
    "jacobi_rule_01",
]


@lru_cache(maxsize=None)
def gauss_rule_01(n: int):
    """Gauss-Legendre nodes and weights mapped to (0, 1); weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=None)
def fejer_rule_01(n: int):
    """Fejer's second rule (open Clenshaw-Curtis) on (0, 1); weights sum to 1.

    Nodes sin^2(k pi / (2(n+1))), k = 1..n, weights from the direct sine
    sum.  Exact for polynomials of degree below n.  Rule n's nodes are, bit
    for bit, every second node of rule 2n + 1.
    """
    theta = np.arange(1, int(n) + 1) * np.pi / (n + 1)
    odd = np.arange(1, n + 1, 2)
    nodes = np.sin(0.5 * theta) ** 2
    weights = 2.0 * np.sin(theta) / (n + 1) * (np.sin(np.outer(theta, odd)) @ (1.0 / odd))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=None)
def jacobi_rule_01(n: int, alpha: float):
    """Nodes/weights for s -> integral over (0,1) of (1+a)(1-s)^a phi(s) ds.

    Built from the Gauss-Jacobi rule with weight (1-x)^alpha on (-1, 1), so
    the endpoint behavior of the weight is exact and the weights sum to 1.
    scipy is imported here, its only use, so it loads only with a Bergman norm.
    """
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(int(n), float(alpha), 0.0)
    s = 0.5 * (x + 1.0)
    ws = (1.0 + alpha) * (0.5 ** (alpha + 1.0)) * w
    s.flags.writeable = False
    ws.flags.writeable = False
    return s, ws


#: Zoom steps for the sup norm's maxima and the continuity screen's minima; each
#: step shrinks a bracket 8x.
SUP_REFINE_STEPS = 8
CONTINUITY_REFINE_STEPS = 10
#: The largest angular grid of a circle mean, and the most values asked of f at once.
CIRCLE_MAX_NODES = 1 << 18
CIRCLE_BLOCK_ELEMS = 1 << 21
#: Panel halvings before an adaptive integral reports its disagreement as unresolved.
ADAPTIVE_MAX_DEPTH = 24

_ZOOM_OFFSETS = np.arange(-7, 8)


def _zoom_max(fn, a, b, steps: int):
    """Vectorized zoom maximization on brackets [a_i, b_i].

    Each step asks ``fn`` once for 15 equispaced interior points of every
    bracket, an array of shape (brackets, 15) whose 8th column is the
    bracket's centre.  The centre stays the best point unless a sample is
    strictly larger, and the bracket shrinks 8x to one sample spacing on
    either side of the best point, so a unimodal maximizer stays inside.
    Returns (argmax, value, width) arrays.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    centre, h = 0.5 * (a + b), (b - a) / 16.0
    rows = np.arange(centre.size)
    for _ in range(steps):
        vals = fn(centre[:, None] + h[:, None] * _ZOOM_OFFSETS)
        best = np.argmax(vals, axis=1)
        best = np.where(vals[rows, best] > vals[:, 7], best, 7)  # column 7: offset 0
        value = vals[rows, best]
        centre = centre + h * _ZOOM_OFFSETS[best]
        h = h / 8.0
    return centre, value, 16.0 * h


def circle_grid(n: int) -> np.ndarray:
    """n equispaced points on the unit circle starting at 1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def circle_mean_abs_pow(
    f,
    radii,
    p: float,
    n0: int = 1024,
    rtol: float = 1e-11,
):
    """Mean over the circle of |f(r e^{i theta})|^p for each radius r.

    Uses the equispaced (periodic trapezoid) rule and doubles the angular
    count by interleaving a half-shifted grid until two successive
    estimates agree to ``rtol`` relative, separately per radius.  Each
    refinement reuses all previous samples, so the cost is about twice the
    final grid.  ``f`` must accept complex numpy arrays of any shape.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii < 0) or np.any(radii > 1):
        raise QuadratureError("circle radii must lie in [0, 1]")

    def grid_means(rs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        out = np.empty(len(rs))
        ring = np.exp(1j * thetas)
        step = max(1, CIRCLE_BLOCK_ELEMS // max(len(thetas), 1))
        for i in range(0, len(rs), step):
            block = rs[i : i + step, None] * ring[None, :]
            vals = np.abs(np.asarray(f(block)))
            out[i : i + step] = np.mean(vals**p, axis=1)
        return out

    n = int(n0)
    cur = grid_means(radii, 2.0 * np.pi * np.arange(n) / n)
    active = np.ones(len(radii), dtype=bool)
    tiny = np.finfo(float).tiny
    while active.any():
        if 2 * n > CIRCLE_MAX_NODES:
            raise QuadratureError(
                f"circle means did not settle below {CIRCLE_MAX_NODES} angular nodes"
            )
        offsets = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        shifted = grid_means(radii[active], offsets)
        new = 0.5 * (cur[active] + shifted)
        delta = np.abs(new - cur[active])
        cur[active] = new
        converged = delta <= rtol * np.maximum(np.abs(new), tiny)
        idx = np.flatnonzero(active)
        active[idx[converged]] = False
        n *= 2
    return cur


@dataclass(frozen=True)
class AdaptiveIntegral:
    value: complex
    converged: bool
    refine_delta: float
    n_evals: int


def integrate_adaptive_01(fn, base_n: int = 16, atol: float = 1e-9) -> AdaptiveIntegral:
    """Adaptive integral of fn over (0, 1) built from open Gauss panels.

    ``fn`` maps a panel's array of t to its array of values.  Each panel
    compares its base rule against the doubled rule and splits while the
    two disagree by more than the panel's share of ``atol``; the unresolved
    disagreement at the depth cap ``ADAPTIVE_MAX_DEPTH`` is reported in
    ``refine_delta`` so divergent integrands show up as converged=False
    rather than a wrong number presented with confidence.
    """
    lo_nodes, lo_w = gauss_rule_01(base_n)
    hi_nodes, hi_w = gauss_rule_01(2 * base_n)
    state = {"evals": 0}

    def apply_rule(a: float, h: float, nodes, weights):
        ts = a + h * nodes
        vals = np.asarray(fn(ts))
        state["evals"] += len(ts)
        return h * (weights @ vals)

    def panel(a: float, h: float, depth: int):
        coarse = apply_rule(a, h, lo_nodes, lo_w)
        fine = apply_rule(a, h, hi_nodes, hi_w)
        delta = abs(fine - coarse)
        if delta <= atol * h + 1e-14 * abs(fine):
            return fine, 0.0
        if depth >= ADAPTIVE_MAX_DEPTH:
            return fine, delta
        left_val, left_d = panel(a, h / 2, depth + 1)
        right_val, right_d = panel(a + h / 2, h / 2, depth + 1)
        return left_val + right_val, left_d + right_d

    value, unresolved = panel(0.0, 1.0, 0)
    if isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
    else:
        value = float(value)
    return AdaptiveIntegral(
        value=value,
        converged=unresolved <= max(atol, 1e-12),
        refine_delta=float(unresolved),
        n_evals=state["evals"],
    )

import math

import numpy as np
import pytest

import opnorm_lab as ol
from opnorm_lab.quadrature import SUP_REFINE_STEPS


def const_one(w):
    return np.ones_like(np.asarray(w, dtype=complex))


def test_space_spec_validation():
    with pytest.raises(ol.DomainError):
        ol.SpaceSpec.hardy(0.0)
    with pytest.raises(ol.DomainError):
        ol.SpaceSpec.bergman(2.0, -1.0)
    with pytest.raises(ol.DomainError):
        ol.SpaceSpec("lebesgue", 2.0)
    assert ol.SpaceSpec.hardy(2.0).reflexive
    assert not ol.SpaceSpec.hardy(1.0).reflexive


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_spec_and_config_numbers_are_rejected(bad):
    with pytest.raises(ol.DomainError, match="p must be"):
        ol.SpaceSpec.hardy(bad)
    with pytest.raises(ol.DomainError, match="p must be"):
        ol.SpaceSpec.bergman(bad, 0.0)
    with pytest.raises(ol.DomainError, match="Bergman weight"):
        ol.SpaceSpec.bergman(2.0, bad)
    with pytest.raises(ol.DomainError, match="tol"):
        ol.QuadConfig(tol=bad)
    for radii in ((bad,), (0.5, bad), (bad, 0.5)):
        with pytest.raises(ol.DomainError, match="hardy_radii"):
            ol.QuadConfig(hardy_radii=radii)
    for field in ("n_theta", "n_radial", "t_nodes"):
        with pytest.raises(ol.DomainError, match=field):
            ol.QuadConfig(**{field: bad})


def test_quad_config_validation():
    with pytest.raises(ol.DomainError):
        ol.QuadConfig(n_theta=8)
    with pytest.raises(ol.DomainError):
        ol.QuadConfig(n_radial=4)
    with pytest.raises(ol.DomainError):
        ol.QuadConfig(hardy_radii=(0.9, 0.5))
    with pytest.raises(ol.DomainError):
        ol.QuadConfig(hardy_radii=(0.5, 1.0))
    with pytest.raises(ol.DomainError, match="nonempty"):
        ol.QuadConfig(hardy_radii=())
    with pytest.raises(ol.DomainError, match="t_nodes"):
        ol.QuadConfig(t_nodes=1)
    with pytest.raises(ol.DomainError, match="tol"):
        ol.QuadConfig(tol=0.0)


@pytest.mark.parametrize(
    "field,cap", [("n_theta", 2**20), ("n_radial", 2048), ("t_nodes", 512)]
)
def test_quad_config_caps_resource_fields(field, cap):
    assert getattr(ol.QuadConfig(**{field: cap}), field) == cap
    with pytest.raises(ol.DomainError, match=f"{field} must be at most {cap}"):
        ol.QuadConfig(**{field: cap + 1})


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_hardy_norm_of_constant(p, quad):
    assert ol.hardy_norm(const_one, p, quad) == pytest.approx(1.0, abs=1e-10)


def test_hardy_norm_of_extremal(quad):
    # Oracle: the circle identity behind the unit norm, on a 1e6-node
    # trapezoid grid.
    zn = 0.9
    th = 2 * np.pi * np.arange(1_000_000) / 1_000_000
    oracle = np.mean(1.0 / np.abs(1 - zn * np.exp(1j * th)) ** 2)
    assert oracle == pytest.approx(1.0 / (1.0 - zn * zn), rel=1e-12)

    sp = ol.SpaceSpec.hardy(2.0)
    f = ol.extremal_function(zn, sp)
    assert ol.hardy_norm(f, 2.0, quad) == pytest.approx(1.0, abs=1e-8)


def test_hardy_norm_of_monomial(quad):
    assert ol.hardy_norm(lambda w: w**5, 4.0, quad) == pytest.approx(1.0, abs=1e-10)


def test_hardy_norm_detects_nonanalytic_means(quad):
    # |f| decreasing in r cannot come from an analytic function.
    with pytest.raises(ol.QuadratureError, match="decreased"):
        ol.hardy_norm(lambda w: np.exp(-np.abs(w)) + 0j, 2.0, quad)


def test_hardy_norm_boundary_crosscheck(quad):
    value = ol.hardy_norm(lambda w: (w + 2.0) / 3.0, 2.0, quad)
    assert value == pytest.approx(math.sqrt(5.0) / 3.0, abs=1e-9)


@pytest.mark.parametrize("p,alpha", [(1.5, -0.5), (2.0, 0.0), (4.0, 1.0)])
def test_bergman_norm_of_constant(p, alpha, quad):
    assert ol.bergman_norm(const_one, p, alpha, quad) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p,alpha", [(0.0, 0.0), (-1.0, 0.0), (2.0, -1.0)])
def test_bergman_norm_rejects_bad_parameters(p, alpha, quad):
    with pytest.raises(ol.DomainError):
        ol.bergman_norm(const_one, p, alpha, quad)


def test_bergman_norm_of_extremal(quad):
    # Oracle: 2-D composite midpoint with 1e6 cells in (r^2, theta).
    zn, p = 0.8, 2.0
    s = (np.arange(1000) + 0.5) / 1000
    th = 2 * np.pi * (np.arange(1000) + 0.5) / 1000
    grid = np.sqrt(s)[:, None] * np.exp(1j * th)[None, :]
    fvals = (1 - zn * zn) / (1 - zn * grid) ** 2
    oracle = float(np.mean(np.abs(fvals) ** 2))
    assert oracle == pytest.approx(1.0, abs=2e-6)

    sp = ol.SpaceSpec.bergman(p, 0.0)
    f = ol.extremal_function(zn, sp)
    assert ol.bergman_norm(f, p, 0.0, quad) == pytest.approx(1.0, abs=1e-7)


def test_bergman_norm_of_z(quad):
    # radial moment: integral of |z|^2 over the normalized disk is 1/2
    val = ol.bergman_norm(lambda w: np.asarray(w, dtype=complex), 2.0, 0.0, quad)
    assert val == pytest.approx(math.sqrt(0.5), abs=1e-10)


def test_sup_norm_affine(quad):
    c, t0 = 0.3, 0.5
    g = ol.frozen_symbol(ol.parse_symbol("(c + t + z)", {"c": c}), t0)
    res = ol.sup_norm(g, quad)
    assert res.value == pytest.approx(c + t0 + 1.0, abs=1e-10)
    assert abs(res.maximizer - 1.0) < 1e-6
    assert res.residual <= quad.tol
    assert not res.plateau


def test_sup_norm_monomial_plateau(quad):
    res = ol.sup_norm(lambda w: w**3, quad)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.plateau


def test_sup_norm_blaschke(quad):
    g = ol.frozen_symbol(ol.parse_symbol("blaschke([0.5, 0.9]; 1)"))
    res = ol.sup_norm(g, quad)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_sup_norm_value_dominates_grid(quad):
    g = ol.frozen_symbol(ol.parse_symbol("(2 + z) * blaschke([0.4]; 0)"))
    res = ol.sup_norm(g, quad)
    grid = np.exp(2j * np.pi * np.arange(quad.n_theta) / quad.n_theta)
    assert res.value >= float(np.max(np.abs(np.asarray(g(grid))))) - 1e-15


def test_sup_norm_calls_g_once_per_zoom_step(quad):
    g = ol.frozen_symbol(ol.parse_symbol("(2 + z) * blaschke([0.4]; 0)"))
    calls = []

    def counted(w):
        calls.append(w)
        return g(w)

    ol.sup_norm(counted, quad)
    assert len(calls) == 1 + SUP_REFINE_STEPS


@pytest.mark.parametrize("n_theta", [256, 2048])
def test_sup_norm_finds_a_narrow_peak_between_grid_points(n_theta):
    # |1/(1 + eps - e^{i phi} z)| peaks at 1/eps, off every grid point, on
    # an arc of width about eps.
    eps, phi = 1e-3, math.pi / 2048 + 1e-4
    res = ol.sup_norm(
        lambda w: 1.0 / (1.0 + eps - np.exp(1j * phi) * w), ol.QuadConfig(n_theta=n_theta)
    )
    assert res.value == pytest.approx(1.0 / eps, rel=1e-12)


def test_sup_norm_raises_when_the_modulus_overflows_between_grid_points():
    # Every grid value is finite, but |g| exceeds the float range near the
    # peak between grid points; the sup norm must not come back as inf.
    fam = ol.parse_symbol(
        "C*(1+i)/(1 + e - exp(i*phi)*z)", {"C": 1.3e305, "e": 1e-3, "phi": math.pi / 2048 + 1e-4}
    )
    assert ol.is_boundary_continuous(fam)
    with pytest.raises(ol.EvaluationError, match="between grid points"):
        ol.sup_norm(ol.frozen_symbol(fam), ol.QuadConfig())


@pytest.mark.parametrize("cells,arc", [(2, False), (3, True), (4, True)])
def test_flat_arcs_need_three_cells(cells, arc):
    # |g| = 1 exactly on `cells` grid cells around theta = 0, across the
    # wrap-around, and falls off linearly outside them.  Three or more are
    # a flat arc, kept at one grid cell; two are refined.
    n = 64
    h = 2 * math.pi / n
    centre = (cells + 1) % 2 * h / 2
    radius = (cells / 2 - 0.25) * h

    def g(w):
        off = np.abs(np.angle(w * np.exp(-1j * centre)))
        return 1.0 - 0.1 * np.maximum(0.0, off - radius)

    res = ol.sup_norm(g, ol.QuadConfig(n_theta=n))
    assert res.value == 1.0
    assert (res.residual == h) if arc else (res.residual < 1e-6)


def test_eval_functional_norm_values():
    assert ol.eval_functional_norm(0.0, ol.SpaceSpec.hardy(1.5)) == 1.0
    assert ol.eval_functional_norm(0.0, ol.SpaceSpec.bergman(4.0, 1.0)) == 1.0
    assert ol.eval_functional_norm(0.6, ol.SpaceSpec.hardy(2.0)) == pytest.approx(
        1.25, rel=1e-14
    )
    assert ol.eval_functional_norm(0.6, ol.SpaceSpec.bergman(2.0, 0.0)) == pytest.approx(
        1.5625, rel=1e-14
    )
    with pytest.raises(ol.DomainError):
        ol.eval_functional_norm(1.0, ol.SpaceSpec.hardy(2.0))
    with pytest.raises(ol.DomainError):
        ol.extremal_function(1.0, ol.SpaceSpec.hardy(2.0))


def test_extremal_function_at_origin_is_one():
    for sp in (ol.SpaceSpec.hardy(2.0), ol.SpaceSpec.bergman(2.0, 0.5)):
        f = ol.extremal_function(0.0, sp)
        for w in (0.0j, 0.5 + 0.1j, -0.8j):
            assert complex(f(w)) == pytest.approx(1.0, abs=1e-14)


def test_extremal_attains_functional_norm():
    sp = ol.SpaceSpec.hardy(2.0)
    f = ol.extremal_function(0.9, sp)
    delta = ol.eval_functional_norm(0.9, sp)
    assert delta == pytest.approx(2.2941573387056176, rel=1e-12)
    assert complex(f(0.9)) == pytest.approx(delta, rel=1e-12)


def test_eval_functional_data_bundle():
    sp = ol.SpaceSpec.bergman(2.0, 0.0)
    data = ol.eval_functional_data(0.8, sp)
    assert data.norm_value == pytest.approx((1 - 0.64) ** -1.0, rel=1e-14)
    assert complex(data.extremal(0.8)) == pytest.approx(data.norm_value, rel=1e-12)


def test_multiplied_extremal_norm_constant(quad):
    sp = ol.SpaceSpec.hardy(2.0)
    val = ol.multiplied_extremal_norm(const_one, 0.7, sp, quad)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_multiplied_extremal_norm_sandwich(quad):
    # |z| has boundary modulus one, so every multiplied norm equals 1; the
    # lower bound |g(z_n)| = |z_n| still climbs with k.
    sp = ol.SpaceSpec.hardy(2.0)
    g = lambda w: np.asarray(w, dtype=complex)
    prev = 0.0
    for k in range(4, 11):
        zn = 1 - 2.0**-k
        val = ol.multiplied_extremal_norm(g, zn, sp, quad)
        assert zn - 1e-8 <= val <= 1.0 + 1e-8
        assert val >= prev - 1e-9
        prev = val
    assert prev == pytest.approx(1.0, abs=1e-8)


def test_multiplied_extremal_norm_approaches_sup(quad):
    sp = ol.SpaceSpec.hardy(2.0)
    g = ol.frozen_symbol(ol.parse_symbol("(z + 2) / 3"))
    val = ol.multiplied_extremal_norm(g, 1 - 2.0**-10, sp, quad)
    assert abs(val - 1.0) < 5e-3

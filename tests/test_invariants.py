import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opnorm_lab as ol
from opnorm_lab.random_families import random_family, random_frozen_symbol

HARDY2 = ol.SpaceSpec.hardy(2.0)
BERGMAN = ol.SpaceSpec.bergman(2.0, 0.5)


# ---------------------------------------------------------------------------
# Parser round-trip on grammar-shaped ASTs


def _const_strategy():
    reals = st.floats(
        min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
    ).map(ol.Const)
    units = st.sampled_from([ol.Const(1j), ol.Const(-1j)])
    return st.one_of(reals, units)


def _blaschke_strategy():
    zero = st.builds(
        lambda r, phi: complex(r * math.cos(phi), r * math.sin(phi)),
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    return st.builds(
        ol.Blaschke,
        st.lists(zero, min_size=0, max_size=3).map(tuple),
        st.integers(min_value=0, max_value=3),
    )


def _extend(children):
    binary = st.sampled_from([ol.Add, ol.Sub, ol.Mul, ol.Div])
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), binary, children, children),
        st.builds(
            ol.IntPow, children, st.integers(min_value=0, max_value=5)
        ),
        st.builds(ol.Exp, children),
        children.filter(lambda e: not isinstance(e, ol.Const)).map(ol.Neg),
    )


_EXPRS = st.recursive(
    st.one_of(
        _const_strategy(),
        st.just(ol.VarZ()),
        st.just(ol.ParamT()),
        _blaschke_strategy(),
    ),
    _extend,
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(_EXPRS)
def test_parse_format_roundtrip_is_identity(expr):
    text = ol.format_expr(expr)
    assert ol.parse_symbol(text).body == expr


# ---------------------------------------------------------------------------
# Norm invariances


def test_rotation_invariance_of_norms(quad, rng):
    for _ in range(6):
        fam, t = random_frozen_symbol(rng)
        g = ol.frozen_symbol(fam, t)
        lam = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        rotated = lambda w: g(lam * np.asarray(w, dtype=complex))
        assert ol.hardy_norm(rotated, 2.0, quad) == pytest.approx(
            ol.hardy_norm(g, 2.0, quad), abs=1e-9, rel=1e-9
        )
        assert ol.bergman_norm(rotated, 2.0, 0.5, quad) == pytest.approx(
            ol.bergman_norm(g, 2.0, 0.5, quad), abs=1e-9, rel=1e-9
        )


def test_norm_homogeneity(quad, rng):
    for _ in range(6):
        fam, t = random_frozen_symbol(rng)
        g = ol.frozen_symbol(fam, t)
        c = complex(rng.normal() + 1j * rng.normal())
        scaled = lambda w: c * np.asarray(g(w))
        for norm in (
            lambda h: ol.hardy_norm(h, 1.5, quad),
            lambda h: ol.bergman_norm(h, 2.0, 0.0, quad),
            lambda h: ol.sup_norm(h, quad).value,
        ):
            assert norm(scaled) == pytest.approx(abs(c) * norm(g), rel=1e-10, abs=1e-10)


def test_monotone_circle_means(quad, rng):
    from opnorm_lab.quadrature import circle_mean_abs_pow

    radii = np.asarray(quad.hardy_radii)
    for _ in range(6):
        fam, t = random_frozen_symbol(rng)
        g = ol.frozen_symbol(fam, t)
        means = circle_mean_abs_pow(g, radii, 2.0, n0=quad.n_theta, rtol=1e-11) ** 0.5
        slack = 1e-9 * max(1.0, float(means.max()))
        assert np.all(means[1:] >= means[:-1] - slack)


def test_submultiplicativity_witness(quad, rng):
    for _ in range(8):
        fam_g, tg = random_frozen_symbol(rng)
        fam_f, tf = random_frozen_symbol(rng)
        g = ol.frozen_symbol(fam_g, tg)
        f = ol.frozen_symbol(fam_f, tf)
        product = lambda w: np.asarray(g(w)) * np.asarray(f(w))
        lhs = ol.hardy_norm(product, 2.0, quad)
        rhs = ol.sup_norm(g, quad).value * ol.hardy_norm(f, 2.0, quad)
        assert lhs <= rhs + 1e-8


def test_extremal_attainment_sweep(quad, rng):
    for _ in range(8):
        zn = complex(rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        sp = (
            ol.SpaceSpec.hardy(float(rng.uniform(1.1, 4.0)))
            if rng.random() < 0.5
            else ol.SpaceSpec.bergman(
                float(rng.uniform(1.1, 4.0)), float(rng.uniform(-0.5, 2.0))
            )
        )
        f = ol.extremal_function(zn, sp)
        assert abs(complex(f(zn)) - ol.eval_functional_norm(zn, sp)) < 1e-12 * max(
            1.0, ol.eval_functional_norm(zn, sp)
        )


# ---------------------------------------------------------------------------
# Operator-level invariances


def test_one_sided_inequality_sample(rng):
    q = ol.QuadConfig(n_theta=1024, tol=1e-7)
    for _ in range(20):
        fam = random_family(rng)
        rep = ol.gap_report(fam, HARDY2, q)
        assert rep.gap >= -1e-6


def test_unimodular_blaschke_factor_invariance(quad, rng):
    from opnorm_lab.random_families import random_blaschke

    for _ in range(4):
        fam = random_family(rng, allow_blaschke=False)
        factor = random_blaschke(rng)
        dressed = ol.SymbolFamily(ol.Mul(fam.body, factor))
        rep = ol.gap_report(fam, HARDY2, quad)
        rep_dressed = ol.gap_report(dressed, HARDY2, quad)
        assert rep_dressed.lhs == pytest.approx(rep.lhs, abs=1e-7)
        assert rep_dressed.rhs == pytest.approx(rep.rhs, abs=1e-7)


def test_global_phase_invariance_of_gap(quad, rng):
    for _ in range(4):
        fam = random_family(rng)
        phase = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        rotated = ol.SymbolFamily(ol.Mul(ol.Const(phase), fam.body))
        rep = ol.gap_report(fam, HARDY2, quad)
        rep_rot = ol.gap_report(rotated, HARDY2, quad)
        assert rep_rot.lhs == pytest.approx(rep.lhs, abs=1e-10, rel=1e-10)
        assert rep_rot.rhs == pytest.approx(rep.rhs, abs=1e-10, rel=1e-10)
        assert rep_rot.gap == pytest.approx(rep.gap, abs=1e-10)


def _reflect_t(node):
    """The AST with every t replaced by 1 - t."""
    if isinstance(node, ol.ParamT):
        return ol.Sub(ol.Const(1.0), ol.ParamT())
    names = [a for a in ("left", "right", "arg", "base") if hasattr(node, a)]
    kids = {a: _reflect_t(getattr(node, a)) for a in names}
    return dataclasses.replace(node, **kids) if kids else node


def _same(a, b, scale=1.0):
    return abs(a - b) <= 1e-12 * max(abs(a), scale)


_METAMORPHIC_QUAD = ol.QuadConfig(n_theta=1024, tol=1e-7)
#: A fixed Blaschke product: unimodular on the circle, so it changes no norm here.
_FIXED_BLASCHKE = ol.Blaschke((0.5, 0.3 + 0.4j), 1)


def test_reflection_in_t_leaves_the_gap_unchanged():
    q = _METAMORPHIC_QUAD
    rng = np.random.default_rng(11)
    for _ in range(12):
        fam = random_family(rng)
        rep = ol.gap_report(fam, HARDY2, q)
        ref = ol.gap_report(ol.SymbolFamily(_reflect_t(fam.body)), HARDY2, q)
        assert _same(ref.lhs, rep.lhs) and _same(ref.rhs, rep.rhs)
        assert _same(ref.gap, rep.gap, scale=rep.rhs)


def test_reflection_in_t_leaves_the_wx_integral_unchanged():
    q = ol.QuadConfig(n_theta=256, t_nodes=16)
    rng = np.random.default_rng(11)
    canonical = ol.parse_symbol("(c + t + z) * blaschke([0.5, 0.9]; 0)", {"c": -0.5})
    for fam in [canonical] + [random_family(rng) for _ in range(4)]:
        rep = ol.check_wx(fam, HARDY2, q).cond3
        ref = ol.check_wx(ol.SymbolFamily(_reflect_t(fam.body)), HARDY2, q).cond3
        assert [n for n, _ in ref.estimates] == [n for n, _ in rep.estimates] == [15, 31, 63]
        assert all(_same(b, a) for (_, a), (_, b) in zip(rep.estimates, ref.estimates))


def test_fixed_blaschke_factor_leaves_every_norm_unchanged():
    q = _METAMORPHIC_QUAD
    rng = np.random.default_rng(11)
    for _ in range(12):
        fam = random_family(rng)
        dressed = ol.SymbolFamily(ol.Mul(fam.body, _FIXED_BLASCHKE))
        rep, rep_b = ol.gap_report(fam, HARDY2, q), ol.gap_report(dressed, HARDY2, q)
        assert _same(rep_b.lhs, rep.lhs) and _same(rep_b.rhs, rep.rhs)
        assert _same(rep_b.gap, rep.gap, scale=rep.rhs)
        for t in (0.3, 0.7):
            g, g_b = ol.frozen_symbol(fam, t), ol.frozen_symbol(dressed, t)
            assert _same(ol.sup_norm(g_b, q).value, ol.sup_norm(g, q).value)
            assert _same(ol.hardy_norm(g_b, 2.0, q), ol.hardy_norm(g, 2.0, q))


def test_gap_scaling(quad, rng):
    for _ in range(3):
        fam = random_family(rng)
        c = float(rng.uniform(0.5, 3.0))
        scaled = ol.SymbolFamily(ol.Mul(ol.Const(c), fam.body))
        rep = ol.gap_report(fam, HARDY2, quad)
        rep_scaled = ol.gap_report(scaled, HARDY2, quad)
        assert rep_scaled.lhs == pytest.approx(c * rep.lhs, rel=1e-10, abs=1e-10)
        assert rep_scaled.rhs == pytest.approx(c * rep.rhs, rel=1e-10, abs=1e-10)


def test_maximizing_sequence_consistency(quad, rng):
    # scale symbols to unit sup norm; the 1e-3 tolerance is meaningful at
    # that scale only
    for _ in range(20):
        fam, t = random_frozen_symbol(rng, blaschke_radius=0.55)
        g = ol.frozen_symbol(fam, t)
        scale = ol.mult_operator_norm(g, HARDY2, quad)
        unit = lambda w: np.asarray(g(w)) / scale
        norm = ol.mult_operator_norm(unit, HARDY2, quad)
        m = ol.maximizing_sequence(unit, HARDY2, 14, quad)
        assert max(m.values) >= norm - 1e-3


# ---------------------------------------------------------------------------
# Certificate invariances


def test_phase_rotation_equivariance_of_certificates(quad, rng):
    for c in (0.3, -1.2):
        fam = ol.parse_symbol("(c + t + z)", {"c": c})
        phi = float(rng.uniform(0.2, 6.0))
        phase = cmath.exp(1j * phi)
        rotated = ol.SymbolFamily(ol.Mul(ol.Const(phase), fam.body))
        rep = ol.certify_equality(fam, HARDY2, quad)
        rep_rot = ol.certify_equality(rotated, HARDY2, quad)
        assert rep_rot.verdict == rep.verdict
        cand, cand_rot = rep.candidates[0], rep_rot.candidates[0]
        # theta inherits the maximizer's refinement jitter at first order,
        # residuals only at second order
        assert abs(cand_rot.theta - cand.theta * phase.conjugate()) < 1e-6
        assert cand_rot.i1_residual == pytest.approx(cand.i1_residual, abs=1e-10)
        assert cand_rot.i2_residual == pytest.approx(cand.i2_residual, abs=1e-10)


def test_blaschke_factor_preserves_verdicts(quad):
    for c, expected in ((0.3, "EqualityCertified"), (-0.5, "StrictInequalityEvidence")):
        plain = ol.parse_symbol("(c + t + z)", {"c": c})
        dressed = ol.parse_symbol(
            "(c + t + z) * blaschke([0.5, 0.9]; 0)", {"c": c}
        )
        rep_plain = ol.certify_equality(plain, HARDY2, quad)
        rep_dressed = ol.certify_equality(dressed, HARDY2, quad)
        assert rep_plain.verdict == expected
        assert rep_dressed.verdict == expected
        if rep_plain.candidates and rep_dressed.candidates:
            assert rep_dressed.candidates[0].i2_residual == pytest.approx(
                rep_plain.candidates[0].i2_residual, abs=1e-7
            )

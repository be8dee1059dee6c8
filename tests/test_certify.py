import math

import numpy as np
import pytest

import opnorm_lab as ol
from opnorm_lab.quadrature import fejer_rule_01

HARDY2 = ol.SpaceSpec.hardy(2.0)


def test_check_wx_affine_family_passes(quad):
    rep = ol.check_wx(ol.parse_symbol("(c + t + z)", {"c": -0.5}), HARDY2, quad)
    assert rep.verdict == "PassEvidence"
    assert all(p.decreasing for p in rep.cond1)
    assert not rep.cond3.diverging


def test_check_wx_inverse_t_fails_condition_three(quad):
    fam = ol.parse_symbol("(t^(-1)) * z")
    rep = ol.check_wx(fam, HARDY2, quad)
    assert rep.verdict == "FailWithWitness"
    assert rep.cond3.diverging
    assert rep.witness is not None and "keep growing" in rep.witness
    # doubled-rule estimates of a log-divergent integral grow by a constant
    estimates = [v for _, v in rep.cond3.estimates]
    assert estimates[1] - estimates[0] > 1.0
    assert estimates[2] - estimates[1] > 1.0


def test_check_wx_inverse_t_passes_on_compacts(quad):
    # conditions (1) and (2) hold away from t = 0 even though (3) fails
    fam = ol.parse_symbol("(t^(-1)) * z")
    probe = np.linspace(0.1, 0.9, 9)
    rep = ol.check_wx(fam, HARDY2, quad, t_probe=probe)
    assert all(p.decreasing for p in rep.cond1)
    assert rep.cond2[0].sup_value == pytest.approx(10.0, rel=1e-9)
    assert rep.cond3.diverging


def test_check_wx_probe_validation(quad):
    fam = ol.parse_symbol("(c + t + z)", {"c": 0.0})
    with pytest.raises(ol.DomainError):
        ol.check_wx(fam, HARDY2, quad, t_probe=[0.2, 0.4, 0.6])
    with pytest.raises(ol.DomainError):
        ol.check_wx(fam, HARDY2, quad, t_probe=np.linspace(0.0, 0.9, 10))


@pytest.mark.parametrize("condition", [2, 3])
def test_check_wx_evaluation_failure_names_its_condition(condition):
    # The pole t = c sits on the condition-2 grid (c = 0.5) or on the
    # 31-node condition-3 rule but not the 15-node one, and on no
    # condition-1 probe.
    c = 0.5 if condition == 2 else float(fejer_rule_01(31)[0][10])
    fam = ol.parse_symbol("z / (t - c)", {"c": c})
    rep = ol.check_wx(fam, HARDY2, ol.QuadConfig(n_theta=256, t_nodes=16, tol=1e-6))
    assert rep.verdict == "Inconclusive"
    assert rep.witness.startswith(f"evaluation failed during condition {condition}: ")
    assert len(rep.cond1) == 8 and all(p.values for p in rep.cond1)
    assert len(rep.cond2) == 2 * (condition - 2)
    assert len(rep.cond3.estimates) == condition - 2
    assert rep.cond3.deltas == () and not rep.cond3.diverging


def test_check_wx_condition_three_reads_one_nested_table(monkeypatch):
    # Condition 2 scans 2 x 33 t; condition 3 scans the 63 nodes of the
    # finest Fejer rule once each, the 15 and 31 coarser nodes among them.
    from opnorm_lab import certify

    ts: list[float] = []
    calls = []
    frozen, sup = certify.frozen_symbol, certify.sup_norm
    monkeypatch.setattr(certify, "frozen_symbol", lambda f, t: ts.append(t) or frozen(f, t))
    monkeypatch.setattr(certify, "sup_norm", lambda g, q: calls.append(1) or sup(g, q))
    fam = ol.parse_symbol("(c + t + z) * blaschke([0.5, 0.9]; 0)", {"c": -0.5})
    rep = ol.check_wx(fam, HARDY2, ol.QuadConfig(n_theta=256, t_nodes=16))
    assert rep.verdict == "PassEvidence"
    assert len(calls) == len(ts) == 66 + 63
    assert sorted(ts[66:]) == fejer_rule_01(63)[0].tolist()
    assert [n for n, _ in rep.cond3.estimates] == [15, 31, 63]


def test_argmax_set_positive_coefficient(quad):
    # A shift c + t of 1e-7 or 1e-9 leaves |g| flat to 1e-9 on a partial arc
    # around the maximizer, which is then only pinned down to one grid cell.
    # With 1 + z^2 + 0.001 z the peak at -1 is 0.002 below the one at +1:
    # outside the default band, inside a band of 0.01.
    cell = 2 * np.pi / quad.n_theta
    cases = (
        ("(c + t + z)", 0.3, 1e-6, (1.0,), 1e-6),
        ("(c + t + z)", -0.5 + 1e-7, 1e-6, (1.0,), cell),
        ("(c + t + z)", -0.5 + 1e-9, 1e-6, (1.0,), cell),
        ("1 + z^2 + c*z", 1e-3, 1e-6, (1.0,), 1e-6),
        ("1 + z^2 + c*z", 1e-3, 0.01, (1.0, -1.0), 1e-6),
    )
    for text, c, band, expected, tol in cases:
        box = ol.argmax_set(ol.parse_symbol(text, {"c": c}), 0.5, quad, band=band)
        assert not box.full_circle
        assert len(box.points) == len(expected)
        assert all(abs(p - e) < tol for p, e in zip(box.points, expected))


def test_argmax_set_negative_coefficient(quad):
    cell = 2 * np.pi / quad.n_theta
    for c, tol in ((-2.0, 1e-6), (-0.5 - 1e-7, cell)):
        fam = ol.parse_symbol("(c + t + z)", {"c": c})
        box = ol.argmax_set(fam, 0.5, quad, band=1e-6)
        assert not box.full_circle
        assert len(box.points) == 1
        assert abs(box.points[0] + 1.0) < tol


def test_argmax_set_plateau_sentinel(quad):
    box = ol.argmax_set(ol.parse_symbol("z^2"), 0.5, quad, band=1e-6)
    assert box.full_circle


def test_argmax_set_near_zero_sentinel(quad):
    box = ol.argmax_set(ol.parse_symbol("0.0 * z"), 0.5, quad, band=1e-6)
    assert box.full_circle


def test_argmax_contains_sup_maximizer(quad, rng):
    from opnorm_lab.random_families import random_frozen_symbol

    for _ in range(10):
        fam, t = random_frozen_symbol(rng)
        res = ol.sup_norm(ol.frozen_symbol(fam, t), quad)
        box = ol.argmax_set(fam, t, quad, band=1e-6)
        if box.full_circle:
            continue
        merge = 2 * np.pi / quad.n_theta
        assert any(
            abs(np.angle(p * np.conj(res.maximizer))) <= merge for p in box.points
        )


def test_certify_equality_positive_shift(quad):
    rep = ol.certify_equality(ol.parse_symbol("(c + t + z)", {"c": 0.3}), HARDY2, quad)
    assert rep.verdict == "EqualityCertified"
    cand = rep.candidates[0]
    assert abs(cand.xi - 1.0) < 1e-6
    assert abs(cand.theta - 1.0) < 1e-6
    assert cand.i1_residual < 1e-8
    assert cand.i2_residual < 1e-8


def test_certify_equality_scans_the_circle_once_per_t(monkeypatch):
    from opnorm_lab import certify

    q = ol.QuadConfig(n_theta=512, t_nodes=32)
    scans: dict[float, int] = {}
    frozen = certify.frozen_symbol

    def counting_frozen(f, t):
        g = frozen(f, t)

        def counted(z):
            if np.size(z) == q.n_theta:
                scans[t] = scans.get(t, 0) + 1
            return g(z)

        return counted

    monkeypatch.setattr(certify, "frozen_symbol", counting_frozen)
    rep = ol.certify_equality(ol.parse_symbol("(c + t + z)", {"c": 0.3}), HARDY2, q)
    assert rep.verdict == "EqualityCertified"
    assert len(scans) == len(certify._certify_t_grid(q)) == 48
    assert set(scans.values()) == {1}


def test_certify_equality_negative_shift(quad):
    rep = ol.certify_equality(ol.parse_symbol("(c + t + z)", {"c": -1.2}), HARDY2, quad)
    assert rep.verdict == "EqualityCertified"
    cand = rep.candidates[0]
    assert abs(cand.xi + 1.0) < 1e-6
    assert abs(cand.theta + 1.0) < 1e-6


def test_certify_strict_inequality_mid_regime(quad):
    fam = ol.parse_symbol("(c + t + z)", {"c": -0.5})
    # the two halves of the t range maximize at opposite boundary points
    assert abs(ol.argmax_set(fam, 0.75, quad).points[0] - 1.0) < 1e-6
    assert abs(ol.argmax_set(fam, 0.25, quad).points[0] + 1.0) < 1e-6
    rep = ol.certify_equality(fam, HARDY2, quad)
    assert rep.verdict == "StrictInequalityEvidence"
    assert not rep.candidates
    assert rep.gap_crosscheck == pytest.approx(0.25, abs=1e-6)


def test_certify_noncontinuous_symbol_is_inconclusive(quad):
    rep = ol.certify_equality(ol.parse_symbol("1 / (1 - z)"), HARDY2, quad)
    assert rep.verdict == "Inconclusive"
    assert rep.gap_crosscheck is None


def test_certify_requires_reflexive_space(quad):
    with pytest.raises(ol.DomainError):
        ol.certify_equality(ol.parse_symbol("z"), ol.SpaceSpec.hardy(1.0), quad)


def test_i1_i2_positive_shift(quad):
    r1, r2 = ol.i1_i2_residuals(
        ol.parse_symbol("(c + t + z)", {"c": 0.3}), HARDY2, 1.0 + 0j, quad
    )
    assert abs(r1) < 1e-10
    assert abs(r2) < 1e-10


def test_i1_i2_phase_family(quad):
    for xi in (1.0 + 0j, -1j, complex(math.cos(2.0), math.sin(2.0))):
        r1, r2 = ol.i1_i2_residuals(ol.parse_symbol("exp(i * pi * t)"), HARDY2, xi, quad)
        assert r1 == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-8)
        assert abs(r2) < 1e-10


def test_i1_i2_mid_regime_attainment_defect(quad):
    # sup_t (|c+t| + 1 - (c+t+1)) = 2|c| as t -> 0; the open grid long
    # stops within 1e-3 of it
    r1, r2 = ol.i1_i2_residuals(
        ol.parse_symbol("(c + t + z)", {"c": -0.5}), HARDY2, 1.0 + 0j, quad
    )
    assert abs(r1) < 1e-10
    assert 0.99 < r2 <= 1.0


def test_i1_i2_rejects_interior_point(quad):
    with pytest.raises(ol.DomainError):
        ol.i1_i2_residuals(ol.parse_symbol("z"), HARDY2, 0.5 + 0j, quad)


def test_residual_decomposition_matches(quad):
    # certificate residuals come from the same formulas on the same grids
    for c in (0.3, -1.2):
        fam = ol.parse_symbol("(c + t + z)", {"c": c})
        rep = ol.certify_equality(fam, HARDY2, quad)
        cand = rep.candidates[0]
        r1, r2 = ol.i1_i2_residuals(fam, HARDY2, cand.xi, quad)
        assert abs(cand.i1_residual - r1) < 1e-12
        assert abs(cand.i2_residual - r2) < 1e-12


def test_soundness_coupling(quad):
    for c in (-1.5, -1.0, -0.75, -0.25, 0.0, 0.5):
        fam = ol.parse_symbol("(c + t + z)", {"c": c})
        gap = ol.gap_report(fam, HARDY2, quad).gap
        rep = ol.certify_equality(fam, HARDY2, quad, gap_value=gap)
        if rep.verdict == "EqualityCertified":
            assert abs(gap) < 1e-5
        elif rep.verdict == "StrictInequalityEvidence":
            assert gap > 1e-4


def _candidate(xi, total):
    return ol.CertCandidate(xi=xi, theta=1.0 + 0j, i2_residual=total, i1_residual=0.0)


def test_candidates_with_tied_sums_are_ordered_by_phase():
    from opnorm_lab.certify import _ranked

    # Three near-symmetric candidates whose sums differ in the last bits, in
    # every order of their sums, and one clearly worse candidate.
    tiny = 1e-8
    xis = (-1.0 + 0j, complex(math.cos(tiny), -math.sin(tiny)), 1j)
    sums = (0.25, np.nextafter(0.25, 1.0), np.nextafter(np.nextafter(0.25, 1.0), 1.0))
    spacing = 2 * np.pi / 512
    for shift in range(3):
        cands = [_candidate(xi, sums[(k + shift) % 3]) for k, xi in enumerate(xis)]
        cands.append(_candidate(-1j, 0.5))
        ranked = _ranked(cands[::-1], spacing)
        assert [c.xi for c in ranked] == [xis[1], xis[2], xis[0], -1j]


def test_boundary_argmax_sorts_a_point_just_below_zero_first():
    from opnorm_lab.certify import _boundary_argmax

    q = ol.QuadConfig(n_theta=512)
    below = complex(math.cos(1e-8), -math.sin(1e-8))
    sres = ol.SupNormResult(
        value=2.0, maximizer=below, residual=1e-9, peaks=((2.0, -1.0 + 0j), (2.0, below))
    )
    assert _boundary_argmax(sres, q, 0.01).points == (below, -1.0 + 0j)


def test_i1_i2_residuals_take_the_grid_sups(quad):
    from opnorm_lab.certify import _certify_t_grid

    fam = ol.parse_symbol("(c + t + z)", {"c": -0.5})
    grid = _certify_t_grid(quad).tolist()
    sups = [ol.sup_norm(ol.frozen_symbol(fam, t), quad).value for t in grid]
    assert ol.i1_i2_residuals(fam, HARDY2, 1.0 + 0j, quad, sups=sups) == ol.i1_i2_residuals(
        fam, HARDY2, 1.0 + 0j, quad
    )
    with pytest.raises(ol.DomainError, match="sups holds"):
        ol.i1_i2_residuals(fam, HARDY2, 1.0 + 0j, quad, sups=sups[:-1])

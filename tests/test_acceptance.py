"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import math
import time

import numpy as np
import pytest

import opnorm_lab as ol
from opnorm_lab.random_families import random_family, random_frozen_symbol

HARDY2 = ol.SpaceSpec.hardy(2.0)


def _report(name: str, detail: str, elapsed: float) -> None:
    print(f"[PASS] {name}: {detail} ({elapsed:.1f}s)")


def test_criterion_1_evaluation_norm_attainment(quad):
    start = time.perf_counter()
    worst_norm = 0.0
    worst_attain = 0.0
    points = [1 - 2.0**-k for k in range(2, 11)]
    cases = 0
    for zn in points:
        for p in (1.5, 2.0, 4.0):
            spaces = [ol.SpaceSpec.hardy(p)] + [
                ol.SpaceSpec.bergman(p, alpha) for alpha in (-0.5, 0.0, 1.0)
            ]
            for sp in spaces:
                f = ol.extremal_function(zn, sp)
                norm = ol.space_norm(f, sp, quad)
                worst_norm = max(worst_norm, abs(norm - 1.0))
                delta = ol.eval_functional_norm(zn, sp)
                worst_attain = max(
                    worst_attain, abs(complex(f(zn)) - delta) / delta
                )
                cases += 1
    elapsed = time.perf_counter() - start
    assert worst_norm <= 1e-6
    assert worst_attain <= 1e-12
    assert elapsed < 10.0
    _report(
        "criterion 1 (evaluation-norm attainment)",
        f"{cases} cases, worst norm defect {worst_norm:.2e}, "
        f"worst attainment defect {worst_attain:.2e}",
        elapsed,
    )


def test_criterion_2_operator_norm_identity(quad):
    start = time.perf_counter()
    rng = np.random.default_rng(20250810)
    thetas = 2 * np.pi * np.arange(100_000) / 100_000
    boundary = np.exp(1j * thetas)
    worst_brute = 0.0
    worst_seq = 0.0
    for _ in range(20):
        fam, t = random_frozen_symbol(rng, max_z_degree=4, blaschke_radius=0.55)
        raw = ol.frozen_symbol(fam, t)
        scale = ol.mult_operator_norm(raw, HARDY2, quad)
        g = lambda w: np.asarray(raw(w)) / scale  # unit sup norm
        norm = ol.mult_operator_norm(g, HARDY2, quad)
        brute = float(np.max(np.abs(np.asarray(g(boundary)))))
        worst_brute = max(worst_brute, abs(norm - brute))
        seq = ol.maximizing_sequence(g, HARDY2, 14, quad)
        worst_seq = max(worst_seq, norm - seq.values[-1])
    elapsed = time.perf_counter() - start
    assert worst_brute <= 1e-5
    assert worst_seq <= 1e-3
    assert elapsed < 30.0
    _report(
        "criterion 2 (operator-norm identity)",
        f"20 symbols, brute-force defect {worst_brute:.2e}, "
        f"maximizing-sequence defect {worst_seq:.2e}",
        elapsed,
    )


SWEEP_C = (-1.5, -1.25, -1.0, -0.9, -0.75, -0.5, -0.25, -0.1, 0.0, 0.25, 0.5)


def _gap_formula(c: float) -> float:
    return min(c * c, (c + 1.0) ** 2) if -1.0 < c < 0.0 else 0.0


def test_criterion_3_phase_transition_sweep(quad):
    start = time.perf_counter()
    worst = 0.0
    runs = 0
    for text in ("(c + t + z)", "(c + t + z) * blaschke([0.5, 0.9]; 0)"):
        for c in SWEEP_C:
            fam = ol.parse_symbol(text, {"c": c})
            rep = ol.gap_report(fam, HARDY2, quad)
            worst = max(worst, abs(rep.gap - _gap_formula(c)))
            cert = ol.certify_equality(fam, HARDY2, quad, gap_value=rep.gap)
            expected = (
                "StrictInequalityEvidence" if -1.0 < c < 0.0 else "EqualityCertified"
            )
            assert cert.verdict == expected, (text, c, cert.verdict)
            runs += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert runs == 22
    assert elapsed < 60.0
    _report(
        "criterion 3 (phase-transition sweep)",
        f"22 runs, worst gap defect {worst:.2e}, verdicts exact in all regimes",
        elapsed,
    )


def test_criterion_4_one_sided_inequality():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    q = ol.QuadConfig(n_theta=1024, tol=1e-7)
    smallest = math.inf
    violations = 0
    for _ in range(200):
        fam = random_family(rng)
        rep = ol.gap_report(fam, HARDY2, q)
        smallest = min(smallest, rep.gap)
        if rep.gap < -1e-6:
            violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    _report(
        "criterion 4 (one-sided inequality)",
        f"200 families, zero violations, smallest gap {smallest:.2e}",
        elapsed,
    )


def test_criterion_5_phase_defect_family(quad):
    start = time.perf_counter()
    fam = ol.parse_symbol("exp(i * pi * t)")
    rep = ol.gap_report(fam, HARDY2, quad)
    assert rep.rhs == pytest.approx(1.0, abs=1e-10)
    assert rep.lhs == pytest.approx(2.0 / math.pi, abs=1e-8)
    r1, r2 = ol.i1_i2_residuals(fam, HARDY2, 1.0 + 0j, quad)
    assert abs(r2) <= 1e-10
    assert r1 == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-8)
    cert = ol.certify_equality(fam, HARDY2, quad, gap_value=rep.gap)
    assert cert.verdict == "StrictInequalityEvidence"
    elapsed = time.perf_counter() - start
    _report(
        "criterion 5 (phase-defect family)",
        f"rhs={rep.rhs:.10f}, lhs={rep.lhs:.10f}, r1={r1:.10f}, r2={r2:.2e}, "
        f"verdict {cert.verdict}",
        elapsed,
    )


def test_criterion_6_wx_checker(quad):
    start = time.perf_counter()
    passing = ol.check_wx(ol.parse_symbol("(c + t + z)", {"c": 0.3}), HARDY2, quad)
    assert passing.verdict == "PassEvidence"
    assert all(p.decreasing for p in passing.cond1)
    assert not passing.cond3.diverging

    inverse = ol.parse_symbol("(t^(-1)) * z")
    failing = ol.check_wx(inverse, HARDY2, quad)
    assert failing.verdict == "FailWithWitness"
    assert failing.cond3.diverging
    # the doubled-rule estimates keep growing instead of settling
    estimates = [v for _, v in failing.cond3.estimates]
    assert estimates[0] < estimates[1] < estimates[2]

    restricted = ol.check_wx(
        inverse, HARDY2, quad, t_probe=np.linspace(0.1, 0.9, 9)
    )
    assert all(p.decreasing for p in restricted.cond1)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6 (integrability checker)",
        "affine family passes all three conditions; 1/t family fails "
        "condition 3 by doubled-rule divergence while passing (1)(2) on compacts",
        elapsed,
    )


def test_criterion_7_invariance_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    q = ol.QuadConfig(n_theta=1024, tol=1e-7)
    cases = 0

    # rotation invariance of the space norms (30 cases)
    for _ in range(15):
        fam, t = random_frozen_symbol(rng)
        g = ol.frozen_symbol(fam, t)
        lam = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        rotated = lambda w: g(lam * np.asarray(w, dtype=complex))
        assert ol.hardy_norm(rotated, 2.0, q) == pytest.approx(
            ol.hardy_norm(g, 2.0, q), abs=1e-9, rel=1e-9
        )
        cases += 1
        assert ol.bergman_norm(rotated, 2.0, 0.5, q) == pytest.approx(
            ol.bergman_norm(g, 2.0, 0.5, q), abs=1e-9, rel=1e-9
        )
        cases += 1

    # homogeneity of norms and scaling of both gap sides (25 cases)
    for _ in range(15):
        fam, t = random_frozen_symbol(rng)
        g = ol.frozen_symbol(fam, t)
        c = complex(rng.normal() + 1j * rng.normal())
        scaled = lambda w: c * np.asarray(g(w))
        assert ol.hardy_norm(scaled, 2.0, q) == pytest.approx(
            abs(c) * ol.hardy_norm(g, 2.0, q), rel=1e-10, abs=1e-10
        )
        assert ol.sup_norm(scaled, q).value == pytest.approx(
            abs(c) * ol.sup_norm(g, q).value, rel=1e-10, abs=1e-10
        )
        cases += 1
    for _ in range(10):
        fam = random_family(rng)
        c = float(rng.uniform(0.5, 3.0))
        scaled_fam = ol.SymbolFamily(ol.Mul(ol.Const(c), fam.body))
        rep = ol.gap_report(fam, HARDY2, q)
        rep_scaled = ol.gap_report(scaled_fam, HARDY2, q)
        assert rep_scaled.lhs == pytest.approx(c * rep.lhs, rel=1e-10, abs=1e-10)
        assert rep_scaled.rhs == pytest.approx(c * rep.rhs, rel=1e-10, abs=1e-10)
        cases += 1

    # global-phase invariance of the gap report and residuals (25 cases)
    for _ in range(15):
        fam = random_family(rng)
        phase = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        rotated_fam = ol.SymbolFamily(ol.Mul(ol.Const(phase), fam.body))
        rep = ol.gap_report(fam, HARDY2, q)
        rep_rot = ol.gap_report(rotated_fam, HARDY2, q)
        assert rep_rot.lhs == pytest.approx(rep.lhs, abs=1e-10, rel=1e-10)
        assert rep_rot.rhs == pytest.approx(rep.rhs, abs=1e-10, rel=1e-10)
        assert rep_rot.gap == pytest.approx(rep.gap, abs=1e-10)
        cases += 1
    for _ in range(10):
        fam = random_family(rng)
        phase = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        rotated_fam = ol.SymbolFamily(ol.Mul(ol.Const(phase), fam.body))
        xi = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        r1, r2 = ol.i1_i2_residuals(fam, HARDY2, xi, q)
        r1r, r2r = ol.i1_i2_residuals(rotated_fam, HARDY2, xi, q)
        assert r1r == pytest.approx(r1, abs=1e-10)
        assert r2r == pytest.approx(r2, abs=1e-10)
        cases += 1

    # unimodular Blaschke factor invariance (20 cases)
    from opnorm_lab.random_families import random_blaschke

    for _ in range(12):
        fam = random_family(rng, allow_blaschke=False)
        dressed = ol.SymbolFamily(ol.Mul(fam.body, random_blaschke(rng)))
        rep = ol.gap_report(fam, HARDY2, q)
        rep_dressed = ol.gap_report(dressed, HARDY2, q)
        assert rep_dressed.lhs == pytest.approx(rep.lhs, abs=1e-7)
        assert rep_dressed.rhs == pytest.approx(rep.rhs, abs=1e-7)
        cases += 1
    for _ in range(8):
        fam = random_family(rng, allow_blaschke=False)
        dressed = ol.SymbolFamily(ol.Mul(fam.body, random_blaschke(rng)))
        xi = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        _, r2 = ol.i1_i2_residuals(fam, HARDY2, xi, q)
        _, r2d = ol.i1_i2_residuals(dressed, HARDY2, xi, q)
        assert r2d == pytest.approx(r2, abs=1e-7)
        cases += 1

    elapsed = time.perf_counter() - start
    assert cases == 100
    assert elapsed < 60.0
    _report(
        "criterion 7 (invariance suite)",
        f"{cases} randomized cases across rotation, scaling, global phase, "
        "and Blaschke dressing",
        elapsed,
    )

import math

import numpy as np
import pytest

import opnorm_lab as ol
from opnorm_lab.quadrature import gauss_rule_01
from opnorm_lab.random_families import random_blaschke, random_family
from opnorm_lab.symbols import symbol_names


def test_parse_example_structure():
    fam = ol.parse_symbol("(c + t + z) * blaschke([0.5, 0.9]; 0)", {"c": -0.5})
    expected = ol.Mul(
        ol.Add(ol.Add(ol.Const(-0.5), ol.ParamT()), ol.VarZ()),
        ol.Blaschke((0.5 + 0j, 0.9 + 0j), 0),
    )
    assert fam.body == expected


def test_parse_single_variable():
    assert ol.parse_symbol("z").body == ol.VarZ()


def test_parse_rejects_zero_outside_disk():
    with pytest.raises(ol.ParseError, match="outside the open unit disk"):
        ol.parse_symbol("blaschke([1.2]; 0)")


def test_parse_rejects_origin_zero():
    with pytest.raises(ol.ParseError, match="origin"):
        ol.parse_symbol("blaschke([0.0]; 0)")


def test_parse_rejects_unbound_name():
    with pytest.raises(ol.ParseError, match="unbound name 'c'"):
        ol.parse_symbol("c + z")


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ol.ParseError, match="integer"):
        ol.parse_symbol("z^2.5")


def test_parse_reports_position():
    with pytest.raises(ol.ParseError, match="position"):
        ol.parse_symbol("z + ?")


def test_negative_power_normalizes_to_div():
    fam = ol.parse_symbol("(t^(-1)) * z")
    assert fam.body == ol.Mul(ol.Div(ol.Const(1.0), ol.ParamT()), ol.VarZ())


def test_complex_literals_in_blaschke_list():
    fam = ol.parse_symbol("blaschke([0.3+0.4i, -0.25, 0.5i]; 1)")
    assert fam.body == ol.Blaschke((0.3 + 0.4j, -0.25 + 0j, 0.5j), 1)


def test_eval_blaschke_zero_and_boundary():
    fam = ol.parse_symbol("blaschke([0.5]; 0)")
    assert ol.eval_symbol(fam, None, 0.5) == 0
    for theta in (0.0, 1.0, 2.0):
        val = ol.eval_symbol(fam, None, np.exp(1j * theta))
        assert abs(abs(val) - 1.0) < 1e-12


def test_eval_affine_example():
    fam = ol.parse_symbol("(c + t + z)", {"c": 0.0})
    assert ol.eval_symbol(fam, 0.25, 1.0 + 0j) == pytest.approx(1.25)


def test_eval_array_shape_follows_input():
    fam = ol.parse_symbol("z^2 + t")
    zs = 0.5 * np.exp(1j * np.linspace(0, 2 * math.pi, 7))
    out = ol.eval_symbol(fam, 0.5, zs)
    assert out.shape == zs.shape
    assert out[0] == pytest.approx(ol.eval_symbol(fam, 0.5, complex(zs[0])))


def test_eval_rejects_points_outside_disk():
    fam = ol.parse_symbol("z")
    with pytest.raises(ol.DomainError):
        ol.eval_symbol(fam, None, 1.0 + 1e-6)


def test_eval_rejects_t_outside_interval():
    fam = ol.parse_symbol("t * z")
    with pytest.raises(ol.DomainError):
        ol.eval_symbol(fam, 1.5, 0.3)


def test_eval_division_by_zero():
    fam = ol.parse_symbol("1 / (1 - z)")
    with pytest.raises(ol.EvaluationError):
        ol.eval_symbol(fam, None, 1.0 + 0j)


def test_eval_guards_nonfinite():
    fam = ol.SymbolFamily(body=ol.Exp(ol.Const(1e6)))
    with pytest.raises(ol.EvaluationError):
        ol.eval_symbol(fam, None, 0.0j)


def test_blaschke_requires_valid_zeros_programmatically():
    with pytest.raises(ValueError):
        ol.Blaschke((1.5 + 0j,), 0)
    with pytest.raises(ValueError):
        ol.Blaschke((0.0j,), 2)


def test_integrate_phase_family():
    # Oracle: composite midpoint with 1e6 nodes, checked against 2i/pi.
    t = (np.arange(1_000_000) + 0.5) / 1_000_000
    oracle = complex(np.mean(np.exp(1j * np.pi * t)))
    assert abs(oracle - 2j / math.pi) < 1e-12
    fam = ol.parse_symbol("exp(i * pi * t)")
    val = ol.integrate_family_at(fam, 0.1 + 0.2j, gauss_rule_01(32))
    assert abs(val - 2j / math.pi) < 1e-10


def test_integrate_affine_family():
    fam = ol.parse_symbol("(c + t + z)", {"c": 0.0})
    val = ol.integrate_family_at(fam, 1.0 + 0j, gauss_rule_01(16))
    assert val == pytest.approx(1.5, abs=1e-12)


def test_integrate_constant_family_is_exact():
    fam = ol.parse_symbol("z")
    z = 0.3 + 0.4j
    assert ol.integrate_family_at(fam, z, gauss_rule_01(8)) == z


def test_integrate_rejects_tiny_rule():
    fam = ol.parse_symbol("t * z")
    with pytest.raises(ol.DomainError):
        ol.integrate_family_at(fam, 0.1, (np.array([0.5]), np.array([1.0])))


def test_integrate_is_linear_in_the_family(rng):
    rule = gauss_rule_01(24)
    for _ in range(10):
        f1 = random_family(rng, allow_exp=False)
        f2 = random_family(rng, allow_exp=False)
        a, b = rng.normal(size=2)
        combined = ol.SymbolFamily(
            ol.Add(
                ol.Mul(ol.Const(a), f1.body),
                ol.Mul(ol.Const(b), f2.body),
            )
        )
        z = complex(0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        lhs = ol.integrate_family_at(combined, z, rule)
        rhs = a * ol.integrate_family_at(f1, z, rule) + b * ol.integrate_family_at(
            f2, z, rule
        )
        assert abs(lhs - rhs) < 1e-12


def test_boundary_continuity_examples():
    assert ol.is_boundary_continuous(
        ol.parse_symbol("(c + t + z) * blaschke([0.5, 0.9]; 0)", {"c": -0.5})
    )
    assert not ol.is_boundary_continuous(ol.parse_symbol("1 / (1 - z)"))
    assert ol.is_boundary_continuous(ol.parse_symbol("exp(z)"))
    # 1/t blows up at t -> 0 but each frozen symbol is fine on the disk.
    assert ol.is_boundary_continuous(ol.parse_symbol("(t^(-1)) * z"))
    # Hand-built negative powers are not certified.
    assert not ol.is_boundary_continuous(
        ol.SymbolFamily(ol.IntPow(ol.Add(ol.Const(2.0), ol.VarZ()), -1))
    )


def test_blaschke_boundary_modulus_invariant(rng):
    worst = 0.0
    for _ in range(100):
        fam = ol.SymbolFamily(body=random_blaschke(rng, max_zeros=4))
        zs = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=100))
        vals = np.abs(ol.eval_symbol(fam, None, zs))
        worst = max(worst, float(np.max(np.abs(vals - 1.0))))
    assert worst < 1e-10


def test_blaschke_bounded_inside(rng):
    for _ in range(50):
        fam = ol.SymbolFamily(body=random_blaschke(rng, max_zeros=4))
        zs = rng.uniform(0, 0.999, size=50) * np.exp(
            2j * np.pi * rng.uniform(0, 1, size=50)
        )
        assert np.all(np.abs(ol.eval_symbol(fam, None, zs)) <= 1 + 1e-12)


def test_format_parse_roundtrip_corpus():
    corpus = [
        "z",
        "(c + t + z) * blaschke([0.5, 0.9]; 0)",
        "exp(i * pi * t)",
        "1 / (2 + z)",
        "(t^(-1)) * z",
        "-0.5 + z^3 - t * z",
        "blaschke([0.3+0.4i, -0.25]; 2)",
        "-(z + t) * -z^2",
        "2e-3 * z - -1.5",
    ]
    for text in corpus:
        fam = ol.parse_symbol(text, {"c": -0.5})
        printed = ol.format_symbol(fam)
        assert ol.parse_symbol(printed).body == fam.body


def test_symbol_names():
    assert symbol_names("(c + t + z) * exp(i * pi * d)") == {"c", "d"}


def test_family_str_and_uses_t():
    fam = ol.parse_symbol("(c + t + z)", {"c": 1.0})
    assert fam.uses_t
    assert not ol.parse_symbol("z^2").uses_t
    assert "t" in str(fam)


CANONICAL = "(c + t + z) * blaschke([0.5, 0.9]; 0)"


def _kernel_families():
    rng = np.random.default_rng(2)
    fams = [random_family(rng) for _ in range(50)]
    fams.append(ol.parse_symbol(CANONICAL, {"c": -0.5}))
    return fams


def test_t_array_matches_stacked_scalar_calls():
    ts = np.linspace(0.02, 0.98, 17)
    zs = np.linspace(0.1, 1.0, 29) * np.exp(2j * np.pi * np.arange(29) / 29)
    for fam in _kernel_families():
        stacked = np.array([ol.eval_symbol(fam, float(t), zs) for t in ts])
        assert np.array_equal(ol.eval_symbol(fam, ts[:, None], zs[None, :]), stacked)
        # A scalar z against a t-array: one value per t.
        point = complex(zs[7])
        per_t = np.array([ol.eval_symbol(fam, float(t), point) for t in ts])
        assert np.array_equal(ol.eval_symbol(fam, ts, point), per_t)


def test_integrate_family_at_matches_sequential_reference():
    nodes, weights = gauss_rule_01(64)
    zs = np.exp(2j * np.pi * np.arange(300) / 300)
    for fam in _kernel_families():
        if not fam.uses_t:
            continue
        for z in (zs, complex(zs[5])):
            ref = np.zeros(np.shape(z), dtype=complex)
            for tj, wj in zip(nodes, weights):
                ref = ref + wj * ol.eval_symbol(fam, float(tj), z)
            got = ol.integrate_family_at(fam, z, (nodes, weights))
            assert np.array_equal(got, ref)


def test_t_array_with_one_value_outside_interval():
    fam = ol.parse_symbol("t * z")
    with pytest.raises(ol.DomainError, match="t = 1.5"):
        ol.eval_symbol(fam, np.array([0.2, 0.5, 1.5])[:, None], np.array([[0.3, 0.4]]))


def test_single_zero_denominator_in_an_array():
    zs = np.array([0.1, 0.5, -0.3j])
    with pytest.raises(ol.EvaluationError):
        ol.eval_symbol(ol.parse_symbol("1 / (0.5 - z)"), None, zs)
    with pytest.raises(ol.EvaluationError):
        ol.eval_symbol(ol.parse_symbol("z / (t - 0.5)"), np.array([0.25, 0.5, 0.75]), zs)


def test_exp_overflow_is_evaluation_error():
    fam = ol.parse_symbol("exp(900 * t * z)")
    with pytest.raises(ol.EvaluationError, match="nonfinite"):
        ol.eval_symbol(fam, np.array([0.1, 0.99])[:, None], np.array([[0.5, 1.0]]))


def test_identity_symbol_returns_a_read_only_array():
    zs = np.array([0.1 + 0.2j, -0.5j])
    out = ol.eval_symbol(ol.parse_symbol("z"), None, zs)
    assert np.array_equal(out, zs)
    assert out is not zs and not out.flags.writeable
    assert zs.flags.writeable


def test_kernel_is_compiled_on_first_evaluation():
    fam = ol.parse_symbol(CANONICAL, {"c": -0.5})
    assert "kernel" not in vars(fam)
    ol.eval_symbol(fam, 0.5, 0.3j)
    assert "kernel" in vars(fam)


def test_boundary_pole_between_grid_points_is_rejected():
    assert not ol.is_boundary_continuous(ol.parse_symbol("1/(1 - exp(i*pi/1536)*z)"))
    assert ol.is_boundary_continuous(ol.parse_symbol("1/(2 - z)"))
    assert ol.is_boundary_continuous(ol.parse_symbol("1/(1 - 0.999*z)"))

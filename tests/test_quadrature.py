import numpy as np
import pytest

from opnorm_lab.quadrature import (
    CONTINUITY_REFINE_STEPS,
    SUP_REFINE_STEPS,
    _zoom_max,
    circle_mean_abs_pow,
    fejer_rule_01,
    gauss_rule_01,
    integrate_adaptive_01,
    jacobi_rule_01,
)


@pytest.mark.parametrize("n", [2, 16, 64, 128])
def test_gauss_weights_sum_to_one(n):
    nodes, weights = gauss_rule_01(n)
    assert np.all((nodes > 0) & (nodes < 1))
    assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
def test_jacobi_weights_sum_to_one(alpha):
    nodes, weights = jacobi_rule_01(64, alpha)
    assert np.all((nodes > 0) & (nodes < 1))
    assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-13)


def test_gauss_exact_on_polynomials():
    nodes, weights = gauss_rule_01(8)
    # degree 15 is the highest degree an 8-node rule integrates exactly
    vals = nodes**15
    assert float(weights @ vals) == pytest.approx(1.0 / 16.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 15, 63, 255, 2047])
def test_fejer_rule_01(n):
    nodes, weights = fejer_rule_01(n)
    assert nodes.size == weights.size == n
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert np.all(np.diff(nodes) > 0) and 0 < nodes[0] and nodes[-1] < 1
    assert np.max(np.abs(nodes + nodes[::-1] - 1.0)) <= 1e-15
    assert np.max(np.abs(weights - weights[::-1])) <= 1e-15
    assert abs(float(np.sum(weights)) - 1.0) <= 1e-15
    # exact on t^k for k < n
    power, worst = np.ones(n), 0.0
    for k in range(n):
        worst = max(worst, abs(float(weights @ power) - 1.0 / (k + 1)))
        power = power * nodes
    assert worst <= 1e-15


@pytest.mark.parametrize("n", [1, 15, 63, 255, 1023])
def test_fejer_rules_nest_bit_for_bit(n):
    assert np.array_equal(fejer_rule_01(2 * n + 1)[0][1::2], fejer_rule_01(n)[0])


def test_adaptive_smooth_integrand():
    res = integrate_adaptive_01(lambda t: np.exp(t), atol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(np.e - 1.0, abs=1e-12)


def test_adaptive_kinked_integrand():
    for c in (0.3, 0.9, 1 / 3):
        res = integrate_adaptive_01(lambda t: abs(t - c), atol=1e-10)
        exact = 0.5 * (c**2 + (1 - c) ** 2)
        assert res.converged
        assert res.value == pytest.approx(exact, abs=1e-9)


def test_adaptive_complex_integrand():
    res = integrate_adaptive_01(lambda t: np.exp(1j * np.pi * t), atol=1e-12)
    assert res.converged
    assert abs(res.value - 2j / np.pi) < 1e-12


def test_adaptive_flags_divergence():
    res = integrate_adaptive_01(lambda t: 1.0 / t, atol=1e-9)
    assert not res.converged
    assert res.refine_delta > 1e-3


def test_circle_mean_constant_and_monomial():
    means = circle_mean_abs_pow(lambda w: np.ones_like(w), [0.3, 0.9], 2.0, n0=64)
    assert np.allclose(means, 1.0, atol=1e-14)
    means = circle_mean_abs_pow(lambda w: w**3, [0.5], 4.0, n0=64)
    assert means[0] == pytest.approx(0.5**12, abs=1e-14)


def test_circle_mean_matches_poisson_identity():
    # mean over the circle of |1 - a r e^{i theta}|^-2 equals 1/(1 - a^2 r^2)
    a = 0.9
    means = circle_mean_abs_pow(
        lambda w: 1.0 / (1.0 - a * w), [0.5, 0.99], 2.0, n0=256
    )
    for r, m in zip((0.5, 0.99), means):
        assert m == pytest.approx(1.0 / (1.0 - a * a * r * r), rel=1e-10)


PEAKS = {
    "cos": lambda th, peaks: np.cos(th - peaks[:, None]),
    "kink": lambda th, peaks: -np.abs(th - peaks[:, None]),
}


# cos is flat to rounding within about 1e-8 of its peak, so it is zoomed
# only to brackets wider than that; the kink has no such floor.
@pytest.mark.parametrize(
    "peak,steps",
    [("cos", 1), ("cos", 4), ("kink", SUP_REFINE_STEPS), ("kink", CONTINUITY_REFINE_STEPS)],
)
def test_zoom_keeps_each_maximizer_in_its_final_bracket(peak, steps):
    rng = np.random.default_rng(5)
    a = rng.uniform(-3.0, 3.0, 40)
    b = a + rng.uniform(1e-3, 1.0, 40)
    peaks = rng.uniform(a, b)
    fn = lambda th: PEAKS[peak](th, peaks)
    theta, value, width = _zoom_max(fn, a, b, steps)
    assert np.allclose(width, (b - a) / 8.0**steps, rtol=1e-14, atol=0)
    assert np.all(np.abs(theta - peaks) <= 0.5 * width)
    assert np.all(value >= fn(0.5 * (a + b)[:, None])[:, 0])

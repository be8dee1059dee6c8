"""Workload inputs and the benchmark's declared metrics."""

import json
import os

import numpy as np
import pytest

from opnorm_lab import operators, spaces, symbols
from opnorm_lab.random_families import random_family
from perfbench import run, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_rotation_is_exact_on_the_ast():
    rng = np.random.default_rng(5)
    lam = np.exp(0.7j)
    zs = 0.9 * np.exp(2j * np.pi * np.arange(16) / 16)
    for _ in range(20):
        fam = random_family(rng)
        turned = workloads.rotated_family(fam, lam, 1.0)
        np.testing.assert_allclose(
            symbols.eval_symbol(turned, 0.3, zs),
            symbols.eval_symbol(fam, 0.3, lam * zs),
            rtol=1e-12,
            atol=1e-12,
        )


def test_rotated_family_keeps_gap_and_t_samples():
    q = spaces.QuadConfig(n_theta=512, tol=1e-6)
    hardy2 = spaces.SpaceSpec.hardy(2.0)
    fam = random_family(np.random.default_rng(3))
    turned = workloads.rotated_family(fam, np.exp(1.1j), np.exp(-2.0j))
    a = operators.gap_report(fam, hardy2, q)
    b = operators.gap_report(turned, hardy2, q)
    assert b.gap == pytest.approx(a.gap, abs=1e-7)
    assert len(b.per_t) == len(a.per_t)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    a = workloads.build(name, 9, tmp_path)
    b = workloads.build(name, 9, tmp_path)
    try:
        assert [i.label for i in next(a.passes)] == [i.label for i in next(b.passes)]
        assert [i.label for i in a.trace] == [i.label for i in b.trace]
    finally:
        a.cleanup()
        b.cleanup()


def test_tail_has_ten_samples_above():
    lat = list(range(100))
    value, pct = run.tail(lat)
    assert value == 89 and sum(x > value for x in lat) == 10 and pct == 90.0
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])

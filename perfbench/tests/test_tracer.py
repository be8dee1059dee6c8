"""The tracer wraps every binding, refuses a hidden one, and its self
times add up to the item's duration."""

import sys
import types

import numpy as np
import pytest

import opnorm_lab
from opnorm_lab import certify, cli, operators, spaces, symbols
from perfbench.tracer import ITEM_SPAN, KEY_ATTR, Tracer, TracerError

HARDY2 = spaces.SpaceSpec.hardy(2.0)
QUICK = spaces.QuadConfig(n_theta=256, t_nodes=16, tol=1e-6)


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def test_every_import_binding_is_wrapped_and_restored():
    original = spaces.sup_norm
    tr = Tracer()
    tr.install()
    try:
        wrapped = spaces.sup_norm
        assert wrapped is not original and wrapped.__wrapped__ is original
        for owner in (opnorm_lab, operators, certify, cli):
            assert owner.sup_norm is wrapped
        assert cli.RunConfig.__dict__["from_file"].__func__.__wrapped__ is not None
    finally:
        tr.uninstall()
    for owner in (opnorm_lab, spaces, operators, certify, cli):
        assert owner.sup_norm is original


def test_refuses_a_binding_it_cannot_wrap():
    hidden = types.ModuleType("opnorm_lab._hidden_binding")
    hidden.TABLE = {"sup": spaces.sup_norm}
    sys.modules[hidden.__name__] = hidden
    original = spaces.sup_norm
    try:
        with pytest.raises(TracerError, match="_hidden_binding.TABLE"):
            Tracer().install()
    finally:
        del sys.modules[hidden.__name__]
    assert spaces.sup_norm is original and operators.sup_norm is original


def test_self_times_cover_the_item(tracer):
    fam = symbols.parse_symbol("(c + t + z) * blaschke([0.5, 0.9]; 0)", {"c": -0.5})
    rep = tracer.run_item(0, lambda: operators.gap_report(fam, HARDY2, QUICK))
    m = tracer.metrics()
    assert m["operators.gap_report.calls"] == 1
    assert m["operators.per_t_samples"] == len(rep.per_t)
    assert m["quadrature.adaptive.n_evals"] == len(rep.per_t)
    # one sup_norm per t-sample plus the integrated symbol's
    assert m["spaces.sup_norm.calls"] == len(rep.per_t) + 1
    assert m["spaces.sup_norm.keyed_calls"] == len(rep.per_t)
    assert m["spaces.sup_norm.distinct_share"] == 1.0
    assert m["symbols.integrate.calls"] > 0 and m["symbols.eval.points"] > 0
    # parse_symbol above ran outside the item, as a second root span
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [tracer.layer_names[s[0]] for s in roots] == ["symbols.parse", ITEM_SPAN]
    total_self = sum(m[f"{name}.self_s"] for name in tracer.layer_names)
    assert total_self == pytest.approx(sum(s[2] - s[1] for s in roots), rel=1e-9)


def test_frozen_symbols_carry_their_key(tracer):
    fam = symbols.parse_symbol("t * z")
    g = symbols.frozen_symbol(fam, 0.25)
    assert getattr(g, KEY_ATTR) == ("t * z", 0.25)
    spaces.sup_norm(g, QUICK)
    spaces.sup_norm(symbols.frozen_symbol(fam, 0.25), QUICK)
    m = tracer.metrics()
    assert m["spaces.sup_norm.keyed_calls"] == 2
    assert m["spaces.sup_norm.distinct_share"] == 0.5


def test_circle_mean_points_are_counted(tracer):
    spaces.hardy_norm(lambda w: np.ones_like(w), 2.0, QUICK)
    m = tracer.metrics()
    assert m["quadrature.circle_mean.calls"] == 1
    assert m["quadrature.circle_mean.points"] >= QUICK.n_theta * len(QUICK.hardy_radii)

"""Closed-form corpus: symbols whose answers are known exactly.

Each entry runs one CLI command on one symbol at the default quadrature
and pins either report values to their closed forms or the exit code of a
symbol that must be rejected.
"""

import json
import math

import pytest

from opnorm_lab.cli import run_cli

#: (symbol, bindings, command, pinned report values or the expected exit code)
CORPUS = [
    # ||g_t|| = 1 + |3t - 1| has a kink at the non-dyadic t = 1/3.
    ("1 + (3*t - 1)*z", {}, "gap", {"lhs": 3 / 2, "rhs": 11 / 6, "gap": 1 / 3}),
    # |g_t| = 1 everywhere, but the phases cancel: |integral of e^{i pi t}| = 2/pi.
    ("exp(i * pi * t)", {}, "gap", {"lhs": 2 / math.pi, "rhs": 1.0}),
    # The canonical family; the Blaschke factor is unimodular on the circle.
    ("(c + t + z) * blaschke([0.5, 0.9]; 0)", {"c": -0.5}, "gap", {"gap": 1 / 4}),
    # A pole on the circle between two boundary grid points.
    ("1/(1 - exp(i*pi/1536)*z)", {}, "supnorm", 1),
]


@pytest.mark.parametrize(
    "symbol, bindings, command, expected", CORPUS, ids=[entry[0] for entry in CORPUS]
)
def test_corpus_entry(tmp_path, capsys, symbol, bindings, command, expected):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"symbol": symbol, "bindings": bindings}), encoding="utf-8")
    code = run_cli([command, "--config", str(cfg)])
    out, err = capsys.readouterr()
    if isinstance(expected, int):
        assert code == expected and err.startswith("error: "), err
        return
    assert code == 0, err
    report = json.loads(out)
    for key, value in expected.items():
        assert report[key] == pytest.approx(value, abs=1e-6), key

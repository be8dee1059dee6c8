"""Closed-form corpus: symbols whose answers are known exactly.

Each entry runs one CLI command on one symbol at the default quadrature
and pins either report values to their closed forms (within 1e-6, or
within the tolerance paired with the value) or the exit code of a symbol
that must be rejected.
"""

import json
import math

import pytest

from opnorm_lab.cli import run_cli

BERGMAN2 = {"space": {"kind": "bergman", "p": 2}}

#: (symbol, config fields, command, pinned report values or the expected exit code)
CORPUS = [
    # ||g_t|| = 1 + |3t - 1| has a kink at the non-dyadic t = 1/3.
    ("1 + (3*t - 1)*z", {}, "gap", {"lhs": 3 / 2, "rhs": 11 / 6, "gap": 1 / 3}),
    # |g_t| = 1 everywhere, but the phases cancel: |integral of e^{i pi t}| = 2/pi.
    ("exp(i * pi * t)", {}, "gap", {"lhs": 2 / math.pi, "rhs": 1.0}),
    # The canonical family; the Blaschke factor is unimodular on the circle.
    ("(c + t + z) * blaschke([0.5, 0.9]; 0)", {"bindings": {"c": -0.5}}, "gap", {"gap": 1 / 4}),
    # A pole on the circle between two boundary grid points.
    ("1/(1 - exp(i*pi/1536)*z)", {}, "supnorm", 1),
    # A singular inner function: |g| = 1 almost everywhere on the circle, so
    # its H^2 norm is 1, but g is not continuous at z = 1, where the Hardy
    # norm's boundary mean evaluates it.  The A^2 norm (a double integral
    # computed independently with scipy) only needs the open disk.
    ("exp((z+1)/(z-1))", {}, "norm", 1),
    ("exp((z+1)/(z-1))", BERGMAN2, "norm", {"value": (0.667318864976, 1e-8)}),
    # Not in H^2 or A^2: both norms diverge at the pole z = 1.
    ("1/(1-z)", {}, "norm", 1),
    ("1/(1-z)", BERGMAN2, "norm", 1),
    # Constant subtrees whose powers overflow Python's complex type.
    ("2^100000 * z", {}, "norm", 1),
    ("(1+i)^5000 + z", {}, "norm", 1),
]


def _entry_id(entry) -> str:
    symbol, fields = entry[0], entry[1]
    return f"{symbol} in {fields['space']['kind']}" if "space" in fields else symbol


@pytest.mark.parametrize(
    "symbol, fields, command, expected", CORPUS, ids=[_entry_id(entry) for entry in CORPUS]
)
def test_corpus_entry(tmp_path, capsys, symbol, fields, command, expected):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"symbol": symbol, **fields}), encoding="utf-8")
    code = run_cli([command, "--config", str(cfg)])
    out, err = capsys.readouterr()
    if isinstance(expected, int):
        assert code == expected and err.startswith("error: "), err
        return
    assert code == 0, err
    report = json.loads(out)
    for key, value in expected.items():
        value, tol = value if isinstance(value, tuple) else (value, 1e-6)
        assert report[key] == pytest.approx(value, abs=tol), key

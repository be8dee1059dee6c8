"""The four benchmark workloads: inputs built from a seed, items, checks.

An item is one unit of user-visible work: a sweep row, a family's gap
report, a space norm, or one CLI command.  Every item carries its own
correctness check.  Items call the package through module attributes at
call time (``cli.sweep_gap``, ``operators.gap_report``, ...), so the tracer
sees every call.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from opnorm_lab import cli, operators, spaces
from opnorm_lab import symbols as sym
from opnorm_lab.random_families import random_family

from . import checks
from .tracer import KINK_SAMPLES

CANONICAL = "(c + t + z) * blaschke([0.5, 0.9]; 0)"
SWEEP_C = tuple(round(-1.5 + 0.05 * k, 10) for k in range(41))
HARDY2 = spaces.SpaceSpec.hardy(2.0)

#: Criterion-4 configuration of the random-family gap reports.
RANDOM_GAP_QUAD = spaces.QuadConfig(n_theta=1024, tol=1e-7)
#: The random-gap families come from this fixed stream; the workload seed
#: redraws their phases (see :func:`rotated_family`).
RANDOM_GAP_POOL_SEED = 2
RANDOM_GAP_POOL = 120

CLI_COMMANDS = ("supnorm", "opnorm", "norm", "gap", "certify", "wx-check")
CLI_C = -0.5

#: Sweep rows and random families in one traced pass; space-norms and
#: cli-commands trace one whole pass.
SWEEP_TRACE_ROWS = 6
RANDOM_GAP_TRACE = 12


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    facts: Callable[[object], dict] = lambda _out: {}


@dataclass
class Workload:
    passes: Iterator[list[Item]]
    warmup: list[Item]
    trace: list[Item]
    split: Callable[[dict, int], list[str]]
    cleanup: Callable[[], None] = field(default=lambda: None)


def _expect(failures: list[str], ok: bool, text: str) -> None:
    if not ok:
        failures.append(text)


# ---------------------------------------------------------------------------
# sweep-canonical


def _sweep_item(template, c: float) -> Item:
    return Item(
        label=f"c={c}",
        run=lambda: cli.sweep_gap(template, [c]),
        check=lambda text: checks.check_sweep_row(c, text),
        facts=lambda _text: {"inner_c": -1.0 < c < 0.0},
    )


def _sweep_split(m: dict, n: int) -> list[str]:
    bad: list[str] = []
    _expect(bad, m["quadrature.circle_mean.calls"] == 0, "sweep rows call circle_mean_abs_pow")
    _expect(bad, m["certify.check_wx.calls"] == 0, "sweep rows call check_wx")
    _expect(bad, m["operators.gap_report.calls"] == n, "not one gap_report per row")
    _expect(bad, m["certify.certify_equality.calls"] == n, "not one certify_equality per row")
    _expect(bad, m["symbols.continuity.calls"] == 2 * n, "not two continuity screens per row")
    _expect(bad, m["spaces.sup_norm.calls"] > 0, "no sup_norm calls")
    return bad


def sweep_canonical(seed: int, out_dir: Path) -> Workload:
    """The paper's c-sweep; the seed orders the 41 rows of every pass."""
    template = cli.RunConfig.from_dict(
        {"symbol": CANONICAL, "sweep": {"binding": "c", "values": list(SWEEP_C)}}
    )
    rng = np.random.default_rng(seed)
    first = [_sweep_item(template, SWEEP_C[i]) for i in rng.permutation(len(SWEEP_C))]

    def passes():
        yield first
        while True:
            yield [_sweep_item(template, SWEEP_C[i]) for i in rng.permutation(len(SWEEP_C))]

    return Workload(
        passes=passes(),
        warmup=[_sweep_item(template, -0.5)],
        trace=first[:SWEEP_TRACE_ROWS],
        split=_sweep_split,
    )


# ---------------------------------------------------------------------------
# random-gap


def rotate(node, lam: complex):
    """AST of z -> node(lam * z) for a unimodular lam.

    A Blaschke factor with zeros a rotates into the one with zeros
    a * conj(lam) exactly; its z^order part picks up lam^order.
    """
    if isinstance(node, sym.VarZ):
        return sym.Mul(sym.Const(lam), node)
    if isinstance(node, (sym.Const, sym.ParamT)):
        return node
    if isinstance(node, (sym.Add, sym.Sub, sym.Mul, sym.Div)):
        return type(node)(rotate(node.left, lam), rotate(node.right, lam))
    if isinstance(node, (sym.Neg, sym.Exp)):
        return type(node)(rotate(node.arg, lam))
    if isinstance(node, sym.IntPow):
        return sym.IntPow(rotate(node.base, lam), node.power)
    if isinstance(node, sym.Blaschke):
        turned = sym.Blaschke(tuple(a * lam.conjugate() for a in node.zeros), node.order)
        return sym.Mul(sym.Const(lam**node.order), turned) if node.order else turned
    raise TypeError(f"not a symbol node: {node!r}")


def rotated_family(fam, lam: complex, phase: complex):
    """phase * g_t(lam * z): the same gap, the same t-sample structure.

    random_family draws every coefficient from a rotation-invariant complex
    normal and every Blaschke zero with a uniform phase, so this is a fresh
    draw of all phases with the moduli and the tree shape kept.  The seed
    then changes the inputs without changing how many kink-tail families a
    run meets, which would otherwise dominate the run-to-run spread.
    """
    body = sym.Mul(sym.Const(phase), rotate(fam.body, lam))
    return sym.SymbolFamily(body=body, text=sym.format_expr(body))


def _random_gap_item(index: int, fam) -> Item:
    atol = max(RANDOM_GAP_QUAD.tol * 1e-1, 1e-12)
    return Item(
        label=f"family {index}",
        run=lambda: operators.gap_report(fam, HARDY2, RANDOM_GAP_QUAD),
        check=lambda rep: checks.check_one_sided(rep, atol),
        facts=lambda rep: {"t_samples": len(rep.per_t), "kink": len(rep.per_t) > KINK_SAMPLES},
    )


def _random_gap_split(m: dict, n: int) -> list[str]:
    bad: list[str] = []
    _expect(bad, m["quadrature.circle_mean.calls"] == 0, "gap reports call circle_mean_abs_pow")
    for layer in ("certify.certify_equality", "certify.residuals", "certify.check_wx"):
        _expect(bad, m[f"{layer}.calls"] == 0, f"gap reports call {layer}")
    _expect(bad, m["operators.gap_report.calls"] == n, "not one gap_report per family")
    _expect(bad, m["symbols.eval.calls"] > 0, "no symbol evaluations")
    return bad


def random_gap(seed: int, out_dir: Path) -> Workload:
    """Gap reports on random families, kink tail included."""
    pool_rng = np.random.default_rng(RANDOM_GAP_POOL_SEED)
    rng = np.random.default_rng(seed)
    items = []
    for index in range(RANDOM_GAP_POOL):
        lam, phase = np.exp(2j * np.pi * rng.random(2))
        fam = rotated_family(random_family(pool_rng), complex(lam), complex(phase))
        items.append(_random_gap_item(index, fam))

    def passes():
        while True:
            yield items

    return Workload(
        passes=passes(),
        warmup=[items[0]],
        trace=items[:RANDOM_GAP_TRACE],
        split=_random_gap_split,
    )


# ---------------------------------------------------------------------------
# space-norms


def _space_norm_item(z: complex, space) -> Item:
    q = spaces.QuadConfig()

    def run():
        f = spaces.extremal_function(z, space)
        return spaces.space_norm(f, space, q), f(z), spaces.eval_functional_norm(z, space)

    return Item(
        label=f"{space.kind} p={space.p} a={space.alpha} |z|={abs(z)}",
        run=run,
        check=lambda out: checks.check_extremal(*out),
    )


def _space_split(m: dict, n: int) -> list[str]:
    bad: list[str] = []
    for layer in ("symbols.eval", "spaces.sup_norm", "quadrature.adaptive", "operators.gap_report"):
        _expect(bad, m[f"{layer}.calls"] == 0, f"space norms call {layer}")
    _expect(
        bad,
        m["spaces.hardy_norm.calls"] + m["spaces.bergman_norm.calls"] == n,
        "not one Hardy or Bergman norm per item",
    )
    _expect(bad, m["quadrature.circle_mean.calls"] >= n, "fewer circle means than norms")
    return bad


def space_norms(seed: int, out_dir: Path) -> Workload:
    """Norms of evaluation-functional extremals at 1 - 2^-k with seeded phases."""
    rng = np.random.default_rng(seed)
    items = []
    for k in range(2, 11):
        for p in (1.5, 2.0, 4.0):
            targets = [spaces.SpaceSpec.hardy(p)] + [
                spaces.SpaceSpec.bergman(p, a) for a in (-0.5, 0.0, 1.0)
            ]
            for space in targets:
                z = (1.0 - 2.0**-k) * complex(np.exp(2j * np.pi * rng.random()))
                items.append(_space_norm_item(z, space))

    def passes():
        while True:
            yield [items[i] for i in rng.permutation(len(items))]

    return Workload(
        passes=passes(),
        warmup=list(items),
        trace=items,
        split=_space_split,
    )


# ---------------------------------------------------------------------------
# cli-commands


def _cli_item(command: str, config: Path, out: Path, refs: dict, expected: dict) -> Item:
    def run():
        # A fresh file each time: on ext4, truncating the previous report
        # in place forces its blocks out to disk and costs tens of ms.
        out.unlink(missing_ok=True)
        code = cli.run_cli([command, "--config", str(config), "--out", str(out)])
        return code, out.read_bytes()

    def check(result):
        code, raw = result
        reason = checks.check_cli_report(
            command, code, raw, refs.get(command), _report_validator(), expected
        )
        if reason is None:
            refs.setdefault(command, raw)
        return reason

    return Item(label=command, run=run, check=check)


def _cli_split(m: dict, n: int) -> list[str]:
    bad: list[str] = []
    _expect(bad, m["cli.run_cli.calls"] == n, "not one run_cli per command")
    _expect(bad, m["cli.config.calls"] == n, "not one config read per command")
    _expect(bad, m["reports.emit.calls"] == n, "not one report per command")
    _expect(bad, m["certify.check_wx.calls"] == n // len(CLI_COMMANDS), "check_wx count")
    return bad


@functools.lru_cache(maxsize=1)
def _report_validator():
    # Built on first use: checking is not part of the workload's set-up.
    schema = (resources.files("opnorm_lab") / "schema" / "opnorm_lab_v1.json").read_text()
    return checks.schema_validator(schema)


def cli_commands(seed: int, out_dir: Path) -> Workload:
    """In-process CLI runs on the canonical family at c = -0.5."""
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0.1, 0.9))
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
    config = work / "config.json"
    config.write_text(
        json.dumps({"symbol": CANONICAL, "bindings": {"c": CLI_C}, "t": t}),
        encoding="utf-8",
    )
    a = CLI_C + t
    expected = {
        "sup": 1.0 + abs(a),
        "norm": math.sqrt(1.0 + a * a),
        "gap": checks.canonical_gap(CLI_C),
        "certify": checks.STRICT,
        "wx-check": checks.WX_PASS,
    }
    refs: dict[str, bytes] = {}
    by_name = {
        c: _cli_item(c, config, work / f"{c}.json", refs, expected)
        for c in CLI_COMMANDS
    }

    def passes():
        while True:
            yield [by_name[CLI_COMMANDS[i]] for i in rng.permutation(len(CLI_COMMANDS))]

    return Workload(
        passes=passes(),
        warmup=[by_name[c] for c in CLI_COMMANDS],
        trace=[by_name[c] for c in CLI_COMMANDS],
        split=_cli_split,
        cleanup=lambda: shutil.rmtree(work, ignore_errors=True),
    )


BUILDERS = {
    "sweep-canonical": sweep_canonical,
    "random-gap": random_gap,
    "space-norms": space_norms,
    "cli-commands": cli_commands,
}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    return BUILDERS[name](seed, out_dir)

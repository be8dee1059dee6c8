"""Command-line front end: config ingestion, dispatch, JSON/CSV emission.

One JSON config document drives every subcommand; unknown fields are
rejected so a typo cannot silently fall back to a default.  Reports go to
stdout or --out.  Exit codes: 0 success, 1 domain error (bad config,
divergence), 2 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .certify import certify_equality, check_wx
from .errors import DomainError, OpnormLabError
from .operators import gap_report, mult_operator_norm
from .reports import emit_report, space_payload
from .spaces import QuadConfig, SpaceSpec, space_norm, sup_norm
from .symbols import SymbolFamily, frozen_symbol, is_boundary_continuous, parse_symbol, symbol_names

__all__ = ["RunConfig", "main", "run_cli", "sweep_gap"]


class _CliUsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliUsageError(message)


def _fmt12(x: float) -> str:
    return f"{float(x):.12g}"


def _check_keys(obj, allowed: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise DomainError(f"{path} must be a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise DomainError(f"unknown config field {path}.{unknown[0]}")


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, path: str, kind=float):
    if not _is_real(value) or (kind is int and value % 1 != 0):
        raise DomainError(f"{path} must be {'an integer' if kind is int else 'a number'}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise DomainError(f"{path} is out of range") from exc


def _numbers(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise DomainError(f"{path} must be a list of numbers")
    return [_number(v, path) for v in value]


@dataclass
class RunConfig:
    """Validated contents of the JSON config document."""

    symbol: str
    bindings: dict = field(default_factory=dict)
    space: SpaceSpec = field(default_factory=lambda: SpaceSpec.hardy(2.0))
    quad: QuadConfig = field(default_factory=QuadConfig)
    t: float | None = None
    certify_tol: float = 1e-6
    sweep_binding: str | None = None
    sweep_values: list[float] | None = None
    out: str | None = None

    @classmethod
    def from_file(cls, path: Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _check_keys(
            raw,
            {"symbol", "bindings", "space", "quad", "t", "certify", "sweep", "out"},
            "config",
        )
        if "symbol" not in raw or not isinstance(raw["symbol"], str):
            raise DomainError("config.symbol must be a string")
        bindings = raw.get("bindings", {})
        if not isinstance(bindings, dict) or not all(map(_is_real, bindings.values())):
            raise DomainError("config.bindings must map names to real numbers")

        space_raw = raw.get("space", {"kind": "hardy", "p": 2.0})
        _check_keys(space_raw, {"kind", "p", "alpha"}, "config.space")
        kind = space_raw.get("kind")
        if kind not in ("hardy", "bergman"):
            raise DomainError("config.space.kind must be 'hardy' or 'bergman'")
        if "p" not in space_raw:
            raise DomainError("config.space.p is required")
        p = _number(space_raw["p"], "config.space.p")
        if kind == "hardy":
            if "alpha" in space_raw:
                raise DomainError("config.space.alpha applies to Bergman spaces only")
            space = SpaceSpec.hardy(p)
        else:
            alpha = _number(space_raw.get("alpha", 0.0), "config.space.alpha")
            space = SpaceSpec.bergman(p, alpha)

        quad_raw = raw.get("quad", {})
        _check_keys(
            quad_raw,
            {"n_theta", "n_radial", "hardy_radii", "t_nodes", "sup_refine_iters", "tol"},
            "config.quad",
        )
        quad_kwargs = {}
        for key in ("n_theta", "n_radial", "t_nodes", "sup_refine_iters"):
            if key in quad_raw:
                quad_kwargs[key] = _number(quad_raw[key], f"config.quad.{key}", int)
        if "tol" in quad_raw:
            quad_kwargs["tol"] = _number(quad_raw["tol"], "config.quad.tol")
        if "hardy_radii" in quad_raw:
            radii = _numbers(quad_raw["hardy_radii"], "config.quad.hardy_radii")
            quad_kwargs["hardy_radii"] = tuple(radii)
        try:
            quad = QuadConfig(**quad_kwargs)
        except DomainError as exc:  # its messages start with the field name
            raise DomainError(f"config.quad.{exc}") from exc

        certify_raw = raw.get("certify", {})
        _check_keys(certify_raw, {"tol"}, "config.certify")
        certify_tol = _number(certify_raw.get("tol", 1e-6), "config.certify.tol")

        sweep_raw = raw.get("sweep")
        sweep_binding = None
        sweep_values = None
        if sweep_raw is not None:
            _check_keys(sweep_raw, {"binding", "values"}, "config.sweep")
            if "binding" not in sweep_raw or "values" not in sweep_raw:
                raise DomainError("config.sweep needs 'binding' and 'values'")
            sweep_binding = str(sweep_raw["binding"])
            sweep_values = _numbers(sweep_raw["values"], "config.sweep.values")

        t_val = raw.get("t")
        if t_val is not None:
            t_val = _number(t_val, "config.t")

        out = raw.get("out")
        if out is not None and not isinstance(out, str):
            raise DomainError("config.out must be a path string")

        return cls(
            symbol=raw["symbol"],
            bindings=dict(bindings),
            space=space,
            quad=quad,
            t=t_val,
            certify_tol=certify_tol,
            sweep_binding=sweep_binding,
            sweep_values=sweep_values,
            out=out,
        )

    def family(self, extra_bindings: dict | None = None) -> SymbolFamily:
        bindings = dict(self.bindings)
        if extra_bindings:
            bindings.update(extra_bindings)
        return parse_symbol(self.symbol, bindings)


def _frozen_for(cfg: RunConfig):
    fam = cfg.family()
    if fam.uses_t and cfg.t is None:
        raise DomainError("config.t is required for a t-dependent symbol")
    return fam, frozen_symbol(fam, cfg.t if fam.uses_t else None)


def _require_continuous(fam: SymbolFamily) -> None:
    if not is_boundary_continuous(fam):
        raise DomainError(
            "symbol is not certified boundary-continuous; boundary sup norms "
            "would be unreliable"
        )


def sweep_gap(template: RunConfig, values=None) -> str:
    """Gap and verdict per swept binding value, as CSV text.

    One row per value in input order; a failing value keeps its row with
    verdict Error and nan numeric fields, and its reason (the exception
    class and message) goes to stderr.
    """
    if template.sweep_binding is None:
        raise DomainError("config.sweep.binding is required for sweeps")
    if values is None:
        values = template.sweep_values
    if not values:
        raise DomainError("config.sweep.values must be a nonempty list")
    if template.sweep_binding not in symbol_names(template.symbol):
        raise DomainError(
            f"swept binding {template.sweep_binding!r} does not occur in the symbol"
        )
    lines = ["c,lhs,rhs,gap,verdict"]
    for value in values:
        try:
            fam = template.family({template.sweep_binding: value})
            _require_continuous(fam)
            rep = gap_report(fam, template.space, template.quad)
            cert = certify_equality(
                fam,
                template.space,
                template.quad,
                tol=template.certify_tol,
                gap_value=rep.gap,
            )
            lines.append(
                ",".join(
                    [
                        _fmt12(value),
                        _fmt12(rep.lhs),
                        _fmt12(rep.rhs),
                        _fmt12(rep.gap),
                        cert.verdict,
                    ]
                )
            )
        except OpnormLabError as exc:
            print(
                f"sweep: {template.sweep_binding} = {_fmt12(value)}: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            lines.append(",".join([_fmt12(value), "nan", "nan", "nan", "Error"]))
    return "\n".join(lines) + "\n"


def _cmd_norm(cfg: RunConfig) -> str:
    fam, g = _frozen_for(cfg)
    value = space_norm(g, cfg.space, cfg.quad)
    return emit_report(
        {
            "kind": "space-norm",
            "space": space_payload(cfg.space),
            "t": cfg.t,
            "value": value,
        }
    )


def _cmd_supnorm(cfg: RunConfig) -> str:
    fam, g = _frozen_for(cfg)
    _require_continuous(fam)
    return emit_report(sup_norm(g, cfg.quad))


def _cmd_opnorm(cfg: RunConfig) -> str:
    fam, g = _frozen_for(cfg)
    _require_continuous(fam)
    value = mult_operator_norm(g, cfg.space, cfg.quad)
    return emit_report(
        {
            "kind": "operator-norm",
            "space": space_payload(cfg.space),
            "t": cfg.t,
            "value": value,
        }
    )


def _cmd_gap(cfg: RunConfig) -> str:
    fam = cfg.family()
    _require_continuous(fam)
    return emit_report(gap_report(fam, cfg.space, cfg.quad))


def _cmd_certify(cfg: RunConfig) -> str:
    fam = cfg.family()
    return emit_report(
        certify_equality(fam, cfg.space, cfg.quad, tol=cfg.certify_tol)
    )


def _cmd_wx_check(cfg: RunConfig) -> str:
    fam = cfg.family()
    return emit_report(check_wx(fam, cfg.space, cfg.quad))


_COMMANDS = {
    "norm": _cmd_norm,
    "supnorm": _cmd_supnorm,
    "opnorm": _cmd_opnorm,
    "gap": _cmd_gap,
    "certify": _cmd_certify,
    "wx-check": _cmd_wx_check,
}


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="opnorm-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_ArgumentParser)
    sub.required = True
    for name in (*_COMMANDS, "sweep"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, type=Path)
        cmd.add_argument("--out", type=Path, default=None)
    selftest = sub.add_parser("selftest")
    selftest.add_argument("--out", type=Path, default=None)
    return parser


def _deliver(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def run_cli(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except _CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        if args.command == "selftest":
            from .selftest import run_selftest

            payload, passed = run_selftest()
            _deliver(emit_report(payload), args.out)
            return 0 if passed else 1
        cfg = RunConfig.from_file(args.config)
        out = args.out if args.out is not None else (
            Path(cfg.out) if cfg.out else None
        )
        if args.command == "sweep":
            _deliver(sweep_gap(cfg), out)
            return 0
        _deliver(_COMMANDS[args.command](cfg), out)
        return 0
    except (OpnormLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

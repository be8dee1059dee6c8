"""Outside-in tracer for the public functions of each opnorm_lab layer.

The package binds names with ``from .spaces import sup_norm`` and similar
imports, so one function object is reachable under several module
attributes.  :meth:`Tracer.install` finds every attribute of every loaded
``opnorm_lab`` (and ``perfbench``) module, and every class attribute, that
is the traced function by identity, and replaces each with one wrapper.  It
then refuses to run if a traced function is still reachable unwrapped: a
refactor that moves an import must not silently drop a layer.

Each wrapped call records a span ``(layer, start, end, parent, item)`` in
memory.  A layer's self time is its spans' durations minus the time their
child spans cover.  Counts that the spans cannot show (points evaluated,
adaptive evaluations, t-samples, report bytes) are taken at the same
boundary from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Attribute set on callables returned by ``frozen_symbol``: the canonical
#: family text and the parameter value t.
KEY_ATTR = "perfbench_key"

#: The gap report of a family that draws more t-samples than this sits in
#: the kink tail of the adaptive t-integration.
KINK_SAMPLES = 24

_SCANNED_PREFIXES = ("opnorm_lab", "perfbench")


class TracerError(RuntimeError):
    """The tracer could not wrap every binding of a traced function."""


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    qualname: str
    before: Callable | None = None
    after: Callable | None = None


# -- hooks: (tracer, args, kwargs) -> (args, kwargs) before the call, and
# -- (tracer, args, kwargs, result) -> None after it.


def _eval_points(tr, args, kwargs):
    z = args[2] if len(args) > 2 else kwargs["z"]
    tr.counts["symbols.eval.points"] += int(np.size(z))
    return args, kwargs


def _tag_frozen(tr, args, kwargs, result):
    from opnorm_lab.symbols import format_symbol

    fam = args[0] if args else kwargs["f"]
    t = args[1] if len(args) > 1 else kwargs.get("t")
    setattr(result, KEY_ATTR, (format_symbol(fam), None if t is None else float(t)))


def _sup_norm_before(tr, args, kwargs):
    args = list(args)
    g = args[0] if args else kwargs["g"]
    q = args[1] if len(args) > 1 else kwargs["q"]
    key = getattr(g, KEY_ATTR, None)
    if key is not None:
        tr.counts["spaces.sup_norm.keyed_calls"] += 1
        tr.sup_keys.add((key, q))

    def counted(z):
        tr.counts["spaces.sup_norm.evals"] += 1
        return g(z)

    if args:
        args[0] = counted
    else:
        kwargs = {**kwargs, "g": counted}
    return tuple(args), kwargs


def _circle_mean_before(tr, args, kwargs):
    args = list(args)
    f = args[0] if args else kwargs["f"]

    def counted(w):
        tr.counts["quadrature.circle_mean.points"] += int(np.size(w))
        return f(w)

    if args:
        args[0] = counted
    else:
        kwargs = {**kwargs, "f": counted}
    return tuple(args), kwargs


def _adaptive_after(tr, args, kwargs, result):
    tr.counts["quadrature.adaptive.n_evals"] += result.n_evals


def _gap_after(tr, args, kwargs, result):
    tr.per_t_samples.append(len(result.per_t))


def _certify_after(tr, args, kwargs, result):
    tr.counts["certify.candidates"] += len(result.candidates)


def _emit_after(tr, args, kwargs, result):
    tr.counts["reports.emit.bytes"] += len(result.encode("utf-8"))


LAYERS = (
    Layer("symbols.eval", "opnorm_lab.symbols", "eval_symbol", before=_eval_points),
    Layer("symbols.parse", "opnorm_lab.symbols", "parse_symbol"),
    Layer("symbols.continuity", "opnorm_lab.symbols", "is_boundary_continuous"),
    Layer("symbols.integrate", "opnorm_lab.symbols", "integrate_family_at"),
    Layer("symbols.frozen", "opnorm_lab.symbols", "frozen_symbol", after=_tag_frozen),
    Layer("spaces.sup_norm", "opnorm_lab.spaces", "sup_norm", before=_sup_norm_before),
    Layer("spaces.hardy_norm", "opnorm_lab.spaces", "hardy_norm"),
    Layer("spaces.bergman_norm", "opnorm_lab.spaces", "bergman_norm"),
    Layer(
        "quadrature.circle_mean",
        "opnorm_lab.quadrature",
        "circle_mean_abs_pow",
        before=_circle_mean_before,
    ),
    Layer(
        "quadrature.adaptive",
        "opnorm_lab.quadrature",
        "integrate_adaptive_01",
        after=_adaptive_after,
    ),
    Layer("operators.gap_report", "opnorm_lab.operators", "gap_report", after=_gap_after),
    Layer(
        "certify.certify_equality",
        "opnorm_lab.certify",
        "certify_equality",
        after=_certify_after,
    ),
    Layer("certify.residuals", "opnorm_lab.certify", "i1_i2_residuals"),
    Layer("certify.check_wx", "opnorm_lab.certify", "check_wx"),
    Layer("cli.config", "opnorm_lab.cli", "RunConfig.from_file"),
    Layer("cli.run_cli", "opnorm_lab.cli", "run_cli"),
    Layer("reports.emit", "opnorm_lab.reports", "emit_report", after=_emit_after),
)

#: The span that the benchmark opens around each item; traced layers nest
#: inside it, so its self time is the item's time outside every layer.
ITEM_SPAN = "bench.item"


def _scanned_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None
        and any(name == p or name.startswith(p + ".") for p in _SCANNED_PREFIXES)
    ]


def _import_package() -> None:
    import opnorm_lab

    for info in pkgutil.iter_modules(opnorm_lab.__path__, "opnorm_lab."):
        importlib.import_module(info.name)


def _resolve(layer: Layer):
    obj = importlib.import_module(layer.module)
    for part in layer.qualname.split("."):
        # vars() keeps a classmethod wrapped, so its function can be found
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj


class Tracer:
    """Spans and counts for one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.layer_names = [layer.name for layer in LAYERS] + [ITEM_SPAN]
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.sup_keys: set = set()
        self.per_t_samples: list[int] = []
        self.item = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def call(self, layer_id: int, fn, args, kwargs, before=None, after=None):
        if before is not None:
            args, kwargs = before(self, args, kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (layer_id, start, end, parent, self.item)
        if after is not None:
            after(self, args, kwargs, result)
        return result

    def run_item(self, item_id: int, fn):
        """Run one benchmark item under its own root span."""
        self.item = item_id
        return self.call(len(LAYERS), fn, (), {})

    # -- patching ----------------------------------------------------------

    def _wrapper(self, layer_id: int, layer: Layer, fn):
        call = self.call
        before, after = layer.before, layer.after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(layer_id, fn, args, kwargs, before, after)

        return traced

    def install(self) -> None:
        """Wrap every binding of every traced function, or raise."""
        if self._restore:
            raise TracerError("tracer is already installed")
        _import_package()
        originals = {}
        for layer_id, layer in enumerate(LAYERS):
            fn = _resolve(layer)
            originals[id(fn)] = (fn, self._wrapper(layer_id, layer, fn))
        seen_classes = set()
        for mod in _scanned_modules():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])
                elif isinstance(value, type) and id(value) not in seen_classes:
                    seen_classes.add(id(value))
                    self._patch_class(value, originals)
        try:
            self.verify(originals)
        except TracerError:
            self.uninstall()
            raise

    def _patch(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def _patch_class(self, cls: type, originals) -> None:
        if not cls.__module__.startswith(_SCANNED_PREFIXES):
            return
        for attr, value in list(vars(cls).items()):
            func = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
            hit = originals.get(id(func))
            if hit is None or hit[0] is not func:
                continue
            new = type(value)(hit[1]) if func is not value else hit[1]
            self._patch(cls, attr, value, new)

    def verify(self, originals) -> None:
        """Raise if any traced function is still reachable unwrapped."""
        for mod in _scanned_modules():
            for attr, value in vars(mod).items():
                where = f"{mod.__name__}.{attr}"
                for found in _reachable(value):
                    hit = originals.get(id(found))
                    if hit is not None and hit[0] is found:
                        raise TracerError(
                            f"{where} still binds {found.__module__}.{found.__qualname__} "
                            "unwrapped; the tracer cannot see calls through it"
                        )

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer name, from the recorded spans."""
        n = len(self.spans)
        child = np.zeros(n)
        dur = np.empty(n)
        layer_of = np.empty(n, dtype=int)
        for i, (layer_id, start, end, parent, _item) in enumerate(self.spans):
            dur[i] = end - start
            layer_of[i] = layer_id
            if parent >= 0:
                child[parent] += end - start
        self_time = dur - child
        calls = np.bincount(layer_of, minlength=len(self.layer_names))
        busy = np.bincount(layer_of, weights=self_time, minlength=len(self.layer_names))
        return {
            name: (int(calls[i]), float(busy[i]))
            for i, name in enumerate(self.layer_names)
        }

    def metrics(self) -> dict:
        """Per-layer metrics of this pass, keyed as in :data:`PER_LAYER`."""
        totals = self.layer_totals()
        c = self.counts
        m: dict = {}
        for name, (calls, busy) in totals.items():
            m[f"{name}.calls"] = calls
            m[f"{name}.self_s"] = busy
        evals = m["symbols.eval.calls"]
        sups = m["spaces.sup_norm.calls"]
        keyed = c["spaces.sup_norm.keyed_calls"]
        samples = self.per_t_samples
        m.update(
            {
                "symbols.eval.points": c["symbols.eval.points"],
                "symbols.eval.points_per_call": c["symbols.eval.points"] / evals if evals else 0.0,
                "spaces.sup_norm.evals_per_call": c["spaces.sup_norm.evals"] / sups if sups else 0.0,
                "spaces.sup_norm.keyed_calls": keyed,
                "spaces.sup_norm.distinct_share": len(self.sup_keys) / keyed if keyed else 0.0,
                "quadrature.circle_mean.points": c["quadrature.circle_mean.points"],
                "quadrature.adaptive.n_evals": c["quadrature.adaptive.n_evals"],
                "operators.per_t_samples": sum(samples),
                "operators.per_t_samples_max": max(samples, default=0),
                "traffic.kink_share": kink_share(samples),
                "certify.candidates": c["certify.candidates"],
                "reports.emit.bytes": c["reports.emit.bytes"],
                "trace.spans": len(self.spans),
            }
        )
        return m

    def write_spans(self, path) -> None:
        """Write the spans as tab-separated text: layer, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\tstart_s\tend_s\tparent\titem\n")
            for layer_id, start, end, parent, item in self.spans:
                fh.write(
                    f"{self.layer_names[layer_id]}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n"
                )


def kink_share(samples) -> float:
    """Share of gap reports that drew more than KINK_SAMPLES t-samples."""
    return sum(s > KINK_SAMPLES for s in samples) / len(samples) if samples else 0.0


def _reachable(value):
    """The value itself and what it holds one level down, where a function
    object could hide from an attribute scan."""
    yield value
    if isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value
    elif isinstance(value, (classmethod, staticmethod)):
        yield value.__func__
    elif isinstance(value, functools.partial):
        yield value.func
    elif isinstance(value, type) and value.__module__.startswith(_SCANNED_PREFIXES):
        for inner in vars(value).values():
            yield inner
            if isinstance(inner, (classmethod, staticmethod)):
                yield inner.__func__
    if callable(value) and hasattr(value, "__defaults__"):
        yield from value.__defaults__ or ()
        yield from (value.__kwdefaults__ or {}).values()

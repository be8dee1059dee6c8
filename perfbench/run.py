"""Benchmark for opnorm_lab.

    python3 perfbench/run.py --workload sweep-canonical --seed 2 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
closed-loop client runs whole passes over the workload's items in this
process for about ``--seconds`` seconds after an untimed warm-up (at least
one pass), checks every output, and
prints the end-to-end metrics as the last line of standard output, with
the traffic properties and the tail percentile on the line before it.

With ``--trace 1`` it instead runs the workload's fixed trace list three
times: untimed by the tracer, then twice under the outside-in tracer.  It
prints the per-layer metrics, asserts the workload's layer split and that
the deterministic counts repeat exactly, and writes the spans of the first
traced pass to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOADS = ("sweep-canonical", "random-gap", "space-norms", "cli-commands")
DEFAULT_SEED = 2
#: Not used while the benchmark or a change is tuned; claims are re-checked on it.
HELD_OUT_SEED = 7
SETUP_SAMPLES = 5

#: End-to-end metrics and their units, reported with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

#: Counts that depend only on the inputs; two traced passes must agree.
DETERMINISTIC = (
    "symbols.eval.calls",
    "symbols.eval.points",
    "quadrature.adaptive.n_evals",
    "operators.per_t_samples",
)

_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed; {HELD_OUT_SEED} is held out for re-checking claims",
    )
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe",
        action="store_true",
        help="import the package, build the inputs, print the seconds taken",
    )
    return ap.parse_args(argv)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "opnorm_lab", "__init__.py")):
        raise SystemExit(f"error: no opnorm_lab package under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import opnorm_lab

    if not os.path.abspath(opnorm_lab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported opnorm_lab from {opnorm_lab.__file__}")


def _setup_probe(args) -> None:
    start = time.perf_counter()
    _import_package()
    from perfbench import workloads

    wl = workloads.build(args.workload, args.seed, _out_dir())
    elapsed = time.perf_counter() - start
    wl.cleanup()
    print(repr(elapsed))


def _out_dir() -> Path:
    path = Path(OUT)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _setup_seconds(args) -> list[float]:
    """Fresh-process set-up times; the first probe, which also compiles
    bytecode, is discarded."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples[1:]


class Tally:
    """Attempted and failed items, and the traffic facts of passed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.facts: list[dict] = []

    def run(self, item, call=None) -> float:
        """Run one item, check it, and return its latency in seconds.

        Only the call into the package is timed; the check runs after it.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = item.run() if call is None else call(item.run)
        except Exception as exc:  # a raising item is a failed item
            elapsed = time.perf_counter() - start
            self._fail(item, f"raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        reason = item.check(out)
        if reason is not None:
            self._fail(item, reason)
        else:
            self.facts.append(item.facts(out))
        return elapsed

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    def _fail(self, item, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {item.label}: {reason}", file=sys.stderr)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples above it; the maximum when there are ten samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11 if n > 10 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def traffic(facts: list[dict]) -> dict:
    """Share of items with each boolean fact; median and max of counts."""
    out = {}
    for key in sorted({k for f in facts for k in f}):
        values = [f[key] for f in facts if key in f]
        if isinstance(values[0], bool):
            out[f"{key}_share"] = sum(values) / len(values)
        else:
            out[f"{key}_median"] = statistics.median(values)
            out[f"{key}_max"] = max(values)
    return out


def timed_run(args, wl) -> tuple[Tally, dict, bool]:
    setup = _setup_seconds(args)
    tally = Tally()
    for item in wl.warmup:
        tally.run(item)
    # Whole passes only, so every run measures the same mix of items: a
    # heavy item cut off at the deadline would move items_per_s by several
    # percent.  Another pass starts only if the last one would still end
    # within the run's seconds.
    timed = Tally()
    latencies: list[float] = []
    deadline = time.perf_counter() + args.seconds
    for batch in wl.passes:
        begun = time.perf_counter()
        latencies += [timed.run(item) for item in batch]
        now = time.perf_counter()
        if now + (now - begun) > deadline:
            break
    tally.add(timed)
    tail_value, tail_pct = tail(latencies)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "samples": len(latencies),
                "tail_percentile": round(tail_pct, 2),
                "failed_share": tally.failed / tally.attempted,
                "setup_samples_s": setup,
                "traffic": traffic(timed.facts),
            }
        )
    )
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_tail_ms": 1e3 * tail_value,
        "ok_share": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, {name: (values[name], unit) for name, unit in END_TO_END.items()}, True


def _traced_pass(wl):
    from perfbench.tracer import Tracer

    tally = Tally()
    tracer = Tracer()
    tracer.install()
    try:
        latencies = [
            tally.run(item, lambda fn, i=i: tracer.run_item(i, fn))
            for i, item in enumerate(wl.trace)
        ]
    finally:
        tracer.uninstall()
    return tally, tracer, latencies


def traced_run(args, wl) -> tuple[Tally, dict, bool]:
    tally = Tally()
    for item in wl.warmup:
        tally.run(item)
    n = len(wl.trace)
    plain = Tally()
    untraced = [plain.run(item) for item in wl.trace]
    tally_a, tracer, traced = _traced_pass(wl)
    tally_b, tracer_b, traced_b = _traced_pass(wl)
    for t in (plain, tally_a, tally_b):
        tally.add(t)
    m, m_b = tracer.metrics(), tracer_b.metrics()

    ips_untraced = n / sum(untraced)
    ips_traced = 2 * n / (sum(traced) + sum(traced_b))
    m["traffic.inner_c_share"] = traffic(tally_a.facts).get("inner_c_share", 0.0)
    m["trace.items"] = n
    m["trace.items_per_s_untraced"] = ips_untraced
    m["trace.items_per_s_traced"] = ips_traced
    m["trace.overhead_share"] = 1.0 - ips_traced / ips_untraced

    problems = wl.split(m, n) + wl.split(m_b, n)
    problems += [
        f"{key} differs between traced passes: {m[key]} vs {m_b[key]}"
        for key in DETERMINISTIC
        if m[key] != m_b[key]
    ]
    for p in problems:
        print(f"LAYER SPLIT: {p}", file=sys.stderr)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv")
    tracer.write_spans(spans_path)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "spans_file": os.path.relpath(spans_path, ROOT),
                "layer_split_ok": not problems,
            }
        )
    )
    metrics = {name: (m[name], unit) for name, unit in per_layer_metrics()}
    return tally, metrics, not problems


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in output order."""
    from perfbench.tracer import ITEM_SPAN, LAYERS

    out = []
    for layer in LAYERS:
        out += [(f"{layer.name}.calls", "count"), (f"{layer.name}.self_s", "s")]
    out += [
        (f"{ITEM_SPAN}.self_s", "s"),
        ("symbols.eval.points", "count"),
        ("symbols.eval.points_per_call", "count"),
        ("spaces.sup_norm.evals_per_call", "count"),
        ("spaces.sup_norm.keyed_calls", "count"),
        ("spaces.sup_norm.distinct_share", "share"),
        ("quadrature.circle_mean.points", "count"),
        ("quadrature.adaptive.n_evals", "count"),
        ("operators.per_t_samples", "count"),
        ("operators.per_t_samples_max", "count"),
        ("certify.candidates", "count"),
        ("reports.emit.bytes", "bytes"),
        ("traffic.kink_share", "share"),
        ("traffic.inner_c_share", "share"),
        ("trace.items", "count"),
        ("trace.spans", "count"),
        ("trace.items_per_s_untraced", "1/s"),
        ("trace.items_per_s_traced", "1/s"),
        ("trace.overhead_share", "share"),
    ]
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    _import_package()
    from perfbench import workloads

    wl = workloads.build(args.workload, args.seed, _out_dir())
    try:
        tally, metrics, ok = (traced_run if args.trace else timed_run)(args, wl)
    finally:
        wl.cleanup()
    print(
        json.dumps(
            {
                "correct": ok and tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

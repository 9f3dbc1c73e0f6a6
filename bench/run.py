"""Run one workload of the hkpell benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hkpell is imported from ./src.
Timed passes repeat until --seconds have passed.  Each pass runs the whole
item list in a worker forked after `import hkpell`, so it starts with the
program's caches empty, as a fresh process has them.  The outputs are
checked after the last pass.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1, untraced and traced passes alternate
and the metrics are the per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Every interpreter of the benchmark runs with these; the parent re-executes
# itself with them (it is also reached through the pyenv shim otherwise).
FIXED_ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": SRC}
SETUP_LAUNCHES = 11
TAIL_PERCENTILE = 90  # each pass has >= 100 items, so >= 10 lie beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


# ---------------------------------------------------------------------------
# one pass, in a forked worker


def one_pass(workload, items, traced: bool, spans_path: str | None = None) -> dict:
    """Run every item once, timing one reference before the first item and
    after each (a loop slice in process, a bare interpreter start for CLI
    invocations)."""
    from timing import REFERENCES, peak_rss_mb
    from tracing import Tracer, cache_counts, cached_entries

    if workload.in_process and cached_entries():
        raise RuntimeError("a pass must start with the program's caches empty")
    tracer = Tracer() if traced else None
    if tracer and workload.in_process:
        tracer.install()
    reference = REFERENCES[ref_kind(workload)]
    refs = [reference()]
    times, outputs, failed = [], [], {}
    clock = time.perf_counter
    for i, item in enumerate(items):
        if tracer:
            tracer.current_item[0] = i
        t0 = clock()
        try:
            out = workload.run(item, tracer)
        except Exception as exc:  # counted as a failed operation
            out, failed[i] = None, f"item {item}: {type(exc).__name__}: {exc}"
        t1 = clock()
        times.append((t1 - t0, (t0 + t1) / 2))
        outputs.append(out)
        refs.append(reference())
    rss = peak_rss_mb(resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN)
    result = {"times": times, "refs": refs, "rss_mb": rss, "failed": failed,
              "outputs": [None if i in failed else workload.plain(o)
                          for i, o in enumerate(outputs)]}
    if tracer:
        if workload.in_process:
            tracer.counts.update(cache_counts())
        result["trace"] = tracer.summary()
        result["samples"] = tracer.samples
        if spans_path:
            tracer.write(spans_path)
    return result


def ref_kind(workload) -> str:
    return "loop" if workload.in_process else "start"


def run_passes(workload, items, seconds: float, trace: bool, spans_path: str) -> list[dict]:
    """Passes until `seconds` have passed; with trace, (untraced, traced) pairs."""
    from timing import in_fork

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(in_fork(lambda: one_pass(workload, items, False)))
        if trace:
            passes.append(in_fork(lambda: one_pass(workload, items, True, spans_path)))
    return passes


# ---------------------------------------------------------------------------
# metrics


def scaled_times(workload, p: dict) -> list[float]:
    """A pass's item times at the nominal speed of its reference."""
    from timing import scaled
    return scaled(p["times"], p["refs"], ref_kind(workload))


def end_to_end(workload, passes: list[dict], setup) -> tuple[dict, dict]:
    """The five end-to-end metrics, and the raw figures beside them."""
    from timing import scaled, slowdown

    raw = [dt for p in passes for dt, _ in p["times"]]
    fitted = [dt for p in passes for dt in scaled_times(workload, p)]

    def times(values):
        return {
            "throughput_items_per_s": (len(values) / sum(values), "items/s"),
            "item_p50_ms": (statistics.median(values) * 1000, "ms"),
            "item_tail_ms": (percentile(values, TAIL_PERCENTILE) * 1000, "ms"),
        }

    launches, bare = setup
    metrics = times(fitted)
    metrics["setup_s"] = (statistics.median(scaled(launches, bare, "start")), "s")
    metrics["peak_rss_mb"] = (max(p["rss_mb"] for p in passes), "MB")
    n = len(raw)
    raw_metrics = {k: v for k, (v, _) in times(raw).items()}
    raw_metrics["setup_s"] = statistics.median(dt for dt, _ in launches)
    info = {
        "workload": workload.name, "passes": len(passes), "items": n,
        "tail": f"p{TAIL_PERCENTILE}, {n - math.ceil(TAIL_PERCENTILE / 100 * n)} items beyond it",
        "raw": raw_metrics,
        "reference": ref_kind(workload),
        "reference_slowdown": [slowdown(p["refs"], ref_kind(workload)) for p in passes],
        "setup_start_slowdown": slowdown(bare, "start"),
    }
    return metrics, info


def per_layer(workload, passes: list[dict], cli_startup) -> dict:
    """Per-layer metrics from the traced passes (odd positions)."""
    from tracing import LAYERS, UNIT, layer_of

    untraced, traced = passes[0::2], passes[1::2]
    first = traced[0]["trace"]
    counts = first["counts"]
    m: dict[str, tuple[float, str]] = {}

    def self_s(pred) -> float:
        return statistics.median(
            sum(v for k, v in p["trace"]["self_s"].items() if pred(k)) for p in traced)

    def calls(pred) -> int:
        return sum(v for k, v in first["calls"].items() if pred(k))

    for layer in LAYERS:
        if layer != "pell":  # pell is split into unit and classes below
            m[f"{layer}.calls"] = (calls(lambda k: layer_of(k) == layer), "count")
            m[f"{layer}.self_s"] = (self_s(lambda k: layer_of(k) == layer), "s")
    is_unit = UNIT.__eq__

    def is_classes(k):
        return layer_of(k) == "pell" and k != UNIT

    unit_calls = calls(is_unit)
    hits = counts.get("pell.unit.hits", 0)
    m.update({
        "pell.unit.calls": (unit_calls, "count"),
        "pell.unit.self_s": (self_s(is_unit), "s"),
        "pell.unit.bits": (counts.get("pell.unit.bits", 0), "bit"),
        "pell.unit.cache_hit_ratio": (hits / unit_calls if unit_calls else 0.0, "ratio"),
        "pell.cache_entries": (counts.get("pell.cache_entries", 0), "count"),
        "pell.classes.calls": (calls(is_classes), "count"),
        "pell.classes.self_s": (self_s(is_classes), "s"),
        "lattice.qbar.calls": (calls("lattice.qbar".__eq__), "count"),
        "lattice.elements.calls": (calls("lattice.elements".__eq__), "count"),
        "periods.keys": (counts.get("periods.keys", 0), "count"),
    })
    if not workload.in_process:
        startup = [s for p in traced for s in p["samples"]["cli.startup_s"]]
        wall = [dt for p in traced for dt, _ in p["times"]]
        m["cli.startup_ms"] = (statistics.median(startup) * 1000, "ms")
        m["cli.command_ms"] = (statistics.median(w - s for w, s in zip(wall, startup)) * 1000, "ms")
        m["cli.stdout_bytes"] = (sum(len(o[1].encode()) for o in traced[0]["outputs"]), "byte")
    else:
        m["cli.startup_ms"] = (statistics.median(dt for dt, _ in cli_startup[0]) * 1000, "ms")
        m["cli.command_ms"] = (0.0, "ms")
        m["cli.stdout_bytes"] = (0, "byte")
    overhead = [sum(scaled_times(workload, t)) - sum(scaled_times(workload, u))
                for u, t in zip(untraced, traced)]
    m["trace.overhead_s"] = (statistics.median(overhead), "s")
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hkpell", "__init__.py")):
        print(f"bench: no hkpell package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **FIXED_ENV})
    from checks import CHECKS
    from timing import launch_times
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    items = workload.items(args.seed)
    if not args.trace:
        module = "hkpell" if workload.in_process else "hkpell.cli"
        setup = launch_times(module, SETUP_LAUNCHES, os.environ, ROOT)
    elif workload.in_process:  # cli_batch times start-up in its traced passes
        cli_startup = launch_times("hkpell.cli", SETUP_LAUNCHES, os.environ, ROOT)
    else:
        cli_startup = None
    import hkpell  # noqa: F401  (the forked workers inherit the import)

    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.tsv.gz")
    passes = run_passes(workload, items, args.seconds, bool(args.trace), spans_path)

    # checks, after every timed pass and every RSS reading; a failed item
    # counts in "failed" and is left out of them
    for msg in sorted({m for p in passes for m in p["failed"].values()}):
        print(f"bench: failed: {msg}", file=sys.stderr)
    reference = passes[0]["outputs"]
    ok = [(it, out) for i, (it, out) in enumerate(zip(items, reference))
          if i not in passes[0]["failed"]]
    errors = CHECKS[workload.name]([it for it, _ in ok], [out for _, out in ok])
    for k, p in enumerate(passes[1:], 2):
        if p["outputs"] != reference:
            errors.append(f"pass {k} gave other answers than pass 1")
    for e in errors[:20]:
        print(f"bench: wrong: {e}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(workload, passes, cli_startup)
        info = {"workload": workload.name, "traced_passes": len(passes) // 2,
                "spans": os.path.relpath(spans_path, ROOT)}
    else:
        metrics, info = end_to_end(workload, passes, setup)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(p["outputs"]) for p in passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

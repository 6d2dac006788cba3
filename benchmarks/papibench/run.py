"""papibench: the end-to-end, per-layer benchmark of this repository.

Run from the repository root::

    python3 benchmarks/papibench/run.py --workload tables --seed 1 \\
        --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``tables``,
``papid-reads`` and ``checkers``.  Every operation's output is checked;
a failed check makes the run exit 1.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` measures the end-to-end metrics with no layer hooks
installed: set-up time (median of several set-ups), the mean wall time
of the workload's unit of work, the median blocking-call latency and
peak resident memory.  ``--trace 1`` runs one fixed pass untraced and one
traced, each in a fresh interpreter, and reports per-layer call counts
and self times, deterministic work counts (which must be equal in both
passes) and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import SPAN_LAYERS, HOT_LAYERS, Tracer, WorkCounts  # noqa: E402
from workloads import PYTHONPATH, ROOT, WORKLOADS, Outcome  # noqa: E402

#: set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: longest both ``--trace 1`` passes together may take before the one
#: still running is killed (the run must end within 180 s).
PASSES_BUDGET_S = 165

#: counts that must not differ between the untraced and traced pass.
DETERMINISTIC = (
    "sim.instructions", "hw.engine.blocks_compiled",
    "hw.engine.regions_compiled", "hw.engine.traces_compiled",
    "daemon.reads", "daemon.journal.records", "tables.count",
    "validate.cells", "lint.files", "lint.diagnostics",
)

#: per-layer metrics that are not a layer's call count or self time.
EXTRA_LAYER_METRICS = (
    ("core.multiplex.rotations", "count", "lower"),
    ("hw.engine.blocks_compiled", "count", "lower"),
    ("hw.engine.regions_compiled", "count", "lower"),
    ("hw.engine.traces_compiled", "count", "lower"),
    ("hw.engine.fast_ins_frac", "ratio", "higher"),
    ("sim.instructions", "count", "lower"),
    ("sim.ips", "1/s", "higher"),
    ("daemon.reads", "count", "higher"),
    ("daemon.journal.records", "count", "lower"),
    ("tables.count", "count", "higher"),
    ("validate.cells", "count", "higher"),
    ("lint.files", "count", "higher"),
    ("lint.diagnostics", "count", "lower"),
    ("untraced.wall_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every ``--trace 1`` metric, in report order."""
    out = []
    for name in list(SPAN_LAYERS) + list(HOT_LAYERS):
        out.append((name, "count", "lower"))
        out.append((f"{name}.s", "s", "lower"))
    return out + list(EXTRA_LAYER_METRICS)


def nearest_rank(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_deferred(out: Outcome) -> None:
    for check in out.deferred:
        out.failures.extend(check())
    out.deferred.clear()


# ---------------------------------------------------------------------------
# --trace 0: end-to-end
# ---------------------------------------------------------------------------

def end_to_end(name: str, seed: int, seconds: float):
    workload = WORKLOADS[name](seed)
    setups = [workload.setup_time() for _ in range(SETUPS)]
    workload.prepare()
    out = workload.timed(seconds)
    run_deferred(out)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # the mean, not the median: it covers the whole timed phase, so
        # seconds-long slow windows of a shared host average out.
        "wall_s": (sum(out.wall_s) / len(out.wall_s), "s"),
        "call_p50_ms": (statistics.median(out.calls_s) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = {
        "setups_s": [round(s, 4) for s in setups],
        "repetitions": len(out.wall_s),
        "calls": len(out.calls_s),
        # not a metric: its run-to-run spread on papid-reads (IQR 21-30%
        # of the median) exceeds any bound the benchmark may set.
        "call_p90_ms": nearest_rank(out.calls_s, 0.90) * 1e3,
        "error_rate": len(out.failures) / max(1, out.attempted),
        **out.readouts,
        **out.counts,
    }
    return out, metrics, report


# ---------------------------------------------------------------------------
# --trace 1: per-layer
# ---------------------------------------------------------------------------

def one_pass(name: str, seed: int, traced: bool) -> dict:
    """One fixed pass in this (fresh) interpreter; hooks removed after."""
    workload = WORKLOADS[name](seed)
    workload.prepare()
    counts = WorkCounts()
    tracer = Tracer() if traced else None
    counts.install()
    if tracer is not None:
        tracer.install()
    try:
        out = workload.fixed_pass()
    finally:
        if tracer is not None:
            tracer.restore()
        counts.restore()
    run_deferred(out)
    totals = {**counts.totals(), **out.counts}
    return {
        "wall_s": out.wall_s[0],
        "attempted": out.attempted,
        "failures": out.failures,
        "counts": totals,
        "layers": tracer.layer_totals() if tracer is not None else {},
    }


def pass_main(name: str, seed: int, traced: bool) -> None:
    """Entry point of a fresh interpreter: one pass, its result on stdout."""
    sys.path[:0] = [str(p) for p in PYTHONPATH]
    print(json.dumps(one_pass(name, seed, traced), default=int))


def in_fresh_interpreter(name: str, seed: int, traced: bool,
                         deadline: float) -> dict:
    # A fresh interpreter per pass: nothing the first pass left in memory
    # (imports, any process-wide cache) can make the second one cheaper.
    # A plain child process, waited for on every path out (a timeout
    # kills it first), so no helper process outlives the run.
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
        f"run.pass_main({name!r}, {seed!r}, {traced!r})"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{'traced' if traced else 'untraced'} pass of "
                           f"{name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def per_layer(name: str, seed: int):
    deadline = time.monotonic() + PASSES_BUDGET_S
    plain = in_fresh_interpreter(name, seed, False, deadline)
    traced = in_fresh_interpreter(name, seed, True, deadline)
    failures = plain["failures"] + traced["failures"]
    for key in DETERMINISTIC:
        a, b = plain["counts"].get(key, 0), traced["counts"].get(key, 0)
        if a != b:
            failures.append(f"{key}: untraced {a} != traced {b}")
    counts = traced["counts"]
    values = dict(traced["layers"])
    values.update({key: counts.get(key, 0) for key in DETERMINISTIC})
    sim = counts["sim.instructions"]
    values["hw.engine.fast_ins_frac"] = (
        counts["sim.fast_instructions"] / sim if sim else 0.0
    )
    values["sim.ips"] = sim / plain["wall_s"]
    values["untraced.wall_s"] = plain["wall_s"]
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    metrics = {m: (values.get(m, 0), unit) for m, unit, _b in per_layer_metrics()}
    attempted = plain["attempted"] + traced["attempted"]
    report = {f"untraced {k}": v for k, v in sorted(plain["counts"].items())}
    return attempted, failures, metrics, report


# ---------------------------------------------------------------------------

def _missing_inputs():
    needed = [p / "repro" if p.name == "src" else p for p in PYTHONPATH]
    needed.append(ROOT / "tests" / "differential" / "goldens_seed.json")
    return [str(p) for p in needed if not p.exists()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = _missing_inputs()
    if missing:
        print(f"papibench: run from a repository checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(p) for p in PYTHONPATH]

    if args.trace:
        attempted, failures, metrics, report = per_layer(args.workload, args.seed)
    else:
        out, metrics, report = end_to_end(args.workload, args.seed, args.seconds)
        attempted, failures = out.attempted, out.failures

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for key, value in report.items():
        print(f"{args.workload} {key} = {value}")
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

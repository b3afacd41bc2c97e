"""Seeded benchmark of the bottleneck-trees solvers.

    python3 perfbench/run.py --workload plane-2d --seed 1 --seconds 30 --trace 0

Runs one workload (plane-2d, chain-1d or certify-small; see workloads.py and
README.md) in this process as a closed loop: each operation starts only when
the previous one has returned.  Every answer is checked outside the timed
regions.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (environment, result digest, percentiles, raw timings, failures).

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
package's functions are wrapped from outside and the metrics are per-layer
self times and call counts, per cycle of operations; the spans are written
to perfbench/results/.  The package is imported from src/ of the checkout
that holds this file, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("plane-2d", "chain-1d", "certify-small")
SETUP_REPEATS = 3
ERRORS_SHOWN = 20

# Timings are reported in reference seconds: wall time scaled by
# CAL_SECONDS / (calibration probe time), the probe being measured next to
# each timed region.  The machine's speed drifts by tens of percent within a
# minute on a shared host; the probe drifts with it, the ratio does not.
# CAL_SECONDS is the probe's time on a 2.1 GHz x86-64 core under Python 3.11.
CAL_SECONDS = 0.006
PROBE_EVERY_S = 0.5

# Metric name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "dbst_solve_s": "s",
    "gbst_solve_s": "s",
    "pbst_solve_s": "s",
    "certify_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SOLVERS = ("dbst", "gbst", "pbst")


def per_layer_units() -> dict[str, str]:
    import tracer

    units = {}
    for name, *_ in tracer.SPANNED:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name, *_ in tracer.COUNTED:
        units[f"{name}.calls"] = "count"
    units["dbst.shortcut.count"] = "count"
    units["gbst.burned.count"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def probe() -> float:
    """Seconds this machine needs right now for a fixed pure-Python task.

    The task (sort pairwise distances, walk them through a dict) resembles
    the solvers' inner loops and uses none of the package.  The median of
    five repeats discards single hiccups.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        rng = random.Random(0)
        pts = [(rng.random(), rng.random()) for _ in range(150)]
        ranked = sorted((math.dist(pts[i], pts[j]), i, j) for i in range(150) for j in range(i))
        parent: dict[int, int] = {}
        for _, i, j in ranked:
            parent[i] = parent.get(j, j)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load_package() -> float:
    """Import the package from this checkout's src/; returns the seconds taken."""
    init = SRC / "bottleneck_trees" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout with src/")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bottleneck_trees
    import workloads  # noqa: F401  (imports the rest of the package)

    if Path(bottleneck_trees.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported {bottleneck_trees.__file__}, not {init}")
    return time.perf_counter() - start


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "seed": seed,
        "note": "shared machine: other tenants compete for the cores",
    }


@dataclass
class Loop:
    """What the closed loop saw: outcomes, probes, and the failure tally."""

    probes: list[float] = field(default_factory=list)
    # (operation label, index of the probe taken before it, outcome)
    samples: list = field(default_factory=list)
    first: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    errors: list[str] = field(default_factory=list)

    def scale(self, probe_index: int, after: bool = False) -> float:
        """Reference seconds per wall second for a sample taken after probe
        `probe_index`.  A solve spans the gap to the next probe, so it takes
        the mean of both; the lifts end just before the next probe, so
        `after` takes that probe alone."""
        nearby = self.probes[probe_index + after : probe_index + 2]
        return CAL_SECONDS / statistics.fmean(nearby)


def measure(ops, seconds: float, trace: bool, untraced) -> Loop:
    import workloads

    loop = Loop(probes=[probe()])
    probed = start = time.perf_counter()
    while True:
        for op in ops:
            now = time.perf_counter()
            if loop.cycles and not trace and now - start >= seconds:
                break
            if now - probed >= PROBE_EVERY_S:
                loop.probes.append(probe())
                probed = time.perf_counter()
            loop.attempted += 1
            try:
                outcome = workloads.run(op, untraced)
            except Exception as exc:  # a raised error is a failed operation
                loop.failed += 1
                loop.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            violations = list(outcome.violations)
            if loop.first.setdefault(op.label, outcome).digest != outcome.digest:
                violations.append("answer differs from this operation's first answer")
            if violations:
                loop.failed += 1
                loop.errors.extend(f"{op.label}: {v}" for v in violations)
            loop.samples.append((op.label, len(loop.probes) - 1, outcome))
        else:
            loop.cycles += 1
            if time.perf_counter() - start < seconds:
                continue
        break
    loop.probes.append(probe())
    return loop


def timing(samples_by_op: dict[str, list[float]]) -> tuple[float, dict]:
    """Median over operations of each operation's median, plus the raw tail.

    Taking each operation's median first keeps the value from jumping when a
    run happens to end after a different operation of the cycle.
    """
    value = statistics.median(statistics.median(s) for s in samples_by_op.values())
    raw = sorted(x for s in samples_by_op.values() for x in s)
    detail = {"median": value, "samples": len(raw), "percentile": None, "percentile_s": None}
    # The highest whole percentile with at least ten samples above it.
    for p in range(99, 0, -1):
        rank = math.ceil(p * len(raw) / 100)
        if len(raw) - rank >= 10:
            detail["percentile"], detail["percentile_s"] = p, raw[rank - 1]
            break
    return value, detail


def end_to_end(loop: Loop, setup_s: float, details: dict) -> dict[str, float]:
    metrics = {"setup_s": setup_s}
    solve: dict[str, dict[str, list[float]]] = {s: {} for s in SOLVERS}
    lift: dict[str, list[float]] = {}
    raw = {s: [] for s in ("dbst_solve_s", "gbst_solve_s", "pbst_solve_s", "tour_lift_s")}
    pipeline_s = 0.0
    for label, index, outcome in loop.samples:
        scale = loop.scale(index)
        pipeline_s += outcome.pipeline_s * scale
        lift.setdefault(label, []).append(outcome.lift_s * loop.scale(index, after=True))
        raw["tour_lift_s"].append(outcome.lift_s)
        if outcome.solve_s is not None:
            solve[outcome.solver].setdefault(label, []).append(outcome.solve_s * scale)
            raw[f"{outcome.solver}_solve_s"].append(outcome.solve_s)
    for solver in SOLVERS:
        if solve[solver]:
            metrics[f"{solver}_solve_s"], details[f"{solver}_solve_s"] = timing(solve[solver])
    # A lift takes milliseconds right after a solve that churned 100+ MB; on
    # a shared host one chain-1d lift sample spreads by a quarter of the
    # median even after calibration, so the lift time is a detail, not a
    # metric with a bound.
    if lift:
        _, details["tour_lift_s"] = timing(lift)
    details["wall_median_s"] = {k: statistics.median(v) for k, v in raw.items() if v}
    if pipeline_s > 0:
        metrics["certify_per_s"] = len(loop.samples) / pipeline_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def quality(loop: Loop) -> dict[str, float]:
    """Max achieved / reference per solver, and max tour / forest bottleneck.

    These are fixed by the seed's instances, not measured, so they are
    details rather than metrics: across seeds their quartile spread reaches
    a quarter of the median, which no run length can narrow.
    """
    firsts = list(loop.first.values())
    out = {}
    for solver in SOLVERS:
        ratios = [o.ratio for o in firsts if o.solver == solver]
        if ratios:
            out[f"{solver}_ratio_max"] = max(ratios)
    if firsts:
        out["tour_ratio_max"] = max(o.tour_ratio for o in firsts)
    return out


def per_layer(loop: Loop, recorder, wrapper_costs: tuple[float, float]) -> dict[str, float]:
    self_s, calls = recorder.self_times()
    cycles = max(loop.cycles, 1)
    metrics = {}
    for metric in per_layer_units():
        base, _, kind = metric.rpartition(".")
        if kind == "self_s" and base in self_s:
            metrics[metric] = self_s[base] / cycles
        elif kind == "calls":
            metrics[metric] = calls.get(base, 0) / cycles
    firsts = list(loop.first.values())
    metrics["dbst.shortcut.count"] = sum(o.shortcut for o in firsts)
    metrics["gbst.burned.count"] = sum(o.burned for o in firsts)
    span_cost, count_cost = wrapper_costs
    counts = sum(cell[0] for cell in recorder.counts.values())
    metrics["trace.overhead_s"] = (len(recorder.spans) * span_cost + counts * count_cost) / cycles
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 import_s: float = 0.0) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    import tracer
    import workloads

    probes = [probe()]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # let the previous repeat's inputs go first
        start = time.perf_counter()
        inputs = workloads.setup(name, seed, tiny)
        elapsed = time.perf_counter() - start
        probes.append(probe())
        setup_times.append(elapsed * CAL_SECONDS / statistics.fmean(probes[-2:]))
    setup_s = import_s * CAL_SECONDS / probes[0] + statistics.median(setup_times)
    ops = workloads.operations(name, inputs)

    recorder = tracer.Tracer()
    costs = (0.0, 0.0)
    if trace:
        costs = tracer.wrapper_costs()
        recorder.bind()
        recorder.install()
    try:
        loop = measure(ops, seconds, trace, recorder.paused if trace else contextlib.nullcontext)
    finally:
        recorder.uninstall()

    complete = len(loop.first) == len(ops)
    canonical = json.dumps([loop.first[op.label].record for op in ops if op.label in loop.first],
                           sort_keys=True)
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "result_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "cycles": loop.cycles,
        "operations_completed": len(loop.samples),
        "failed_frac": loop.failed / loop.attempted if loop.attempted else 1.0,
        "quality": quality(loop),
        "failures": loop.errors[:ERRORS_SHOWN],
        "import_wall_s": import_s,
        "setup_repeats_s": setup_times,
        "probe_s": {"median": statistics.median(probes + loop.probes),
                    "min": min(probes + loop.probes), "max": max(probes + loop.probes)},
    }
    if trace:
        metrics, units = per_layer(loop, recorder, costs), per_layer_units()
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"spans-{name}-seed{seed}.json"
        recorder.write(path)
        details["spans"] = len(recorder.spans)
        details["spans_file"] = str(path.relative_to(HERE.parent))
    else:
        metrics, units = end_to_end(loop, setup_s, details), END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        details["failures"].append(f"metrics without a value: {', '.join(missing)}")
    result = {
        "correct": loop.failed == 0 and complete and not missing,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units if m in metrics},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke tests")
    args = parser.parse_args(argv)
    import_s = load_package()
    result, details = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, import_s
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

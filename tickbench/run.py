"""Per-tick decision-latency benchmark for the MoVR simulator.

Usage (from the repository root)::

    python3 tickbench/run.py --workload roomscale --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed:
it repeats whole sessions (fresh set-up, then every tick of the seeded
inputs) while one more is expected to end within ``--seconds``.  ``--trace 1``
alternates untraced sessions with sessions run under the outside-in
layer wrappers (:mod:`layertrace`) and reports the per-layer metrics.

Every session of one seed must produce the same decision digest and
the same simulated QoE; any mismatch or failed tick makes the result
``"correct": false`` and the exit code 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: A timed run makes at least this many sessions of the seeded inputs:
#: the determinism check compares them, and each tick's time is the
#: median over them.  A traced run makes at least one untraced and one
#: traced session.
MIN_SESSIONS = 3

#: Stand-alone set-ups timed before each session, on top of the one
#: the session makes; ``setup_s`` is the median of all of them.
SETUPS_PER_SESSION = 4

#: Telemetry counters reported by the traced run, as counted by the
#: program's own instrumentation in one session.
COUNTERS = (
    "scene.tracer_calls",
    "kernel.batches",
    "kernel.angles",
    "link.sweeps",
    "multiuser.contention",
)

Metrics = Dict[str, Tuple[float, str]]


def _percentile(values: Sequence[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _consistency(results) -> List[str]:
    """Failures and cross-session mismatches, as messages."""
    problems = []
    for r in results:
        problems.extend(r.failures[:5])
    reference = results[0].outcome()
    for i, r in enumerate(results[1:], start=1):
        if r.outcome() != reference:
            problems.append(
                f"session {i} differs from session 0: {r.outcome()} != {reference}"
            )
    return problems


def _repeat(run_once, seconds: float, minimum: int) -> list:
    """Call ``run_once`` at least ``minimum`` times, and again while
    one more call is expected to end within ``seconds``."""
    done = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(done) >= minimum and elapsed * (len(done) + 1) / len(done) > seconds:
            return done
        done.append(run_once())


def typical_ticks(results) -> List[float]:
    """Each tick's median time over the sessions.

    Every session replays the same inputs, so tick ``k`` is the same
    work in each; the median drops the replays that a burst of load
    from other tenants of the host happened to hit.
    """
    return [statistics.median(column) for column in zip(*(r.tick_s for r in results))]


def measure_timed(inputs, seconds: float) -> Tuple[Metrics, list, List[str]]:
    """End-to-end metrics from untraced sessions."""
    from hostspeed import HostSpeed
    from workloads import TICK_S, build, run_session

    speed = HostSpeed()
    setups = []

    def once():
        for _ in range(SETUPS_PER_SESSION):
            scale = speed.factor()
            start = time.perf_counter()
            build(inputs)
            setups.append((time.perf_counter() - start) * scale)
        return run_session(inputs, speed)

    results = _repeat(once, seconds, MIN_SESSIONS)
    setups.extend(r.setup_s for r in results)
    ticks = typical_ticks(results)
    wall = [statistics.median(c) for c in zip(*(r.tick_wall_s for r in results))]
    first = results[0]
    metrics: Metrics = {
        "tick_p50_ms": (_percentile(ticks, 50) * 1e3, "ms"),
        "tick_p95_ms": (_percentile(ticks, 95) * 1e3, "ms"),
        "realtime_x": (len(ticks) * TICK_S / sum(ticks), "x"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "sim_rate_mean_mbps": (first.sim_rate_mean_mbps, "Mbps"),
    }
    attempted = sum(r.attempted for r in results)
    notes = [
        f"sessions={len(results)} ticks/session={len(ticks)} setups={len(setups)} "
        f"digest={first.digest[:16]}",
        f"samples: tick_p50_ms, tick_p95_ms, realtime_x over {len(ticks)} ticks, each "
        f"the median of {len(results)} replays; "
        f"setup_s median of {len(setups)} set-ups (reference-host time, see hostspeed.py)",
        f"wall clock (same per-tick medians): tick p50 {_percentile(wall, 50) * 1e3:.4g} ms, "
        f"p95 {_percentile(wall, 95) * 1e3:.4g} ms, "
        f"realtime {len(wall) * TICK_S / sum(wall):.4g}x",
        f"failed_frac={sum(r.failed for r in results) / attempted:.6g} "
        f"sim_frame_loss_frac={first.sim_frame_loss_frac:.6g} (deterministic)",
    ]
    return metrics, results, notes


def measure_traced(inputs, seconds: float) -> Tuple[Metrics, list, List[str]]:
    """Per-layer metrics: untraced and traced sessions, alternating.

    Exact counts (layer entries, telemetry counters) are the same in
    every session and are taken from the first traced one.
    """
    from hostspeed import HostSpeed
    from layertrace import OTHER, LayerTrace
    from workloads import run_session

    speed = HostSpeed()
    trace = LayerTrace()
    plain, traced = [], []
    self_wall = {layer: 0.0 for layer in trace.layers}
    self_ref = dict(self_wall)

    def once():
        plain.append(run_session(inputs, speed))
        result = run_session(inputs, speed, trace=trace)
        traced.append(result)
        scale = sum(result.tick_s) / sum(result.tick_wall_s)
        for layer in self_wall:
            self_wall[layer] += trace.self_s[layer]
            self_ref[layer] += trace.self_s[layer] * scale
        return dict(trace.calls)

    calls = _repeat(once, seconds, 1)[0]
    registry = traced[0].scope.registry
    counters = {name: registry.counter_value(name) for name in COUNTERS}
    hits = registry.counter_value("scene.cache.hits")
    lookups = hits + registry.counter_value("scene.cache.misses")
    n = sum(len(r.tick_s) for r in traced)
    wall_total = sum(sum(r.tick_wall_s) for r in traced)
    metrics: Metrics = {}
    for layer in trace.layers:
        metrics[f"{layer}.calls"] = (float(calls.get(layer, 0)), "count")
        metrics[f"{layer}.self_ms"] = (self_ref[layer] * 1e3 / n, "ms")
        metrics[f"{layer}.share"] = (self_wall[layer] / wall_total, "frac")
    metrics["sim.cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "frac")
    batches = counters["kernel.batches"]
    metrics["phy.antenna.angles_per_batch"] = (
        counters["kernel.angles"] / batches if batches else 0.0, "angles")
    for name, value in counters.items():
        metrics[name] = (float(value), "count")
    mean_traced = sum(sum(r.tick_s) for r in traced) / n
    mean_plain = sum(sum(r.tick_s) for r in plain) / sum(len(r.tick_s) for r in plain)
    metrics["trace.overhead_frac"] = (mean_traced / mean_plain - 1.0, "frac")
    named = sum(v for layer, v in self_wall.items() if layer != OTHER)
    metrics["trace.coverage_frac"] = (named / wall_total, "frac")
    metrics["sim.frame_loss_frac"] = (traced[0].sim_frame_loss_frac, "frac")
    notes = [
        f"sessions={len(plain)} untraced + {len(traced)} traced, "
        f"ticks/session={len(traced[0].tick_s)} digest={traced[0].digest[:16]}",
        f"samples: layer times over {n} traced ticks (self_ms in reference-host ms)",
    ]
    return metrics, plain + traced, notes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    inputs = make_inputs(args.workload, args.seed)
    measure = measure_traced if args.trace else measure_timed
    metrics, results, notes = measure(inputs, args.seconds)
    problems = _consistency(results)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>10} {name:<36} {value:>14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: run any experiment by its DESIGN.md id.

Usage::

    python -m repro list
    python -m repro run fig9 --seed 7
    python -m repro run all --seed 7
    python -m repro run fig9 --trace trace.json --metrics metrics.json

Each experiment prints its regenerated table, notes, and the shape
checks against the paper; the process exits non-zero if any check
fails, so ``python -m repro run all`` doubles as a reproduction audit
in CI.

Telemetry flags (see docs/observability.md):

``--metrics PATH``
    Write the run's metric snapshot (counters, gauges, histogram
    quantiles) as JSON.
``--trace PATH``
    Write the run's span tree in Chrome trace-event format — load it
    at ``chrome://tracing`` or https://ui.perfetto.dev.
``--events``
    Print the full control-plane event log instead of the first few
    events per experiment.
``--max-events N``
    Print at most N events per experiment (overrides the default 8).
``--slo``
    Show the per-window breakdown under each SLO verdict.
``--timeseries PATH``
    Write every recorded time series (decimated points + exact
    aggregates) as JSON.

``python -m repro bench`` runs the perf-regression suite and appends
a ``BENCH_<n>.json`` trajectory entry (see docs/observability.md).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import telemetry
from repro.experiments import ALL_EXPERIMENTS


def _non_negative_int(text: str) -> int:
    """argparse type for counts where 0 is meaningful and < 0 is not."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "MoVR reproduction harness (Abari et al., HotNets 2016): "
            "regenerate the paper's figures and the extension experiments."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiment ids")

    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help="experiment id from DESIGN.md (e.g. fig9), or 'all'",
    )
    run.add_argument("--seed", type=int, default=2016, help="experiment seed")
    run.add_argument(
        "--max-rows",
        type=_non_negative_int,
        default=20,
        help="limit printed table rows (default 20)",
    )
    run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the report(s) as JSON; for 'all', PATH gets a "
        "per-experiment suffix",
    )
    run.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the run's metric snapshot (counters + histogram "
        "quantiles) as JSON",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the run's spans as a Chrome trace-event JSON "
        "(chrome://tracing)",
    )
    run.add_argument(
        "--events",
        action="store_true",
        help="print every control-plane event (default: first few per "
        "experiment)",
    )
    run.add_argument(
        "--max-events",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="print at most N events per experiment (ignored with --events)",
    )
    run.add_argument(
        "--slo",
        action="store_true",
        help="show the per-window breakdown under each SLO verdict",
    )
    run.add_argument(
        "--timeseries",
        metavar="PATH",
        default=None,
        help="write every recorded time series (points + aggregates) as JSON",
    )

    bench = subparsers.add_parser(
        "bench",
        help="run the perf suite and append a BENCH_<n>.json trajectory entry",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads, fewer rounds (CI-friendly)",
    )
    bench.add_argument(
        "--rounds",
        type=int,
        default=None,
        metavar="K",
        help="timing rounds per target (min-of-K; default 3, 2 with --quick)",
    )
    bench.add_argument(
        "--only",
        metavar="NAMES",
        default=None,
        help="comma-separated substrings selecting targets (e.g. fig7,e2e)",
    )
    bench.add_argument(
        "--dir",
        metavar="PATH",
        default=".",
        help="trajectory directory holding BENCH_<n>.json files (default: .)",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="min-to-min regression threshold in percent (default 20)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any comparable benchmark regressed past "
        "the threshold",
    )
    return parser


def _per_experiment_path(path: str, experiment_id: str) -> str:
    """Suffix ``path``'s basename with the experiment id.

    Only the basename is split on ``.`` — a dot in a parent directory
    (``out.d/report``) must not be mistaken for an extension.
    """
    head, tail = os.path.split(path)
    stem, dot, ext = tail.rpartition(".")
    if dot:
        tail = f"{stem}-{experiment_id}.{ext}"
    else:
        tail = f"{tail}-{experiment_id}"
    return os.path.join(head, tail) if head else tail


def _run_one(
    experiment_id: str,
    seed: int,
    max_rows: int,
    json_path: Optional[str] = None,
    show_all_events: bool = False,
    max_events: Optional[int] = None,
    slo_detail: bool = False,
) -> bool:
    fn = ALL_EXPERIMENTS[experiment_id]
    # Deterministic experiments take no seed.
    takes_seed = "seed" in inspect.signature(fn).parameters
    report = fn(**({"seed": seed} if takes_seed else {}))
    if show_all_events:
        report.max_events = None
        report.print_report(max_rows=max_rows, max_events=None, slo_detail=slo_detail)
    elif max_events is not None:
        report.max_events = max_events
        report.print_report(max_rows=max_rows, slo_detail=slo_detail)
    else:
        report.print_report(max_rows=max_rows, slo_detail=slo_detail)
    print()
    if json_path is not None:
        report.save_json(json_path)
    return report.all_checks_pass


def _main_bench(args: argparse.Namespace) -> int:
    from repro.bench import DEFAULT_THRESHOLD_PCT, run_bench

    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD_PCT
    try:
        return run_bench(
            Path(args.dir),
            quick=args.quick,
            rounds=args.rounds,
            only=args.only,
            threshold_pct=threshold,
            check=args.check,
        )
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in ALL_EXPERIMENTS:
            print(experiment_id)
        return 0
    if args.command == "bench":
        return _main_bench(args)
    if args.experiment == "all":
        targets = list(ALL_EXPERIMENTS)
    elif args.experiment in ALL_EXPERIMENTS:
        targets = [args.experiment]
    else:
        known = ", ".join(ALL_EXPERIMENTS)
        print(
            f"unknown experiment {args.experiment!r}; known ids: {known}",
            file=sys.stderr,
        )
        return 2
    all_ok = True
    # One CLI-level scope around every experiment: per-experiment
    # scopes fold into it on exit, so --metrics/--trace cover the
    # whole invocation even for 'run all'.
    with telemetry.scope("cli") as sc:
        for experiment_id in targets:
            json_path = args.json
            if json_path is not None and len(targets) > 1:
                json_path = _per_experiment_path(json_path, experiment_id)
            ok = _run_one(
                experiment_id,
                args.seed,
                args.max_rows,
                json_path,
                show_all_events=args.events,
                max_events=args.max_events,
                slo_detail=args.slo,
            )
            all_ok = all_ok and ok
    if args.metrics is not None:
        with open(args.metrics, "w") as handle:
            json.dump(sc.registry.snapshot(), handle, indent=2)
        print(f"metrics written to {args.metrics}")
    if args.timeseries is not None:
        with open(args.timeseries, "w") as handle:
            json.dump(sc.registry.series_export(), handle, indent=2)
        print(f"time series written to {args.timeseries}")
    if args.trace is not None:
        with open(args.trace, "w") as handle:
            json.dump(telemetry.chrome_trace_json(sc.tracer.roots), handle, indent=2)
        print(f"trace written to {args.trace}")
    if not all_ok:
        print("one or more shape checks FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The curated benchmark suite behind ``python -m repro bench``.

Each target regenerates one paper artifact (or extension) with pinned
parameters, so the trajectory runner (:mod:`repro.bench.runner`) can
time it min-of-k and snapshot its telemetry.  This is the only
experiment-level timing harness; ``tickbench/`` times single ticks.
Quick mode shrinks the workloads that dominate wall-clock time; quick
and full entries are never diffed against each other (the workloads
differ), which the trajectory layer enforces via the entry's ``quick``
flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.experiments import (
    run_ablation_search,
    run_e2e_session,
    run_fault_recovery,
    run_fig3,
    run_fig7,
    run_fig8,
    run_fig9,
    run_multi_user,
)


@dataclass(frozen=True)
class BenchTarget:
    """One named, deterministic benchmark workload."""

    name: str
    description: str
    fn: Callable[..., object]
    kwargs: Mapping[str, object] = field(default_factory=dict)
    #: Overrides applied in ``--quick`` mode (merged over ``kwargs``).
    quick_kwargs: Mapping[str, object] = field(default_factory=dict)
    #: Whether the target runs at all in ``--quick`` mode.
    in_quick: bool = True

    def call_kwargs(self, quick: bool) -> Dict[str, object]:
        merged = dict(self.kwargs)
        if quick:
            merged.update(self.quick_kwargs)
        return merged

    def run(self, quick: bool) -> object:
        return self.fn(**self.call_kwargs(quick))


#: The default suite, in run order.
BENCH_TARGETS: Tuple[BenchTarget, ...] = (
    BenchTarget(
        name="fig7-leakage",
        description="Fig. 7 leakage vs TX angle sweep",
        fn=run_fig7,
    ),
    BenchTarget(
        name="fig8-alignment",
        description="Fig. 8 backscatter angle estimation",
        fn=run_fig8,
        kwargs={"num_runs": 100, "seed": 2016},
        quick_kwargs={"num_runs": 20},
    ),
    BenchTarget(
        name="ablation-search",
        description="exhaustive vs hierarchical vs pose-assisted search",
        fn=run_ablation_search,
        kwargs={"seed": 2016},
    ),
    BenchTarget(
        name="fig9-snr-cdf",
        description="Fig. 9 SNR-improvement CDF (MoVR vs baselines)",
        fn=run_fig9,
        kwargs={"seed": 2016},
    ),
    BenchTarget(
        name="fig3-blockage",
        description="Fig. 3 blockage SNR/rate bars",
        fn=run_fig3,
        kwargs={"seed": 2016},
        in_quick=False,
    ),
    BenchTarget(
        name="fault-recovery",
        description="BLE fault injection and recovery sweep",
        fn=run_fault_recovery,
        kwargs={"seed": 2016},
    ),
    BenchTarget(
        name="multi-user",
        description="N-headset serving sweep (contention, shared airtime)",
        fn=run_multi_user,
        kwargs={"seed": 2016},
        quick_kwargs={"user_counts": (1, 2, 4), "duration_s": 1.0},
    ),
    BenchTarget(
        name="e2e-session",
        description="end-to-end VR session (DES, with/without MoVR)",
        fn=run_e2e_session,
        kwargs={"duration_s": 6.0, "seed": 2016},
        quick_kwargs={"duration_s": 3.0},
    ),
)


def select_targets(
    quick: bool = False,
    only: Optional[str] = None,
    targets: Optional[Tuple[BenchTarget, ...]] = None,
) -> Tuple[BenchTarget, ...]:
    """Filter the suite: quick-mode exclusions and ``--only`` substrings.

    ``only`` is a comma-separated list of substrings matched against
    target names.  Raises ``ValueError`` when the filter matches
    nothing (a typo should not silently benchmark zero targets).
    """
    pool = BENCH_TARGETS if targets is None else targets
    selected = [t for t in pool if t.in_quick or not quick]
    if only:
        needles = [n.strip() for n in only.split(",") if n.strip()]
        selected = [t for t in selected if any(n in t.name for n in needles)]
    if not selected:
        raise ValueError(
            f"no benchmark targets match only={only!r} "
            f"(known: {', '.join(t.name for t in pool)})"
        )
    return tuple(selected)


__all__ = ["BenchTarget", "BENCH_TARGETS", "select_targets"]

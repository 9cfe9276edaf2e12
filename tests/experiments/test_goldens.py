"""Golden digests: every registered experiment's report, pinned.

Each experiment in ``ALL_EXPERIMENTS`` runs once at seed 7 (when its
runner takes a seed) with the small config below, and each section of
its report that is a pure function of the inputs -- rows, checks,
notes, events and SLO verdicts -- is hashed.  ``metrics`` and ``spans``
hold wall-clock timings and are left out.  Floats are rounded to
:data:`SIGNIFICANT_DIGITS` before hashing, so last-digit differences
between NumPy builds do not move a digest.

A change that moves a digest on purpose updates ``goldens.json`` in the
same commit and says why in CHANGES.md.  Regenerate it with::

    PYTHONPATH=src python tests/experiments/test_goldens.py > tests/experiments/goldens.json
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments import ALL_EXPERIMENTS

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

SEED = 7

SIGNIFICANT_DIGITS = 9

#: The report sections a digest covers.
SECTIONS = ("rows", "checks", "notes", "events", "slos")

#: Small per-experiment configs; experiments not listed run at their
#: defaults.
CONFIGS: Dict[str, Dict[str, object]] = {
    "fig3": {"num_placements": 4},
    "fig8": {"num_runs": 5},
    "fig9": {"num_runs": 4},
    "ext-e2e": {"duration_s": 2.0},
    "ablation-handoff": {"duration_s": 2.0},
    "ext-multi-user": {"user_counts": (1, 2), "duration_s": 0.5},
    "ablation-search": {"num_runs": 3},
    "comparison": {"num_runs": 3},
}


def _canonical(value: object) -> object:
    """``value`` with floats rounded and containers made JSON-ready."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return str(value)
        return float(f"{value:.{SIGNIFICANT_DIGITS}g}")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if hasattr(value, "item"):  # NumPy scalar
        return _canonical(value.item())
    return str(value)


def run_experiment(experiment_id: str):
    runner = ALL_EXPERIMENTS[experiment_id]
    kwargs = dict(CONFIGS.get(experiment_id, {}))
    if "seed" in inspect.signature(runner).parameters:
        kwargs["seed"] = SEED
    return runner(**kwargs)


def section_digests(experiment_id: str) -> Dict[str, str]:
    """sha256 of each pinned section of the experiment's report."""
    report = run_experiment(experiment_id).to_dict()
    return {
        section: hashlib.sha256(
            json.dumps(_canonical(report[section]), sort_keys=True).encode()
        ).hexdigest()
        for section in SECTIONS
    }


def _goldens() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDENS_PATH.read_text())


def test_every_experiment_has_a_golden():
    assert set(_goldens()) == set(ALL_EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_report_matches_golden(experiment_id):
    expected = _goldens()[experiment_id]
    actual = section_digests(experiment_id)
    differing = [s for s in SECTIONS if actual[s] != expected.get(s)]
    assert not differing, (
        f"{experiment_id}: report sections {', '.join(differing)} differ from "
        "goldens.json"
    )


if __name__ == "__main__":
    digests = {eid: section_digests(eid) for eid in sorted(ALL_EXPERIMENTS)}
    print(json.dumps(digests, indent=2))

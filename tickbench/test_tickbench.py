"""Self-tests of the decision-tick benchmark, a few ticks per workload.

Run from the repository root::

    python3 -m pytest -q tickbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
import layertrace  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layertrace import LayerTrace  # noqa: E402
from repro.core.controller import LinkDecision, MoVRSystem  # noqa: E402
from repro.core.multiuser import MultiUserSystem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = list(workloads.WORKLOADS)
TICKS = 4


@pytest.fixture(autouse=True)
def short_sessions(monkeypatch):
    """Every workload cut to a few ticks in two segments."""
    monkeypatch.setattr(workloads, "WORKLOADS", {
        name: dataclasses.replace(spec, ticks=TICKS, segments=2)
        for name, spec in workloads.WORKLOADS.items()
    })


def _run(workload: str, trace: int, seed: int = 3):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            [
                "--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                "--trace", str(trace),
            ]
        )
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOAD_NAMES


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, key):
    code, result, table = _run(workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    sessions = 2 if trace else run.MIN_SESSIONS  # traced: one untraced + one traced
    assert result["attempted"] == sessions * TICKS
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert any(name in line and line.endswith(metric["unit"]) for line in table)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_exact_counters_repeat_for_one_seed(workload):
    first, second = _run(workload, 1)[1], _run(workload, 1)[1]
    exact = [
        name
        for name in first["metrics"]
        if name.endswith(".calls")
        or name in run.COUNTERS
        or name in ("sim.cache.hit_ratio", "phy.antenna.angles_per_batch", "sim.frame_loss_frac")
    ]
    assert len(exact) == 13 + len(run.COUNTERS) + 3
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    inputs = workloads.make_inputs(workload, 3)
    sessions = [workloads.run_session(inputs, HostSpeed()) for _ in range(2)]
    assert sessions[0].outcome() == sessions[1].outcome()


def test_layer_trace_changes_no_decision_and_uninstalls():
    decide = MoVRSystem.__dict__["decide"]
    inputs = workloads.make_inputs("crowd", 5)
    plain = workloads.run_session(inputs, HostSpeed())
    trace = LayerTrace()
    traced = workloads.run_session(inputs, HostSpeed(), trace=trace)
    assert traced.outcome() == plain.outcome()
    # Only the timed steps count: not the untimed link-state resets at
    # the two segment starts, which are core.multiuser calls too.
    assert trace.calls["core.multiuser"] == TICKS
    assert trace.calls["geometry.raytrace"] > 0
    assert trace.calls[layertrace.OTHER] > 0
    assert MoVRSystem.__dict__["decide"] is decide


def test_each_segment_starts_on_fresh_link_state(monkeypatch):
    resets = []
    reset = MoVRSystem.reset_link_state
    monkeypatch.setattr(
        MoVRSystem, "reset_link_state", lambda self: resets.append(1) or reset(self)
    )
    inputs = workloads.make_inputs("roomscale", 3)
    assert inputs.segment_starts == {0, TICKS // 2}
    workloads.run_session(inputs, HostSpeed())
    assert len(resets) == 2


def _invalid_on_call(original, bad_call: int):
    calls = []

    def decide(self, *args, **kwargs):
        calls.append(1)
        decision = original(self, *args, **kwargs)
        if len(calls) == bad_call:
            return LinkDecision(mode="teleport", snr_db=decision.snr_db, rate_mbps=0.0)
        return decision

    return decide


def test_invalid_decision_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(MoVRSystem, "decide", _invalid_on_call(MoVRSystem.decide, 2))
    result = workloads.run_session(workloads.make_inputs("seated", 3), HostSpeed())
    assert (result.attempted, result.failed) == (TICKS, 1)
    assert "teleport" in result.failures[0]
    assert len(result.tick_s) == TICKS - 1


def test_failed_tick_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(MoVRSystem, "decide", _invalid_on_call(MoVRSystem.decide, 2))
    code, result, _ = _run("roomscale", 0)
    assert code == 1 and not result["correct"]
    assert result["failed"] == 1  # only the first session's second tick
    assert result["attempted"] == run.MIN_SESSIONS * TICKS


def test_raising_or_short_crowd_tick_is_counted(monkeypatch):
    step = MultiUserSystem.step
    calls = []

    def flaky(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("tracer blew up")
        tick = step(self, *args, **kwargs)
        if len(calls) == 2:
            return type(tick)(t_s=tick.t_s, decisions=tick.decisions[:-1], window=tick.window)
        return tick

    monkeypatch.setattr(MultiUserSystem, "step", flaky)
    result = workloads.run_session(workloads.make_inputs("crowd", 3), HostSpeed())
    assert (result.attempted, result.failed) == (TICKS, 2)
    assert "RuntimeError" in result.failures[0]
    assert "3 decisions for 4 users" in result.failures[1]


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "roomscale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

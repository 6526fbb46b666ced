"""Tests of the benchmark itself: span arithmetic, the contract, smoke runs."""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import hostspeed, loadgen, spans, workloads
from perfbench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(start: float, end: float, **extra: object) -> dict:
    return {"name": "s", "id": f"0:{start}", "parent": None, "start": start, "end": end, **extra}


# -- span arithmetic ---------------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    parent = _span(0.0, 10.0)
    children = [_span(1.0, 3.0), _span(2.0, 4.0), _span(6.0, 7.0), _span(9.0, 12.0),
                _span(20.0, 21.0)]
    # covered: [1, 4] + [6, 7] + [9, 10] = 3 + 1 + 1
    assert spans.covered(0.0, 10.0, [(c["start"], c["end"]) for c in children]) == 5.0
    assert spans.self_time(parent, children) == 5.0
    assert spans.self_time(parent, []) == 10.0
    assert spans.self_time(parent, [_span(-1.0, 11.0)]) == 0.0


def test_rows_reads_split_recovers_the_per_row_and_per_read_costs():
    rng = np.random.default_rng(0)
    rows = rng.integers(1, 64, size=200)
    reads = rows * rng.integers(1, 33, size=200)
    seconds = 40e-6 * rows + 150e-6 * reads
    per_row, per_read = spans.rows_reads_split(rows, reads, seconds)
    assert per_row == pytest.approx(40e-6)
    assert per_read == pytest.approx(150e-6)
    with pytest.raises(ValueError):
        spans.rows_reads_split([1, 2, 3], [2, 4, 6], [1.0, 2.0, 3.0])


def test_row_ids_survive_a_json_round_trip_and_tell_rows_apart():
    rows = np.random.default_rng(1).normal(size=(3, 16))
    echoed = np.asarray(json.loads(json.dumps(rows[1].tolist())), dtype=float)
    assert spans.row_id(echoed) == spans.row_ids(rows)[1]
    assert len(set(spans.row_ids(rows))) == 3


def test_percentile_interpolates_linearly():
    assert loadgen.percentile([], 50) == 0.0
    assert loadgen.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert loadgen.percentile([0.0, 10.0], 99) == pytest.approx(9.9)


# -- span recorder -----------------------------------------------------------------------------
class _Target:
    def outer(self, value: int) -> int:
        return self.inner(value) + 1

    def inner(self, value: int) -> int:
        if value < 0:
            raise ValueError("negative")
        return value

    async def coro(self, value: int) -> int:
        return self.inner(value)


def test_recorder_links_nested_calls_records_errors_and_unpatches():
    recorder = SpanRecorder()
    originals = dict(_Target.__dict__)
    recorder.patch(_Target, "outer", "t.outer")
    recorder.patch(_Target, "inner", "t.inner", describe=lambda self, value: {"value": value})
    recorder.patch(_Target, "coro", "t.coro")
    target = _Target()
    assert target.outer(2) == 3
    assert asyncio.run(target.coro(5)) == 5
    with pytest.raises(ValueError):
        target.inner(-1)
    recorder.unpatch()
    assert all(_Target.__dict__[name] is originals[name] for name in ("outer", "inner", "coro"))
    by = {(span["name"], span.get("value")): span for span in recorder.spans}
    outer, inner = by[("t.outer", None)], by[("t.inner", 2)]
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert by[("t.inner", 5)]["parent"] == by[("t.coro", None)]["id"]
    assert by[("t.inner", -1)]["error"] == "ValueError"
    assert spans.children_of(recorder.spans)[outer["id"]] == [inner]


def test_host_speed_rescales_a_segment_by_the_probes_around_it():
    ref = hostspeed.REF_PROBE_MS
    speed = hostspeed.HostSpeed(iter([ref, 3 * ref, 2 * ref, ref]).__next__)
    assert speed.segment() == pytest.approx(0.5)  # ran at half the reference speed
    assert speed.segment() == pytest.approx(0.4)
    assert speed.probes == [ref, 3 * ref, 2 * ref]
    speed.idle_probe()
    summary = speed.summary()
    # the in-run probes read 2.5x the idle ones: something kept the host busy
    assert summary["idle_probe_ms"] == [ref, ref]
    assert summary["probe_slowdown"] == pytest.approx(1.5)
    assert summary["probe_flag"] is True


def test_host_speed_probes_in_a_process_of_its_own_and_stops_it():
    with hostspeed.HostSpeed() as speed:
        process = speed._process
        assert process is not None and process.pid != os.getpid()
        assert 0.0 < speed.segment() < 100.0
    assert process.poll() == 0


def test_chunk_clock_times_each_chunk_between_two_pulls_at_reference_speed():
    ref = hostspeed.REF_PROBE_MS
    group = workloads.CHUNK_GROUP
    # at creation, before the first item, after chunk group 0, after the run
    speed = hostspeed.HostSpeed(iter([ref, ref, 3 * ref, 5 * ref]).__next__)
    items = list(range(2 * group + 1))  # chunks of 2: one whole group and a 1-item tail
    clock = workloads.ChunkClock(items, chunk=2, speed=speed)
    assert list(clock) == items
    clock.finish()
    # pull k at pulls[k] (the last one finds the stream empty); the run ends at the last value
    clock.pulls = [0.1 * k for k in range(len(items) + 1)]
    clock.pulls[2 * group] += 0.3  # the group's last chunk took 0.4 s
    clock.end = clock.pulls[-1] + 0.3
    # chunk k ran between pulls 2k+1 and 2k+2, the tail after the last pull;
    # the group ran at half the reference speed, the tail at a quarter
    want = [100.0] * (group - 1) + [400.0]
    assert clock.chunks() == ([(2, pytest.approx(0.5 * ms)) for ms in want]
                              + [(1, pytest.approx(0.25 * 300.0))])
    seconds = (0.5 * sum(want) + 0.25 * 300.0) / 1e3
    assert workloads._rate(clock.chunks()) == pytest.approx(len(items) / seconds)


# -- the contract ------------------------------------------------------------------------------
def test_benchmark_json_declares_what_the_benchmark_reports():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    for workload in SPEC["workloads"]:
        limit = re.search(r"limit (\d+) ms", workload["why"])
        assert limit and float(limit.group(1)) == workloads.LIMIT_MS[workload["name"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


#: Runs a command as a child subreaper, so whatever process the command leaves
#: orphaned becomes its child, alive or not yet reaped, and prints those pids
#: as the last line.
LEFTOVERS = """
import subprocess, sys
from perfbench import run
run._adopt_orphans()
code = subprocess.call(sys.argv[1:])
left = run._children()
run._stop_children()
print(left)
sys.exit(code)
"""


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_and_verifies_every_answer(workload, trace):
    done = subprocess.run(
        [sys.executable, "-c", LEFTOVERS, sys.executable, "perfbench/run.py", "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    *lines, leftovers = done.stdout.strip().splitlines()
    assert leftovers == "[]", "the run left processes behind"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = workloads.PER_LAYER if trace == "1" else workloads.END_TO_END
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    values = {name: value["value"] for name, value in result["metrics"].items()}
    assert all(isinstance(value, float) and math.isfinite(value) for value in values.values())
    report = json.loads(lines[-2][len("perfbench: "):])
    assert report["mismatches"] == 0
    if trace == "1":
        # Every layer metric the workload exercises was measured: a span path
        # that records nothing reads 0.  The least-squares split and the
        # tracing overhead are fitted or differenced, so on a run this small
        # they may come out negative; nothing is refused at this load.
        assert not report.get("unmeasured")
        not_applicable = set(report["not_applicable"])
        signed = {"flat.us_per_node_read", "flat.round_setup_us_per_query",
                  "trace.overhead_frac"} - not_applicable
        positive = set(expected) - not_applicable - signed - {"admission.rejected_frac"}
        assert [name for name in sorted(positive) if values[name] <= 0] == []
        assert [name for name in sorted(signed) if values[name] == 0] == []
        assert all(values[name] == 0 for name in not_applicable)
        assert values["admission.rejected_frac"] == 0.0
    else:
        assert all(values[name] > 0 for name in expected)
        assert isinstance(report["probe_flag"], bool)


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "anytime_open", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout

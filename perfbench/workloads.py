"""The benchmark's three workloads and the metrics they report.

* ``anytime_open`` — the library embedded in-process: ``AsyncServingClient``
  over a one-tenant ``ModelRegistry(workers=0)``, single ``classify`` calls
  with a fixed budget per request from {1, 2, 4, 8, 16, 32}; 64 requests in
  flight in the closed loop, Poisson arrivals at 100 requests/s in the open
  loop.  Descent in ``core.flat`` does most of the work.
* ``full_http`` — ``HttpFrontend`` over a ``ModelRegistry`` whose worker
  pool has one process per vCPU but one (one worker on a 2-vCPU host), with
  two tenants (pendigits, letter), on the generator's event loop (see
  :class:`Server`); two keep-alive
  connections send single-row full-refinement ``classify`` requests,
  alternating tenants; Poisson arrivals at 100 requests/s in the open loop.
  Per-request overhead (HTTP, admission, executor hop, pool IPC) dominates.
* ``stream_learn`` — ``run_anytime_stream`` test-then-train over a
  4,000-object pendigits stream with decay, chunks of 32, Poisson budgets
  capped at 32, two passes (more while they fit in the run).  Index writes
  sit beside anytime reads; serving is bypassed.

A serving run alternates ``REPS`` closed-loop and open-loop sub-phases over
its ``--seconds`` (``CLOSED_SHARE`` of it closed), after five (three for
HTTP) timed set-ups and a warm-up.  Every timing is rescaled to the
reference host speed by the probes around its segment
(:mod:`perfbench.hostspeed`) and is the median over sub-phases; latency
runs from each request's due time.  Its tail enters the metrics through
``within_slo_frac``; the 95th percentile, the highest one each sub-phase's
~200 samples support, is in the report line only.  Memory is a peak: the
serving process's over set-up and phases, plus each pool worker's.

Every served answer is checked against an in-process reference computed
untimed after the measured phases: ``load_flat_forest`` on the same snapshot
and budget for the serving workloads, a ``use_batch=False`` replay of the
first chunks (and pass-to-pass identity) for the stream.  A mismatch is a
failed operation.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import AnytimeBayesClassifier, BayesTreeConfig, make_dataset
from repro.persist import load_flat_forest, load_forest, save_forest
from repro.serving import AsyncServingClient, HttpFrontend, ModelRegistry
from repro.stream import DataStream, PoissonArrival, run_anytime_stream

from perfbench import inputs, loadgen, spans, tracing
from perfbench.hostspeed import HostSpeed
from perfbench.spans import SpanRecorder

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "within_slo_frac": "ratio",
    "success_frac": "ratio",
    "accuracy": "ratio",
    "rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "frontend.http_self_ms_p50": "ms",
    "frontend.queue_wait_ms_p50": "ms",
    "frontend.round_size_mean": "count",
    "frontend.rounds": "count",
    "admission.rejected_frac": "ratio",
    "registry.round_ms_p50": "ms",
    "registry.round_ms_p99": "ms",
    "registry.self_ms_p50": "ms",
    "registry.ipc_ms_p50": "ms",
    "registry.load_ms": "ms",
    "registry.pool_spawn_ms": "ms",
    "persist.save_ms": "ms",
    "flat.nodes_read": "count",
    "flat.read_budget_ratio": "ratio",
    "flat.us_per_node_read": "us",
    "flat.round_setup_us_per_query": "us",
    "classifier.anytime_ms_per_obj": "ms",
    "classifier.partial_fit_us_p50": "us",
    "classifier.advance_time_us_p50": "us",
    "index.node_count": "count",
    "index.height": "count",
    "gen.late_ms_p99": "ms",
    "trace.overhead_frac": "ratio",
}

#: Latency limit of ``within_slo_frac``, per workload (also stated in each
#: workload's "why" in BENCHMARK.json).  For the stream it bounds one chunk.
LIMIT_MS = {"anytime_open": 60.0, "full_http": 25.0, "stream_learn": 250.0}
#: Open-loop arrival rates: low enough (a fifth to a third of the closed-loop
#: capacity on the reference host) that a slower spell of the shared host
#: does not tip the queue into overload, where latency stops scaling with speed.
OPEN_RATE = {"anytime_open": 100.0, "full_http": 100.0}
#: Requests in flight in the closed loop (full_http: one per connection).
CLOSED_CONCURRENCY = {"anytime_open": 64, "full_http": 2}
#: A generator later than this (p99, ms) is flagged in the phase report.
LATE_FLAG_MS = 10.0
#: Share of a serving run's seconds spent in closed-loop sub-phases.
CLOSED_SHARE = 0.4
#: Closed/open sub-phase pairs of a serving run (see :func:`measure`).
REPS = 6
#: Whole passes of the stream a ``stream_learn`` run makes at least.
STREAM_PASSES = 2
CHUNK = 32
#: Stream chunks per host-speed segment (see :class:`ChunkClock`).
CHUNK_GROUP = 4
DECAY_RATE = 0.01


@dataclass(frozen=True)
class Sizes:
    """How much work one run does besides the timed phases."""

    pendigits_train: int = 1600
    letter_train: int = 2600
    setups: int = 5
    http_setups: int = 3
    stream_setups: int = 5
    stream_init: int = 1000
    stream_objects: int = 4000
    replay: int = 128
    warmup: int = 128
    #: Distinct query rows per workload: well above what today's program
    #: serves in a run, so a faster one does not run out.
    query_pool: int = 40000


FULL = Sizes()
#: A seconds-long run of every code path, for the benchmark's own tests.
SMOKE = Sizes(pendigits_train=300, letter_train=520, setups=2, http_setups=1,
              stream_setups=1, stream_init=200, stream_objects=192, replay=64, warmup=16,
              query_pool=4000)


@dataclass
class Outcome:
    """What one run measured and verified."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


# -- shared helpers ------------------------------------------------------------------------------
def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _tally(outcome: Outcome, records: Sequence[dict]) -> None:
    outcome.attempted += len(records)
    outcome.failed += sum(1 for record in records if record["status"] != "ok")


def _verify(records: Sequence[dict], expected: Callable[[Sequence[int]], List[object]]) -> int:
    """Mark served predictions that disagree with the reference; returns the count."""
    served = [record for record in records if record["status"] == "ok"]
    reference = expected([record["index"] for record in served])
    mismatches = 0
    for record, want in zip(served, reference):
        if record["prediction"] != want:
            record["status"] = "mismatch"
            mismatches += 1
    return mismatches


def _closed_tput(records: Sequence[dict], start: float, end: float) -> float:
    served = sum(1 for record in records if record["status"] == "ok")
    return served / max(end - start, 1e-9)


def _phase_spans(all_spans: Sequence[dict], name: str, start: float, end: float) -> List[dict]:
    return [span for span in spans.by_name(all_spans, name)
            if span["start"] >= start and span["end"] <= end]


def _serving_layers(outcome: Outcome, all_spans: Sequence[dict], closed: Sequence[dict],
                    window: Tuple[float, float], rid_of: Callable[[int], str]) -> None:
    """Per-layer metrics of a serving workload from its traced phases."""
    start, end = window
    classify = _phase_spans(all_spans, "frontend.classify", start, end)
    rounds = _phase_spans(all_spans, "registry.predict_batch", start, end)
    classify_by_rid = {span["rids"][0]: span for span in classify}
    round_by_rid = {rid: span for span in rounds for rid in span["rids"]}
    self_ms = []
    for record in closed:
        span = classify_by_rid.get(rid_of(record["index"]))
        if span is not None:
            self_ms.append((record["done"] - record["sent"]) * 1e3
                           - (span["end"] - span["start"]) * 1e3)
    waits = [(round_by_rid[rid]["start"] - span["start"]) * 1e3
             for rid, span in classify_by_rid.items() if rid in round_by_rid]
    refused = sum(1 for span in classify
                  if span.get("error") in ("QueueFullError", "QuotaExceededError"))
    m = outcome.metrics
    m["frontend.http_self_ms_p50"] = _median(self_ms)
    m["frontend.queue_wait_ms_p50"] = _median(waits)
    m["frontend.rounds"] = float(len(rounds))
    m["frontend.round_size_mean"] = float(np.mean([s["rows"] for s in rounds])) if rounds else 0.0
    m["admission.rejected_frac"] = refused / max(1, len(classify))
    durations = spans.durations_ms(rounds)
    m["registry.round_ms_p50"] = loadgen.percentile(durations, 50)
    m["registry.round_ms_p99"] = loadgen.percentile(durations, 99)
    m["registry.load_ms"] = _median(spans.durations_ms(spans.by_name(all_spans, "registry.load")))
    m["registry.pool_spawn_ms"] = _median(
        spans.durations_ms(spans.by_name(all_spans, "registry.init")))


def _anytime_layers(outcome: Outcome, batches: Sequence[dict], counted: Sequence[dict]) -> None:
    """Descent metrics from anytime batch spans (``counted``: the exact-count slice)."""
    m = outcome.metrics
    spent = sum(span["spent"] for span in counted)
    granted = sum(span["granted"] for span in counted)
    m["flat.nodes_read"] = float(spent)
    m["flat.read_budget_ratio"] = spent / max(1, granted)
    rows = [span["rows"] for span in batches]
    seconds = [span["end"] - span["start"] for span in batches]
    per_row, per_read = spans.rows_reads_split(rows, [span["spent"] for span in batches], seconds)
    m["flat.round_setup_us_per_query"] = per_row * 1e6
    m["flat.us_per_node_read"] = per_read * 1e6
    m["classifier.anytime_ms_per_obj"] = sum(seconds) * 1e3 / max(1, sum(rows))


def _setup_s(setups: Sequence[Tuple[float, float]]) -> float:
    """Median set-up time at reference speed."""
    return _median([seconds * scale for seconds, scale in setups])


def _structure(outcome: Outcome, forest: object) -> None:
    stats = forest.structure_stats()  # type: ignore[attr-defined]
    outcome.metrics["index.node_count"] = float(stats["total_nodes"])
    outcome.metrics["index.height"] = float(stats["max_height"])


def _fill_missing(outcome: Outcome, names: Sequence[str]) -> None:
    """Metrics a workload does not exercise read 0 and are listed in the report."""
    missing = [name for name in names if name not in outcome.metrics]
    for name in missing:
        outcome.metrics[name] = 0.0
    outcome.report["not_applicable"] = missing


def _reset_peak_rss() -> None:
    """Restart this process's peak RSS (``VmHWM``) from its current RSS."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def _peak_rss_mb() -> float:
    """Peak RSS of this process since the last :func:`_reset_peak_rss` (MB)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


# -- serving phases -----------------------------------------------------------------------------
@dataclass
class Phases:
    """Records of a serving workload's measured sub-phases."""

    #: Rescales every sub-phase to the reference host speed.
    speed: HostSpeed
    #: ``(records, start, end, scale)`` of each closed sub-phase.
    closed: List[Tuple[List[dict], float, float, float]] = field(default_factory=list)
    traced_closed: List[Tuple[List[dict], float, float, float]] = field(default_factory=list)
    #: ``(records, start, scale)`` of each open sub-phase.
    opened: List[Tuple[List[dict], float, float]] = field(default_factory=list)
    #: Peak private RSS (kB) of each pool worker, sampled after every sub-phase.
    workers_kb: Dict[int, float] = field(default_factory=dict)

    def sample_workers(self) -> None:
        for child in multiprocessing.active_children():
            if child.pid:
                kb = tracing.private_kb(child.pid)
                self.workers_kb[child.pid] = max(kb, self.workers_kb.get(child.pid, 0.0))

    def records(self) -> List[dict]:
        phases = self.closed + self.traced_closed
        return [r for p in phases for r in p[0]] + [r for p in self.opened for r in p[0]]

    def window(self) -> Tuple[float, float]:
        """From the first traced sub-phase to the last completion."""
        starts = [p[1] for p in self.traced_closed] + [p[1] for p in self.opened]
        return min(starts), max(r["done"] for r in self.records())

    def closed_qps(self, traced: bool = False) -> float:
        """Median closed-loop throughput over the sub-phases, at reference speed."""
        phases = self.traced_closed if traced else self.closed
        return _median([_closed_tput(records, start, end) / scale
                        for records, start, end, scale in phases])


def open_plan(rate: float, seconds: float, reps: int, seed: int) -> List[Tuple[range, np.ndarray]]:
    """Request indices and due times of each open-loop sub-phase.

    The open-loop requests take rows ``0 .. n-1`` in order, so the set a
    seed sends is fixed whatever the program's speed; accuracy over it is
    exact run to run.
    """
    plan = []
    first = 0
    for rep in range(reps):
        schedule = inputs.poisson_schedule(rate, seconds / reps, seed, 10 + rep)
        plan.append((range(first, first + len(schedule)), schedule))
        first += len(schedule)
    return plan


async def measure(closed_calls: Sequence[loadgen.Call], open_call: loadgen.Call,
                  plan: List[Tuple[range, np.ndarray]], rows: Iterator[int], closed_s: float,
                  speed: HostSpeed, traced: Optional[Callable[[bool], None]] = None) -> Phases:
    """Alternate closed and open sub-phases, one pair per entry of ``plan``.

    Interleaving spreads each metric's samples over the whole run.  With
    ``traced``, each closed sub-phase runs once untraced and once traced
    (``traced(on)`` switches the spans), and the open sub-phases are traced.
    """
    phases = Phases(speed)
    share = closed_s / len(plan)
    speed.segment()  # what ran before is not measured here
    for indices, schedule in plan:
        if traced is not None:
            traced(False)
        phases.closed.append((*await loadgen.closed_loop(closed_calls, rows, share),
                              speed.segment()))
        phases.sample_workers()
        if traced is not None:
            traced(True)
            phases.traced_closed.append((*await loadgen.closed_loop(closed_calls, rows, share),
                                         speed.segment()))
        phases.opened.append((*await loadgen.open_loop(open_call, indices, schedule),
                              speed.segment()))
        phases.sample_workers()
    if traced is not None:
        traced(False)
    return phases


def _serving_metrics(outcome: Outcome, phases: Phases, labels: Callable[[int], object],
                     limit_ms: float, peak_rss_mb: float) -> None:
    """End-to-end metrics of a serving workload.

    Each timing is the median over sub-phases of that sub-phase's figure at
    reference speed; the SLO share pools every open-loop request, each
    latency at its sub-phase's scale; accuracy is over every open-loop request.
    Memory is the serving process's peak RSS over set-up and phases plus
    each pool worker's peak private RSS.
    """
    m = outcome.metrics
    m["rss_mb"] = peak_rss_mb + sum(phases.workers_kb.values()) / 1024.0
    m["throughput_qps"] = phases.closed_qps()
    summaries = [loadgen.phase_summary(records, limit_ms, scale)
                 for records, _, scale in phases.opened]
    m["latency_p50_ms"] = _median([summary["latency_p50_ms"] for summary in summaries])
    # The tail is reported, not gated: on a shared 2-vCPU host another
    # tenant's bursts move full_http's p95 by 0.13 to 0.4 of its median
    # from one set of seeds to the next.
    outcome.report["latency_p95_ms"] = _median([s["latency_p95_ms"] for s in summaries])
    within = sum(summary["within"] for summary in summaries)
    m["within_slo_frac"] = within / max(1, sum(summary["attempted"] for summary in summaries))
    opened = [record for records, _, _ in phases.opened for record in records]
    hits = sum(1 for record in opened
               if record["status"] == "ok" and record["prediction"] == labels(record["index"]))
    m["accuracy"] = hits / max(1, len(opened))
    m["success_frac"] = 1.0 - outcome.failed / max(1, outcome.attempted)
    late = loadgen.percentile(loadgen.lateness_ms(opened), 99)
    outcome.report["open_loop"] = {"attempted": len(opened), "late_ms_p99": late,
                                   "generator_behind": late > LATE_FLAG_MS}
    outcome.report["open_subphases"] = [
        {key: summary[key] for key in ("attempted", "latency_p50_ms", "latency_p95_ms", "scale")}
        for summary in summaries]
    outcome.report["closed_qps_raw"] = [_closed_tput(records, start, end)
                                        for records, start, end, _ in phases.closed]
    outcome.report["workers_private_kb"] = phases.workers_kb
    outcome.report.update(phases.speed.summary())


def _overhead(phases: Phases) -> float:
    return 1.0 - phases.closed_qps(traced=True) / phases.closed_qps()


# -- anytime_open --------------------------------------------------------------------------------
def anytime_open(seed: int, seconds: float, trace: bool, sizes: Sizes, work: Path) -> Outcome:
    forest, rows, labels = inputs.forest_and_queries(
        "pendigits", sizes.pendigits_train, sizes.query_pool, seed, work)
    closed_s = seconds * CLOSED_SHARE
    plan = open_plan(OPEN_RATE["anytime_open"], seconds - closed_s, REPS, seed)
    budget = inputs.budgets(len(rows), seed, 3)
    with HostSpeed() as speed:
        return asyncio.run(_anytime_open(forest, rows, labels, budget, plan, closed_s, trace,
                                         sizes, speed))


async def _anytime_open(forest: inputs.Forest, rows: np.ndarray, labels: np.ndarray,
                        budget: np.ndarray, plan: List[Tuple[range, np.ndarray]],
                        closed_s: float, trace: bool, sizes: Sizes, speed: HostSpeed) -> Outcome:
    outcome = Outcome()
    recorder = SpanRecorder() if trace else None
    tenant = "pendigits"
    rows_left = iter(range(plan[-1][0].stop, len(rows)))

    def traced(on: bool) -> None:
        assert recorder is not None
        recorder.unpatch()
        if on:
            tracing.patch_serving(recorder)
            tracing.patch_flat(recorder)

    def caller(client: AsyncServingClient) -> loadgen.Call:
        async def call(index: int) -> object:
            return await client.classify(rows[index], node_budget=int(budget[index]),
                                         tenant=tenant)
        return call

    if recorder is not None:
        traced(True)
    _reset_peak_rss()
    setups: List[Tuple[float, float]] = []
    records: List[dict] = []
    registry: Optional[ModelRegistry] = None
    client: Optional[AsyncServingClient] = None
    for _ in range(sizes.setups):
        if client is not None and registry is not None:
            await client.aclose()
            registry.close()
        speed.segment()
        start = time.perf_counter()
        registry = ModelRegistry(capacity=1, workers=0)
        registry.load(tenant, forest.path)
        client = AsyncServingClient(registry=registry, default_tenant=tenant)
        index = next(rows_left)
        records.append(await loadgen.timed(caller(client), index, {"index": index}))
        setups.append((time.perf_counter() - start, speed.segment()))
    assert client is not None and registry is not None
    if recorder is not None:
        traced(False)
    try:
        calls = [caller(client)] * CLOSED_CONCURRENCY["anytime_open"]
        warm, _, _ = await loadgen.closed_loop(
            calls, [next(rows_left) for _ in range(sizes.warmup)], float("inf"))
        records += warm
        phases = await measure(calls, calls[0], plan, rows_left, closed_s, speed,
                               traced if recorder is not None else None)
        records += phases.records()
    finally:
        await client.aclose()
        registry.close()
    peak_rss_mb = _peak_rss_mb()
    speed.idle_probe()

    reference = load_flat_forest(forest.path)

    def expected(indices: Sequence[int]) -> List[object]:
        order = sorted(indices, key=lambda i: budget[i])
        answers: Dict[int, object] = {}
        for offset in range(0, len(order), 512):
            chunk = order[offset:offset + 512]
            results = reference.classify_anytime_batch(
                rows[chunk], max_nodes=budget[chunk], record_history=False)
            answers.update(zip(chunk, (result.final_prediction for result in results)))
        return [answers[i] for i in indices]

    outcome.report["mismatches"] = _verify(records, expected)
    _tally(outcome, records)
    m = outcome.metrics
    if recorder is None:
        m["setup_s"] = _setup_s(setups)
        _serving_metrics(outcome, phases, lambda i: labels[i], LIMIT_MS["anytime_open"],
                         peak_rss_mb)
        return outcome

    all_spans = outcome.spans = recorder.spans
    window = phases.window()
    traced_closed = [r for phase in phases.traced_closed for r in phase[0]]
    _serving_layers(outcome, all_spans, traced_closed, window, lambda i: spans.row_id(rows[i]))
    children = spans.children_of(all_spans)
    rounds = _phase_spans(all_spans, "registry.predict_batch", *window)
    m["registry.self_ms_p50"] = _median(
        [spans.self_time(span, children.get(span["id"], [])) * 1e3 for span in rounds])
    batches = _phase_spans(all_spans, "flat.classify_anytime_batch", *window)
    open_windows = [(start, max(r["done"] for r in rs)) for rs, start, _ in phases.opened]
    open_spans = [span for span in batches
                  if any(a <= span["start"] and span["end"] <= b for a, b in open_windows)]
    _anytime_layers(outcome, batches, open_spans)
    m["persist.save_ms"] = forest.save_s * 1e3
    _structure(outcome, reference)
    opened = [record for phase in phases.opened for record in phase[0]]
    m["gen.late_ms_p99"] = loadgen.percentile(loadgen.lateness_ms(opened), 99)
    m["trace.overhead_frac"] = _overhead(phases)
    _fill_missing(outcome, list(PER_LAYER))
    return outcome


# -- full_http -----------------------------------------------------------------------------------
class Server:
    """``HttpFrontend`` over a worker-pool ``ModelRegistry``, and two keep-alive connections.

    The server runs on this process's event loop, beside the load
    generator, and the pool leaves one vCPU to them: with the server in a
    process of its own and two workers, four busy processes shared the
    host's two vCPUs and the workload's timings spread by 0.4 to 0.9 of
    their median run to run.  Every request still crosses a real socket,
    HTTP parse and reply, admission, the executor hop and pool IPC.
    With a ``recorder``, the frontend and registry are traced here and
    ``FlatForest`` in the pool workers, which write spans to ``trace_dir``.
    """

    def __init__(self, registry: ModelRegistry, client: AsyncServingClient,
                 frontend: HttpFrontend, conns: List[loadgen.HttpConnection],
                 recorders: List[SpanRecorder]) -> None:
        self.registry = registry
        self.client = client
        self.frontend = frontend
        self.conns = conns
        self.recorders = recorders

    @classmethod
    async def start(cls, tenants: Dict[str, Path], workers: int, trace_dir: str) -> "Server":
        recorders: List[SpanRecorder] = []
        if trace_dir:
            recorders = [SpanRecorder(), tracing.WorkerSpans(trace_dir)]
            tracing.patch_serving(recorders[0])
            tracing.patch_flat(recorders[1])  # the pool workers fork with it
        registry = ModelRegistry(capacity=len(tenants), workers=workers)
        try:
            for tenant, path in tenants.items():
                registry.load(tenant, path)
            client = AsyncServingClient(registry=registry, default_tenant=next(iter(tenants)))
            frontend = HttpFrontend(client)
            await frontend.start()
            conns = [await loadgen.HttpConnection.open(*frontend.address) for _ in range(2)]
        except BaseException:
            registry.close()
            for recorder in recorders:
                recorder.unpatch()
            raise
        return cls(registry, client, frontend, conns, recorders)

    async def stop(self) -> List[dict]:
        """Shut down; returns this process's spans."""
        for conn in self.conns:
            await conn.close()
        await self.frontend.aclose()
        await self.client.aclose()
        self.registry.close()  # workers exit here and write their spans
        for recorder in self.recorders:
            recorder.unpatch()
        return self.recorders[0].spans if self.recorders else []


def full_http(seed: int, seconds: float, trace: bool, sizes: Sizes, work: Path) -> Outcome:
    datasets = {"letter": sizes.letter_train, "pendigits": sizes.pendigits_train}
    forests = {}
    tenant_rows = {}
    for tenant, size in datasets.items():
        forest, rows, labels = inputs.forest_and_queries(
            tenant, size, sizes.query_pool // 2, seed, work)
        forests[tenant] = forest
        tenant_rows[tenant] = (rows, labels)
    closed_s = seconds * CLOSED_SHARE
    plan = open_plan(OPEN_RATE["full_http"], seconds - closed_s, REPS, seed)
    with HostSpeed() as speed:
        return asyncio.run(_full_http(forests, tenant_rows, plan, closed_s, trace, sizes, work,
                                      speed))


async def _full_http(forests: Dict[str, inputs.Forest],
                     tenant_rows: Dict[str, Tuple[np.ndarray, np.ndarray]],
                     plan: List[Tuple[range, np.ndarray]], closed_s: float, trace: bool,
                     sizes: Sizes, work: Path, speed: HostSpeed) -> Outcome:
    outcome = Outcome()
    workers = max(1, (os.cpu_count() or 2) - 1)
    paths = {tenant: forest.path for tenant, forest in forests.items()}
    names = list(forests)
    trace_dir = str(work / "spans") if trace else ""
    if trace:
        os.makedirs(trace_dir, exist_ok=True)

    def locate(index: int) -> Tuple[str, int]:
        """Requests alternate tenants; each tenant's rows are used in order."""
        return names[index % len(names)], index // len(names)

    def row(index: int) -> np.ndarray:
        tenant, position = locate(index)
        return tenant_rows[tenant][0][position]

    def caller(conn: loadgen.HttpConnection) -> loadgen.Call:
        async def call(index: int) -> object:
            reply = await conn.post(f"/v1/tenants/{locate(index)[0]}/classify",
                                    {"features": row(index).tolist(), "node_budget": None})
            return reply["prediction"]
        return call

    def spread(conns: List[loadgen.HttpConnection]) -> loadgen.Call:
        """Open-loop requests alternate connections in pairs, so each carries both tenants."""
        calls = [caller(conn) for conn in conns]

        async def call(index: int) -> object:
            return await calls[(index // 2) % len(calls)](index)
        return call

    usable = len(names) * min(len(rows) for rows, _ in tenant_rows.values())
    rows_left = iter(range(plan[-1][0].stop, usable))
    records: List[dict] = []
    server: Optional[Server] = None
    baseline = Phases(speed)
    if trace:
        # The untraced baseline of the tracing overhead runs on a server of its own.
        untraced = await Server.start(paths, workers, "")
        try:
            calls = [caller(conn) for conn in untraced.conns]
            speed.segment()
            for _ in plan:
                baseline.closed.append(
                    (*await loadgen.closed_loop(calls, rows_left, closed_s / len(plan)),
                     baseline.speed.segment()))
        finally:
            await untraced.stop()
        records += baseline.records()
    _reset_peak_rss()
    setups: List[Tuple[float, float]] = []
    for _ in range(sizes.http_setups):
        if server is not None:
            await server.stop()
        speed.segment()
        start = time.perf_counter()
        server = await Server.start(paths, workers, trace_dir)
        index = next(rows_left)
        records.append(await loadgen.timed(caller(server.conns[0]), index, {"index": index}))
        setups.append((time.perf_counter() - start, speed.segment()))
    assert server is not None
    try:
        calls = [caller(conn) for conn in server.conns]
        warm, _, _ = await loadgen.closed_loop(
            calls, [next(rows_left) for _ in range(sizes.warmup)], float("inf"))
        records += warm
        phases = await measure(calls, spread(server.conns), plan, rows_left, closed_s, speed)
        records += phases.records()
    finally:
        server_spans = await server.stop()
    peak_rss_mb = _peak_rss_mb()
    speed.idle_probe()

    references = {tenant: load_flat_forest(path) for tenant, path in paths.items()}

    def expected(indices: Sequence[int]) -> List[object]:
        answers: Dict[int, object] = {}
        for tenant in names:
            mine = [i for i in indices if locate(i)[0] == tenant]
            for offset in range(0, len(mine), 1024):
                chunk = mine[offset:offset + 1024]
                block = np.stack([row(i) for i in chunk])
                answers.update(zip(chunk, references[tenant].predict_batch(block)))
        return [answers[i] for i in indices]

    outcome.report["mismatches"] = _verify(records, expected)
    _tally(outcome, records)
    m = outcome.metrics

    def label(index: int) -> object:
        tenant, position = locate(index)
        return tenant_rows[tenant][1][position]

    if not trace:
        m["setup_s"] = _setup_s(setups)
        _serving_metrics(outcome, phases, label, LIMIT_MS["full_http"], peak_rss_mb)
        return outcome

    all_spans = outcome.spans = server_spans + spans.load_spans(
        os.path.join(trace_dir, name) for name in sorted(os.listdir(trace_dir)))
    phases.traced_closed, phases.closed = phases.closed, baseline.closed
    window = phases.window()
    traced_closed = [r for phase in phases.traced_closed for r in phase[0]]
    _serving_layers(outcome, all_spans, traced_closed, window, lambda i: spans.row_id(row(i)))
    worker = spans.by_name(all_spans, "flat.predict_batch")
    worker_by_rid = {rid: span for span in worker for rid in span["rids"]}
    ipc = []
    for span in _phase_spans(all_spans, "registry.predict_batch", *window):
        parts = {worker_by_rid[rid]["id"]: worker_by_rid[rid]
                 for rid in span["rids"] if rid in worker_by_rid}
        if parts:
            ipc.append(spans.self_time(span, parts.values()) * 1e3)
    # The round's own work is its IPC here: descent runs in the worker.
    m["registry.ipc_ms_p50"] = m["registry.self_ms_p50"] = _median(ipc)
    outcome.report["worker_spans"] = len(worker)
    if not ipc:
        reason = "no pool worker's flat.predict_batch span matched a registry round"
        outcome.report["unmeasured"] = {name: reason for name in
                                        ("registry.ipc_ms_p50", "registry.self_ms_p50")}
    m["persist.save_ms"] = _median([forest.save_s * 1e3 for forest in forests.values()])
    structure = [reference.structure_stats() for reference in references.values()]
    m["index.node_count"] = float(sum(stats["total_nodes"] for stats in structure))
    m["index.height"] = float(max(stats["max_height"] for stats in structure))
    opened = [record for phase in phases.opened for record in phase[0]]
    m["gen.late_ms_p99"] = loadgen.percentile(loadgen.lateness_ms(opened), 99)
    m["trace.overhead_frac"] = _overhead(phases)
    _fill_missing(outcome, list(PER_LAYER))
    return outcome


# -- stream_learn --------------------------------------------------------------------------------
class ChunkClock:
    """Iterates stream items and times each chunk's test-then-train step.

    ``run_anytime_stream`` pulls a chunk's last item, processes the chunk,
    then pulls the next item; the gap between those two pulls is the chunk's
    classify-and-learn time.  The trailing partial chunk ends at
    :meth:`finish`.  Every ``CHUNK_GROUP`` chunks, between two chunks, the
    clock closes a :class:`HostSpeed` segment; each chunk's time is rescaled
    by the scale of its group.
    """

    def __init__(self, items: Sequence[object], chunk: int, speed: HostSpeed) -> None:
        self.items = items
        self.chunk = chunk
        self.speed = speed
        self.pulls: List[float] = []
        self.scales: List[float] = []
        self.end = 0.0

    def __iter__(self):  # type: ignore[no-untyped-def]
        for position, item in enumerate(self.items):
            self.pulls.append(time.perf_counter())
            if position % (self.chunk * CHUNK_GROUP) == 0:
                scale = self.speed.segment()
                if position:  # the segment before the first item is not a chunk group
                    self.scales.append(scale)
            yield item
        self.pulls.append(time.perf_counter())

    def finish(self) -> None:
        """Mark the end of the run (after the trailing partial chunk)."""
        self.end = time.perf_counter()
        self.scales.append(self.speed.segment())

    def chunks(self) -> List[Tuple[int, float]]:
        """``(objects, ms at reference speed)`` of each chunk."""
        n = len(self.pulls) - 1
        times = [(self.pulls[k + 1] - self.pulls[k]) * 1e3
                 for k in range(self.chunk - 1, n, self.chunk)]
        if n % self.chunk:
            times.append((self.end - self.pulls[-1]) * 1e3)
        sizes = [min(self.chunk, n - k * self.chunk) for k in range(len(times))]
        return [(size, value * self.scales[k // CHUNK_GROUP])
                for k, (size, value) in enumerate(zip(sizes, times))]


def _rate(chunks: Sequence[Tuple[int, float]]) -> float:
    """Objects per second of chunk processing."""
    return sum(size for size, _ in chunks) * 1e3 / sum(ms for _, ms in chunks)


def stream_learn(seed: int, seconds: float, trace: bool, sizes: Sizes, work: Path) -> Outcome:
    with HostSpeed() as speed:
        return _stream_learn(seed, seconds, trace, sizes, work, speed)


def _stream_learn(seed: int, seconds: float, trace: bool, sizes: Sizes, work: Path,
                  speed: HostSpeed) -> Outcome:
    outcome = Outcome()
    data = make_dataset("pendigits", size=sizes.stream_init + sizes.stream_objects,
                        random_state=inputs.DATA_SEED)
    config = BayesTreeConfig(tree=inputs.TREE, decay_rate=DECAY_RATE)
    _reset_peak_rss()
    setups: List[Tuple[float, float]] = []
    for _ in range(sizes.stream_setups):
        speed.segment()
        start = time.perf_counter()
        fitted = AnytimeBayesClassifier(config=config).fit(
            data.features[:sizes.stream_init], data.labels[:sizes.stream_init])
        setups.append((time.perf_counter() - start, speed.segment()))
    snapshot = work / "stream-initial.npz"
    start = time.perf_counter()
    save_forest(fitted, snapshot)
    save_ms = (time.perf_counter() - start) * 1e3
    stream = DataStream(data.tail(sizes.stream_init), arrival=PoissonArrival(rate=1.0),
                        nodes_per_time_unit=10.0, max_budget=32, shuffle=True,
                        random_state=inputs.sub_seed(seed, 2))
    items = stream.items()
    live: List[AnytimeBayesClassifier] = []

    def one_pass(recorder: Optional[SpanRecorder]) -> Tuple[object, ChunkClock]:
        classifier = load_forest(snapshot)
        clock = ChunkClock(items, CHUNK, speed)
        if recorder is not None:
            tracing.patch_classifier(recorder)
        try:
            result = run_anytime_stream(classifier, clock, online_learning=True,
                                        chunk_size=CHUNK)  # type: ignore[arg-type]
            clock.finish()
        finally:
            if recorder is not None:
                recorder.unpatch()
        live[:] = [classifier]
        return result, clock

    # ``STREAM_PASSES`` whole passes of the same stream, more while they fit
    # in the run; the peak RSS covers the set-ups and the first passes, so
    # the extra passes a faster program makes do not count.  A traced run
    # makes one untraced pass (the overhead baseline) and one traced pass.
    began = time.perf_counter()
    passes = [one_pass(None) for _ in range(1 if trace else STREAM_PASSES)]
    peak_rss_mb = _peak_rss_mb()
    while not trace and (time.perf_counter() - began) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(one_pass(None))
    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        passes.append(one_pass(recorder))
    speed.idle_probe()

    first = passes[0][0].steps  # type: ignore[attr-defined]
    replay = run_anytime_stream(load_forest(snapshot), stream, limit=sizes.replay,
                                online_learning=True, chunk_size=CHUNK, use_batch=False)
    mismatches = sum(1 for a, b in zip(replay.steps, first)
                     if (a.prediction, a.nodes_read) != (b.prediction, b.nodes_read))
    for result, _ in passes[1:]:
        mismatches += sum(1 for a, b in zip(result.steps, first)  # type: ignore[attr-defined]
                          if (a.prediction, a.nodes_read) != (b.prediction, b.nodes_read))
    outcome.attempted = sum(len(result.steps) for result, _ in passes)  # type: ignore[attr-defined]
    outcome.failed = mismatches
    outcome.report["mismatches"] = mismatches
    outcome.report["passes"] = len(passes)
    m = outcome.metrics
    if not trace:
        chunks = [chunk for _, clock in passes for chunk in clock.chunks()]
        chunk_ms = [ms for _, ms in chunks]
        m["setup_s"] = _setup_s(setups)
        m["throughput_qps"] = _rate(chunks)
        m["latency_p50_ms"] = loadgen.percentile(chunk_ms, 50)
        outcome.report["latency_p95_ms"] = loadgen.percentile(chunk_ms, 95)
        m["within_slo_frac"] = (sum(1 for ms in chunk_ms if ms <= LIMIT_MS["stream_learn"])
                                / max(1, len(chunk_ms)))
        m["success_frac"] = 1.0 - outcome.failed / max(1, outcome.attempted)
        m["accuracy"] = passes[0][0].accuracy  # type: ignore[attr-defined]
        m["rss_mb"] = peak_rss_mb
        outcome.report["chunks"] = len(chunks)
        outcome.report["pass_qps_raw"] = [
            len(items) * 1e3 / sum(ms for _, ms in clock.chunks()) * _median(clock.scales)
            for _, clock in passes]
        outcome.report.update(speed.summary())
        return outcome

    assert recorder is not None
    all_spans = outcome.spans = recorder.spans
    batches = spans.by_name(all_spans, "classifier.classify_anytime_batch")
    _anytime_layers(outcome, batches, batches)
    for method in ("partial_fit", "advance_time"):
        durations = spans.durations_ms(spans.by_name(all_spans, f"classifier.{method}"))
        m[f"classifier.{method}_us_p50"] = _median(durations) * 1e3
    m["persist.save_ms"] = save_ms
    trees = live[0].trees.values()
    m["index.node_count"] = float(sum(tree.node_count() for tree in trees))
    m["index.height"] = float(max(tree.height() for tree in trees))
    m["trace.overhead_frac"] = 1.0 - _rate(passes[1][1].chunks()) / _rate(passes[0][1].chunks())
    _fill_missing(outcome, list(PER_LAYER))
    return outcome


WORKLOADS: Dict[str, Callable[[int, float, bool, Sizes, Path], Outcome]] = {
    "anytime_open": anytime_open,
    "full_http": full_http,
    "stream_learn": stream_learn,
}

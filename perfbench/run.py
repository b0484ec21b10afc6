"""The repository benchmark: build, serve and churn one terrain oracle.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload resident --seed 1 --seconds 24 \
        --trace 0

One run goes through every layer once, in this order:

1. a builder process builds and packs the serial SE oracle of the
   fixed dataset (``dataset.py``), then checks the store and the
   oracle's error;
2. a server process is started three times over the packed store
   (``setup_s`` is the median cold start, launch to first answer); the
   third one serves the traffic below;
3. read rounds, each with pipelined point queries (``point_qps``), an
   open loop of point queries at a fixed rate (point latency) and a
   closed-loop replay of the kNN / range / RNN scenarios;
4. churn on the mutable registration after one untimed warm-up cycle:
   connection 1 sends insert/delete pairs and a flush after every
   ``PER_FLUSH`` updates, connection 2 sends point and kNN reads at a
   fixed rate;
5. a second builder process, like the first;
6. correctness checks, outside every timed part.

The two workloads differ only in how the read-only registration keeps
its tables: ``resident`` maps them whole, ``paged`` serves them through
the page pool with a budget of a quarter of the paged columns.

While traffic runs, the server has one CPU and the generator the
other, when there are two.  ``--trace 1`` runs the same traffic with
spans recorded in the first builder and the server and prints the
per-layer metrics instead.  The last line of standard output is the JSON result;
the exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

import dataset
import traffic

HERE = os.path.dirname(os.path.abspath(__file__))

#: open-loop point rate per workload, well below the pipelined
#: saturation on the seed commit (about a fifth resident, a tenth
#: paged), so the figure is service latency rather than queueing
WORKLOADS = {
    "resident": {"paged": False, "point_rate": 6000.0},
    "paged": {"paged": True, "point_rate": 1500.0},
}
SETUPS = 3               # server cold starts per run
PIPELINE_WINDOW = 64     # point queries in flight in the pipelined phase
POINT_POOL = 20000       # distinct seeded point pairs, cycled
# Shares of --seconds: reads (point and scenario rounds) and churn.
# The two builds of a run, one before and one after the traffic, come
# on top; ``build_s`` is the faster, so one slow spell of a shared host
# does not set it.
READ_SHARE, CHURN_SHARE = 0.55, 0.45
ROUND_S = 1.0            # length of one read round
# Shares of a read round; the scenario replay gets the rest.
PIPELINED_SHARE, OPEN_SHARE = 0.15, 0.35
KNN_PER_ROUND, RANGE_PER_ROUND = 60, 20   # per RNN step of the replay
PER_FLUSH = 6            # updates between two flushes
UPDATE_RATE = 30.0       # updates per second inside a churn cycle
PAUSE_S = 0.5            # writer pause after each flush answer
READ_RATE = 40.0         # churn reads per second (point and kNN)
DRAIN_S = 60.0           # how long unanswered requests are waited for
# Point throughput and open-loop percentiles are taken per read round.
# Throughput reports the best round, like the faster of the builds,
# and percentiles the median round: on a shared host a neighbour's
# burst then lands in a few rounds instead of in the run's figure.


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def by_round(times: List[float], values: List[float], windows,
             statistic, combine) -> float:
    """``combine`` over ``windows`` of ``statistic(values, window
    length)`` of the values whose time falls in the window, skipping
    empty ones."""
    times, values = np.asarray(times), np.asarray(values)
    figures = []
    for start, end in windows:
        inside = values[(times >= start) & (times < end)]
        if inside.size:
            figures.append(statistic(inside, end - start))
    return float(combine(figures)) if figures else 0.0


def backlog(requests, end: float) -> int:
    """Requests due before ``end`` but not answered by then."""
    return sum(1 for r in requests if r.due < end
               and (r.received is None or r.received > end))


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def python(script: str, *args: str) -> List[str]:
    return [sys.executable, os.path.join(HERE, script), *args]


def cpus() -> Tuple[Set[int], Set[int]]:
    """CPUs for (the server, this generator) while traffic runs: one
    each when there are two, so the scheduler cannot stack them."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return set(allowed), set(allowed)
    return {allowed[0]}, {allowed[1]}


def build(work: str, name: str, trace: int, anywhere: Set[int]) -> Dict:
    """Run one builder process, free to use any of ``anywhere``; it
    writes ``<name>.store`` and ``terrain.off`` and reports as
    ``<name>``."""
    report = os.path.join(work, name)
    process = subprocess.Popen(python(
        "builder.py", "--store", report + ".store",
        "--mesh", os.path.join(work, "terrain.off"),
        "--trace", str(trace), "--report", report))
    os.sched_setaffinity(process.pid, anywhere)
    try:
        if process.wait(timeout=170):
            raise RuntimeError("builder failed")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    with open(report + ".check.json") as handle:
        return json.load(handle)


class Server:
    """One server process; ``setup_s`` is launch to first answer."""

    def __init__(self, work: str, name: str, budget: Optional[int],
                 trace: int, where: Set[int]):
        self.report = os.path.join(work, name)
        args = ["--static", os.path.join(work, "static.store"),
                "--live", os.path.join(work, "live.store"),
                "--mesh", os.path.join(work, "terrain.off"),
                "--trace", str(trace), "--report", self.report]
        if budget is not None:
            args += ["--max-resident-bytes", str(budget)]
        launched = time.perf_counter()
        self.process = subprocess.Popen(python("serve.py", *args),
                                        stdout=subprocess.PIPE)
        os.sched_setaffinity(self.process.pid, where)
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], 120)
            line = self.process.stdout.readline().decode() if ready else ""
            if not line.startswith("PORT "):
                raise RuntimeError("server did not start")
            self.port = int(line.split()[1])
            probe = traffic.Connection(self.port)
            reply = probe.call(traffic.request_line(
                "query", terrain=dataset.STATIC, source=0, target=1))
            self.setup_s = time.perf_counter() - launched
            probe.close()
            if b'"ok":true' not in reply:
                raise RuntimeError(f"first query failed: {reply!r}")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> Dict:
        """Stop the process and return its report (empty if none)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        if not os.path.exists(self.report + ".json"):
            return {}
        with open(self.report + ".json") as handle:
            return json.load(handle)


def paged_budget(store: str) -> int:
    """A quarter of the paged columns, in whole default pages."""
    from repro.core.paged import DEFAULT_PAGE_BYTES, PAGED_SECTIONS
    from repro.core.store import section_layouts

    _, layouts = section_layouts(store)
    pages = 0
    for name in PAGED_SECTIONS:
        _, dtype, shape = layouts[name]
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        pages += -(-nbytes // DEFAULT_PAGE_BYTES)
    return DEFAULT_PAGE_BYTES * max(1, pages // 4)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def read_phases(port: int, seed: int, seconds: float, rate: float
                ) -> Dict:
    """Rounds of: pipelined point queries, open-loop point queries at
    ``rate``, and the scenario replay on a second connection.  Rounds
    spread every read figure over the whole phase."""
    pairs = traffic.point_pairs(seed, POINT_POOL)
    lines = [traffic.request_line("query", terrain=dataset.STATIC,
                                  source=s, target=t) for s, t in pairs]
    kinds = ["query"] * len(lines)
    events = traffic.proximity_events(seed, 1000, KNN_PER_ROUND,
                                      RANGE_PER_ROUND)
    rounds = max(1, round(seconds / ROUND_S))
    length = seconds / rounds
    point = {"pairs": pairs, "pipelined": [], "arrivals": [], "open": [],
             "pipelined_windows": [], "open_windows": [], "backlog": 0}
    proximity = {"events": events, "done": [], "windows": []}
    points = traffic.Connection(port)
    scenarios = traffic.Connection(port)
    try:
        traffic.pipelined(points, lines, 0, PIPELINE_WINDOW, 0.2)  # warm
        cursor = 0
        for _ in range(rounds):
            began = time.perf_counter()
            replies, arrivals = traffic.pipelined(
                points, lines, cursor, PIPELINE_WINDOW,
                length * PIPELINED_SHARE)
            point["pipelined"].append((cursor, replies))
            point["arrivals"].extend(arrivals)
            point["pipelined_windows"].append(
                (began, began + length * PIPELINED_SHARE))
            cursor += len(replies)

            start = time.perf_counter()
            end = start + length * OPEN_SHARE
            stream = traffic.FixedRate(points, lines, kinds, rate, start,
                                       end, first=cursor)
            traffic.open_loop([stream], end, DRAIN_S)
            point["open"].extend(stream.requests)
            point["open_windows"].append((start, end))
            point["backlog"] += backlog(stream.requests, end)
            cursor += stream.index

            began = time.perf_counter()
            proximity["done"].extend(traffic.replay(
                scenarios, events, len(proximity["done"]),
                length * (1 - PIPELINED_SHARE - OPEN_SHARE)))
            proximity["windows"].append((began, time.perf_counter()))
    finally:
        points.close()
        scenarios.close()
    return point, proximity


def churn_phase(port: int, seed: int, seconds: float) -> Dict:
    log = traffic.ChurnLog(seed, pairs=400, reads=4000)
    writer_connection = traffic.Connection(port, timeout=DRAIN_S)
    reader_connection = traffic.Connection(port, timeout=DRAIN_S)
    try:
        # One untimed cycle first: the first insert into a freshly
        # opened overlay and the first flush (no SSAD memo yet) are
        # one-off costs, not the steady churn being measured.
        began = time.perf_counter()
        warm = traffic.Cycles(writer_connection, log, PER_FLUSH, UPDATE_RATE,
                              0.0, began, began + 1e-6)
        traffic.open_loop([warm], began, DRAIN_S)
        for line in log.reads[:2]:
            reader_connection.call(line)
        start = time.perf_counter()
        end = start + seconds
        writer = traffic.Cycles(writer_connection, log, PER_FLUSH,
                                UPDATE_RATE, PAUSE_S, start, end)
        writer.position = warm.position
        reader = traffic.FixedRate(
            reader_connection, log.reads,
            ["query", "knn"] * (len(log.reads) // 2), READ_RATE, start, end)
        traffic.open_loop([writer, reader], end, DRAIN_S)
    finally:
        writer_connection.close()
        reader_connection.close()
    return {"log": log, "warm": warm.requests, "writer": writer.requests,
            "reader": reader.requests, "window": (start, end),
            "backlog": backlog(writer.requests + reader.requests, end)}


# ----------------------------------------------------------------------
# checks (outside every timed part)
# ----------------------------------------------------------------------
def check_points(work: str, point: Dict) -> List[str]:
    """Wire answers are bit-identical to ``StoredOracle.query_batch``."""
    from repro.core import open_oracle

    pairs = point["pairs"]
    expected = open_oracle(os.path.join(work, "static.store")).query_batch(
        [s for s, _ in pairs], [t for _, t in pairs])
    problems = []
    answers = [((first + index) % len(pairs), reply)
               for first, replies in point["pipelined"]
               for index, reply in enumerate(replies)]
    answers += [(r.payload, r.reply) for r in point["open"]
                if r.reply is not None]
    for slot, reply in answers:
        message = json.loads(reply)
        if not message.get("ok"):
            continue  # counted as failed, not as wrong
        want = float(expected[slot])
        if message["result"]["distance"] != want:
            problems.append(f"point {pairs[slot]}: wire "
                            f"{message['result']['distance']!r} != {want!r}")
            break
    return problems


def check_proximity(work: str, proximity: Dict) -> List[str]:
    """Wire replies ``==`` ``replay_direct`` on an unpaged service."""
    from repro.serving.loadgen import replay_direct
    from repro.serving.service import OracleService, TerrainSpec

    service = OracleService()
    service.register(dataset.STATIC,
                     TerrainSpec(os.path.join(work, "static.store")))
    done = proximity["done"]
    events = proximity["events"][:len(done)]
    reference = replay_direct(service, dataset.STATIC, events)
    for request, want in zip(done, reference):
        got = request.result() if request.ok else None
        if got != want:
            return [f"proximity event {request.payload} "
                    f"{events[request.payload]}: wire {got!r} != {want!r}"]
    return []


def check_churn(work: str, churn: Dict) -> List[str]:
    """Insert ids are the ones the log predicts, and the published
    store equals a from-scratch rebuild after the same updates."""
    from repro.core import DynamicSEOracle, open_oracle, pack_oracle
    from repro.geodesic import GeodesicEngine
    from repro.terrain import read_mesh, sample_uniform

    problems = []
    applied = []
    for request in churn["warm"] + churn["writer"]:
        if request.kind == "flush":
            continue
        applied.append(request.payload)
        if request.kind == "insert" and request.ok:
            got = request.result()["poi"]
            if got != request.payload[3]:
                problems.append(f"insert returned id {got}, "
                                f"expected {request.payload[3]}")
    mesh = read_mesh(os.path.join(work, "terrain.off"))
    engine = GeodesicEngine(
        mesh, sample_uniform(mesh, dataset.NUM_POIS, seed=dataset.POI_SEED),
        points_per_edge=dataset.DENSITY)
    reference = DynamicSEOracle.from_store(
        open_oracle(os.path.join(work, "static.store")), engine,
        rebuild_factor=1e9)
    for update in applied:
        if update[0] == "insert":
            reference.insert(update[1], update[2])
        else:
            reference.delete(update[1])
    reference.flush(incremental=False)
    expected = os.path.join(work, "reference.store")
    pack_oracle(reference.oracle, expected, canonical=True)
    if not filecmp.cmp(expected, os.path.join(work, "live.store"),
                       shallow=False):
        problems.append("published store differs from the full rebuild")
    return problems


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def latencies_ms(requests, kinds) -> List[float]:
    return [(r.received - r.due) * 1e3 for r in requests
            if r.kind in kinds and r.ok]


def end_to_end(built: Dict, again: Dict, setups: List[float], server: Dict,
               point: Dict, proximity: Dict, churn: Dict) -> Dict:
    done = proximity["done"]

    def replay_ms(kind):
        return [(r.received - r.sent) * 1e3 for r in done
                if r.kind == kind and r.ok]

    answered = [r for r in point["open"] if r.ok]

    def point_ms(q):
        return by_round([r.due for r in answered],
                        [(r.received - r.due) * 1e3 for r in answered],
                        point["open_windows"],
                        lambda ms, _: percentile(ms, q), np.median)

    knn_ms = replay_ms("knn")
    updates_ms = latencies_ms(churn["writer"], {"insert", "delete"})
    flushes_s = [ms / 1e3 for ms in latencies_ms(churn["writer"], {"flush"})]
    reads_ms = latencies_ms(churn["reader"], {"query", "knn"})
    # Reported, not bounded: on a shared host these read host jitter
    # (the p99s) or the flush's share of a churn cycle (the reads' p50)
    # more than the program, and their run-to-run spread exceeds any
    # bound a regression check could use.
    print(f"point_p99_ms {point_ms(99):.4f} ms, knn_p99_ms "
          f"{percentile(knn_ms, 99):.4f} ms, churn_read_p50_ms "
          f"{percentile(reads_ms, 50):.4f} ms", file=sys.stderr)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(server["peak_rss_mb"], "MB"),
        "build_s": metric(min(built["build_s"], again["build_s"]), "s"),
        "store_bytes": metric(built["store_bytes"], "bytes"),
        "max_rel_error": metric(built["max_rel_error"], "ratio"),
        "point_qps": metric(by_round(
            point["arrivals"], point["arrivals"], point["pipelined_windows"],
            lambda replies, seconds: replies.size / seconds, max), "1/s"),
        "point_p50_ms": metric(point_ms(50), "ms"),
        "knn_p50_ms": metric(percentile(knn_ms, 50), "ms"),
        "range_p50_ms": metric(percentile(replay_ms("range"), 50), "ms"),
        "rnn_p50_ms": metric(percentile(replay_ms("rnn"), 50), "ms"),
        "update_p50_ms": metric(percentile(updates_ms, 50), "ms"),
        "flush_s": metric(statistics.median(flushes_s) if flushes_s else 0,
                          "s"),
        "churn_read_p99_ms": metric(percentile(reads_ms, 99), "ms"),
    }


def per_layer(work: str, server: Dict, ready: float,
              point: Dict, proximity: Dict, churn: Dict) -> Dict:
    import spans

    builder = spans.Spans(os.path.join(work, "static"))
    served = spans.Spans(os.path.join(work, "server"))
    b_spans = builder.summarize()
    startup = served.summarize([(0.0, ready)])
    lifetime = served.summarize()
    points = served.summarize(point["pipelined_windows"]
                              + point["open_windows"])
    open_window = served.summarize(point["open_windows"])
    near = served.summarize(proximity["windows"])
    churn_window = [(churn["window"][0], float("inf"))]
    churned = served.summarize(churn_window)

    def get(summary, name, key):
        return summary.get(name, {}).get(key, 0)

    def mean(summary, name, key="total_s"):
        calls = get(summary, name, "calls")
        return get(summary, name, key) / calls if calls else 0.0

    static = server["stats"][dataset.STATIC]
    paging = static.get("paging", {})
    loads, hits = paging.get("loads", 0), paging.get("hits", 0)

    # The open-loop point phase: client latency minus what the server
    # spans account for, per request.
    open_requests = [r for r in point["open"] if r.ok]
    client_us = (statistics.fmean((r.received - r.due) * 1e6
                                  for r in open_requests)
                 if open_requests else 0.0)
    attributed = sum(get(open_window, name, "self_s") for name in (
        "serving.decode", "serving.validate", "serving.encode",
        "serving.query_batch", "core.probe"))
    unattributed_us = (client_us - attributed * 1e6 / len(open_requests)
                       if open_requests else 0.0)

    flushes = get(churned, "core.flush_rebuild", "calls")
    reused = served.noted("flush.reused_rows", churn_window)
    computed = served.noted("flush.computed_rows", churn_window)
    replayed = len(proximity["done"])

    open_loop = point["open"] + churn["writer"] + churn["reader"]
    lateness = [(r.sent - r.due) * 1e3 for r in open_loop
                if r.sent is not None]
    waiting = point["backlog"] + churn["backlog"]

    spans_cost = (len(builder.start) * builder.meta["span_cost_s"]
                  + len(served.start) * server["span_cost_s"])
    timed = ((builder.meta["window"][1] - builder.meta["window"][0])
             + (churn["window"][1] - point["pipelined_windows"][0][0]))

    layers = {
        "terrain.setup_s": (get(startup, "terrain.setup", "total_s"), "s"),
        "geodesic.engine_s": (get(startup, "geodesic.engine", "total_s"),
                              "s"),
        "geodesic.ssad_calls": (builder.noted("ssad_calls"),
                                "count"),
        "geodesic.settled_nodes": (builder.noted("settled_nodes"),
                                   "count"),
        "geodesic.heap_pushes": (builder.noted("heap_pushes"),
                                 "count"),
        "geodesic.ssad_s": (get(b_spans, "geodesic.ssad", "self_s"), "s"),
        "geodesic.flush_ssad_calls": (
            served.noted("ssad_calls", churn_window) / flushes
            if flushes else 0,
            "count"),
        "core.tree_s": (builder.noted("build.tree_seconds"), "s"),
        "core.tree_nodes": (builder.noted("build.compressed_nodes"), "count"),
        "core.height": (builder.noted("build.height"), "count"),
        "core.enhanced_s": (builder.noted("build.enhanced_seconds"), "s"),
        "core.enhanced_edges": (builder.noted("build.enhanced_edges"), "count"),
        "core.pairs_s": (builder.noted("build.pairs_seconds"),
                         "s"),
        "core.pairs_considered": (builder.noted("build.pairs_considered"), "count"),
        "core.pairs_stored": (builder.noted("build.pairs_stored"),
                              "count"),
        "datastructures.hash_s": (builder.noted("build.hash_seconds"), "s"),
        "core.pack_s": (mean(b_spans, "core.pack"), "s"),
        "core.open_s": (mean(lifetime, "core.open"), "s"),
        "core.probe_calls": (get(lifetime, "core.probe", "calls"), "count"),
        "core.probe_queries": (get(lifetime, "core.probe", "items"),
                               "count"),
        "core.probe_us_per_query": (
            get(lifetime, "core.probe", "self_s") * 1e6
            / max(1, get(lifetime, "core.probe", "items")), "us"),
        "core.page_loads": (loads, "count"),
        "core.page_evictions": (paging.get("evictions", 0), "count"),
        "core.page_hits": (hits, "count"),
        "core.page_hit_ratio": (hits / (hits + loads) if hits + loads else 0,
                                "ratio"),
        "core.page_peak_bytes": (paging.get("peak_resident_bytes", 0),
                                 "bytes"),
        "core.insert_s": (mean(churned, "core.insert"), "s"),
        "core.delete_s": (mean(churned, "core.delete"), "s"),
        "core.overlay_size": (served.noted("overlay_size", churn_window,
                                           max), "count"),
        "core.flush_rebuild_s": (mean(churned, "core.flush_rebuild"), "s"),
        "core.publish_s": (
            (get(churned, "serving.flush", "total_s")
             - get(churned, "core.flush_rebuild", "total_s")) / flushes
            if flushes else 0, "s"),
        "core.flush_reused_rows": (reused / flushes if flushes else 0,
                                   "count"),
        "core.flush_computed_rows": (computed / flushes if flushes else 0,
                                     "count"),
        "core.flush_row_reuse_ratio": (
            reused / (reused + computed) if reused + computed else 0,
            "ratio"),
        "queries.knn_s": (mean(near, "queries.knn", "self_s"), "s"),
        "queries.range_s": (mean(near, "queries.range", "self_s"), "s"),
        "queries.rnn_s": (mean(near, "queries.rnn", "self_s"), "s"),
        "queries.distances_per_request": (
            get(near, "core.probe", "items") / replayed if replayed else 0,
            "count"),
        "serving.decode_us": (mean(points, "serving.decode") * 1e6, "us"),
        "serving.validate_us": (mean(points, "serving.validate") * 1e6,
                                "us"),
        "serving.encode_us": (mean(points, "serving.encode") * 1e6, "us"),
        "serving.dispatch_us": (
            mean(points, "serving.query_batch", "self_s") * 1e6, "us"),
        "serving.server_batches": (static["server_batches"], "count"),
        "serving.mean_server_batch": (static["mean_server_batch"], "count"),
        "serving.coalesce_ratio": (static["coalesce_ratio"], "ratio"),
        "serving.unattributed_us": (unattributed_us, "us"),
        "loadgen.lateness_p99_ms": (percentile(lateness, 99), "ms"),
        "loadgen.backlog_end": (waiting, "count"),
        "trace.overhead_pct": (100.0 * spans_cost / timed, "%"),
    }
    return {name: metric(value, unit) for name, (value, unit)
            in layers.items()}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    """One run; the servers and this generator get a CPU each."""
    where, generating = cpus()
    anywhere = where | generating
    config = WORKLOADS[workload]
    os.makedirs(dataset.WORK_ROOT, exist_ok=True)
    work = os.path.join(dataset.WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(work)
    server: Optional[Server] = None
    try:
        built = build(work, "static", trace, anywhere)
        static = os.path.join(work, "static.store")
        shutil.copyfile(static, os.path.join(work, "live.store"))
        budget = paged_budget(static) if config["paged"] else None

        os.sched_setaffinity(0, generating)
        setups = []
        for launch in range(SETUPS):
            server = Server(work, f"setup{launch}", budget, 0, where)
            setups.append(server.setup_s)
            server.stop()
            server = None
        launched = time.perf_counter()
        server = Server(work, "server", budget, trace, where)
        ready = launched + server.setup_s
        point, proximity = read_phases(server.port, seed,
                                       seconds * READ_SHARE,
                                       config["point_rate"])
        churn = churn_phase(server.port, seed, seconds * CHURN_SHARE)
        report = server.stop()
        server = None
        again = build(work, "again", 0, anywhere)

        problems = []
        for checked in (built, again):
            if not checked["reopened_equal"]:
                problems.append("reopened store differs from the oracle")
            if not 0 < checked["max_rel_error"] <= dataset.EPSILON:
                problems.append(f"max_rel_error {checked['max_rel_error']} "
                                f"outside (0, {dataset.EPSILON}]")
        problems += check_points(work, point)
        problems += check_proximity(work, proximity)
        problems += check_churn(work, churn)

        phases = {
            "point-pipelined": [b'"ok":true' in reply
                                for _, replies in point["pipelined"]
                                for reply in replies],
            "point-open": [r.ok for r in point["open"]],
            "scenarios": [r.ok for r in proximity["done"]],
            "churn-writes": [r.ok for r in churn["warm"] + churn["writer"]],
            "churn-reads": [r.ok for r in churn["reader"]],
        }
        for phase, outcomes in phases.items():
            print(f"{phase}: attempted {len(outcomes)}, failed "
                  f"{outcomes.count(False)}", file=sys.stderr)
        requests = sum(len(outcomes) for outcomes in phases.values())
        answered_ok = sum(sum(outcomes) for outcomes in phases.values())
        if trace:
            metrics = per_layer(work, report, ready, point,
                                proximity, churn)
        else:
            metrics = end_to_end(built, again, setups, report, point,
                                 proximity, churn)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": requests + 2 + SETUPS + 1,
        "failed": requests - answered_ok,
        "metrics": metrics,
    }))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    dataset.use_source_tree()
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

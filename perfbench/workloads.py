"""The benchmark's three workloads, each a closed loop driven from this process.

* ``cold-mix``: one in-process caller runs ``session.sql`` over a
  bulk-loaded k-index.  Every query series is fresh, so the answer cache
  never hits while the plan cache always does: the time goes to planning,
  index traversal and verification, and the sequential scan.
* ``hot-wire``: client threads of this process query a ``repro.serve``
  server running in a child process (``hot_server.py``).  Zipf-skewed
  parameters keep the answer cache hit rate near 0.9, so the median is the
  cached wire path (parse, cache, protocol, admission, lock) and the tail
  is the misses.
* ``durable-ingest``: one caller on a durable session interleaves 50-row
  ``insert_many`` batches with fresh queries and periodic checkpoints, in
  epochs that each start from the same checkpointed store.  A last,
  untimed epoch of fixed length drops its session without closing it (a
  crash), and the store is reopened.

Each workload returns a :class:`Run`: latency samples, the answers to check
against the oracle, and the per-layer measurements of a traced run.  Layers
are measured from outside: in a traced run, every other block of operations
is wrapped in spans and followed by direct calls into the layers' public
functions with the same inputs (``probe``), timed by this module.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import pickle
import shutil
import socket
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro
from repro import KIndex, ServerClient, moving_average_spectral
from repro.core.query.parser import parse
from repro.core.query.planner import IndexNearestPlan, IndexRangePlan
from repro.index.scan import SequentialScan
from repro.server.protocol import decode_answer, encode_answer, encode_frame, recv_frame
from repro.storage.durable import DurableDatabase
from repro.storage.durable.wal import WriteAheadLog
from repro.timeseries.series import TimeSeries

from oracle import MAVG_WINDOW, Query
from spans import OFF

LENGTH = 64
RELATION = "walks"
MAVG = f"mavg{MAVG_WINDOW}"
#: Durable workload's write-ahead-log policy (the library default).
WAL_SYNC = "batch"
#: Zipf exponent of the hot-wire parameter draws.
ZIPF_EXPONENT = 1.1
#: In a traced hot-wire run, probe every this-many traced request pairs.
HOT_PROBE_EVERY = 4
SERVER_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hot_server.py")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them."""

    #: 5000 rows keep the run steady on a shared host (at 20000 the
    #: 20 MB coefficient matrix made p99 spread 0.3 across runs against
    #: 0.04 here) and give ~3000 queries per 30 s, so p99 has ~30 samples
    #: beyond it; the index is still several times slower than the scan.
    cold_rows: int = 5_000
    hot_rows: int = 3_000
    #: Distinct hot-wire query series.  With range and NN alternating, the
    #: working set is twice this many answer-cache keys against the
    #: default 1024-entry cache, which keeps the hit rate near 0.9 (with
    #: evictions) instead of drifting to 1.0 over a run.
    hot_query_series: int = 1_000
    #: Untimed requests per client before timing starts.  They get past
    #: the all-miss start; the cache still fills during the measured phase
    #: (warming it completely would take longer than the measurement).
    hot_warmup: int = 500
    durable_rows: int = 5_000
    batch_rows: int = 50
    checkpoint_every: int = 20
    #: Batches per epoch of durable-ingest: two checkpoints' worth and one
    #: more, so that, as in an unbroken stream, every checkpoint is
    #: followed by a measured query (the first after a checkpoint is slow,
    #: and these queries are ~1% of all, where ``query_p99_ms`` reads).
    epoch_batches: int = 41
    #: Batches written before the crash epoch's checkpoint, and again
    #: after it, before the crash.
    tail_batches: int = 5
    #: ``setup_s`` is the median of this many set-ups (the host's speed
    #: wanders over seconds, so one set-up is a poor sample).
    setup_repeats: int = 7
    reopen_repeats: int = 3


FULL = Sizes()


@dataclass(frozen=True)
class Template:
    """One query shape of a workload's mix."""

    kind: str  # "range" or "nn"
    epsilon: float = 0.0
    k: int = 0
    transformed: bool = False

    @property
    def sql(self) -> str:
        if self.kind == "range":
            text = f"SELECT FROM {RELATION} WHERE dist(series, $q) < {self.epsilon}"
        else:
            text = f"SELECT FROM {RELATION} NEAREST {self.k} TO $q"
        return text + (f" USING {MAVG}" if self.transformed else "")

    def query(self, values: np.ndarray, rows: int | None = None) -> Query:
        return Query(self.kind, values, self.transformed, self.epsilon, self.k, rows)


COLD_MIX = (Template("range", 3.0), Template("range", 6.0), Template("range", 10.0),
            Template("nn", k=5), Template("range", 4.0, transformed=True),
            Template("nn", k=5, transformed=True))
HOT_WIRE = (Template("range", 6.0), Template("nn", k=5))
DURABLE_INGEST = (Template("range", 6.0), Template("nn", k=5), Template("range", 10.0),
                  Template("range", 4.0, transformed=True))


class AnswerLog:
    """Answers awaiting the oracle check, and the rows they were computed
    over.  They go to files in the run's work directory as they arrive, so
    holding them does not make the benchmark's own memory (``peak_rss_mb``)
    grow with the number of queries."""

    def __init__(self, stem: str) -> None:
        self.stem = stem
        self._file = open(stem + "-answers.pickle", "wb")
        self._lock = threading.Lock()

    def add(self, query: Query, ids: np.ndarray, distances: np.ndarray) -> None:
        with self._lock:
            pickle.dump((query, ids, distances), self._file, pickle.HIGHEST_PROTOCOL)

    def set_rows(self, values: np.ndarray, object_ids: list[int]) -> None:
        """The raw rows in insertion order and their object ids."""
        np.save(self.stem + "-rows.npy", values)
        np.save(self.stem + "-ids.npy", np.asarray(object_ids, dtype=np.int64))

    def rows(self) -> tuple[np.ndarray, list[int]]:
        return np.load(self.stem + "-rows.npy"), np.load(self.stem + "-ids.npy").tolist()

    def records(self):
        """Every ``(query, ids, distances)`` logged, in order; ends the log."""
        self._file.close()
        with open(self._file.name, "rb") as handle:
            while True:
                try:
                    yield pickle.load(handle)
                except EOFError:
                    return


class Caller:
    """One closed-loop caller: its attempts, failures, query latencies (in
    ``array`` so they cost 8 bytes each) and answers."""

    def __init__(self, answers: AnswerLog) -> None:
        self.answers = answers
        self.attempted = 0
        self.failures: list[str] = []
        self.query_ms = array("d")
        #: Traced runs only: latencies of the queries run inside spans.
        self.traced_query_ms = array("d")

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def query(self, call: Callable, template: Template, series: TimeSeries, *,
              tracer=OFF, op_id: int | None = None, timed: bool = True,
              rows: int | None = None):
        """Run ``template`` with ``$q = series`` through ``call`` (a session's
        or a client's ``sql``), inside a ``query`` span of ``tracer``.  Keeps
        the latency when ``timed`` (as traced when ``tracer`` is on) and the
        answers, for the oracle over the first ``rows`` rows; returns the
        outcome, or ``None`` after recording the failure."""
        self.attempted += 1
        try:
            began = time.perf_counter()
            with tracer.span("query", op_id):
                outcome = call(template.sql, q=series)
            latency_ms = (time.perf_counter() - began) * 1000.0
        except Exception as error:  # noqa: BLE001 - a failed operation is a result
            self.fail(f"query {series.name}: {type(error).__name__}: {error}")
            return None
        if timed:
            (self.traced_query_ms if tracer.enabled else self.query_ms).append(latency_ms)
        ids = np.array([obj.object_id for obj, _ in outcome.answers], dtype=np.int64)
        distances = np.array([distance for _, distance in outcome.answers], dtype=np.float64)
        self.record(template, series, rows, ids, distances)
        return outcome

    def record(self, template: Template, series: TimeSeries, rows: int | None,
               ids: np.ndarray, distances: np.ndarray) -> None:
        self.answers.add(template.query(series.values, rows), ids, distances)


class Run(Caller):
    """What one workload run measured."""

    def __init__(self, tracer, workdir: str) -> None:
        self.workdir = workdir
        #: One log per set of rows queried (durable-ingest's epochs differ).
        self.logs: list[AnswerLog] = []
        super().__init__(self.new_log())
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.write_ms = array("d")
        self.recovery_s: list[float] = []
        self.measured_s = 0.0
        #: Bytes in the store directory per byte of raw series values
        #: (durable-ingest only).
        self.disk_bytes_per_user_byte: float | None = None
        #: Per-layer samples (medians are reported) and exact values.
        self.samples: dict[str, list[float]] = {}
        self.layer: dict[str, float] = {}
        self.env: dict[str, Any] = {}

    def new_log(self) -> AnswerLog:
        """Start logging answers over a new set of rows."""
        self.answers = AnswerLog(os.path.join(self.workdir, f"log-{len(self.logs)}"))
        self.logs.append(self.answers)
        return self.answers

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
class Streams:
    """Independent random streams derived from the run's seed."""

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)

    def __call__(self, stream: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self._seed, stream]))


def walks(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random walks: a uniform start in [20, 99), uniform steps in [-4, 4)."""
    values = np.empty((count, LENGTH))
    values[:, 0] = rng.uniform(20.0, 99.0, size=count)
    steps = rng.uniform(-4.0, 4.0, size=(count, LENGTH - 1))
    values[:, 1:] = values[:, :1] + np.cumsum(steps, axis=1)
    return values


def as_series(values: np.ndarray, prefix: str, offset: int = 0) -> list[TimeSeries]:
    return [TimeSeries(row, name=f"{prefix}-{offset + i}") for i, row in enumerate(values)]


def timed_us(tracer, name: str, call: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``call`` inside a span; return its result and duration in µs."""
    with tracer.span(name):
        started = time.perf_counter_ns()
        result = call()
        elapsed = time.perf_counter_ns() - started
    return result, elapsed / 1000.0


def is_traced(tracer, op: int, block: int) -> bool:
    """Traced runs alternate untraced and traced blocks of ``block`` ops."""
    return tracer.enabled and (op // block) % 2 == 1


def cache_counts(cache) -> tuple[int, int, int]:
    return cache.stats.hits, cache.stats.misses, cache.stats.evictions


def cache_layer(run: Run, prefix: str, before: tuple, after: tuple,
                less_hits: int = 0, less_misses: int = 0) -> None:
    hits = after[0] - before[0] - less_hits
    misses = after[1] - before[1] - less_misses
    run.layer[f"{prefix}.hit_rate"] = hits / max(1, hits + misses)
    if prefix == "answer_cache":
        run.layer["answer_cache.evictions"] = after[2] - before[2]


def new_session(data: list[TimeSeries], path: str | None = None):
    """A session over ``data`` with a bulk-loaded k-index and ``USING mavg8``."""
    session = repro.connect(path=path, wal_sync=WAL_SYNC) if path else repro.connect()
    session.relation(RELATION).insert_many(data).with_index(KIndex.bulk_load(data))
    session.with_transformation(MAVG, moving_average_spectral(LENGTH, MAVG_WINDOW))
    return session


# ----------------------------------------------------------------------
# cold-mix
# ----------------------------------------------------------------------
def cold_mix(seed: int, seconds: float, tracer, sizes: Sizes, workdir: str) -> Run:
    run = Run(tracer, workdir)
    streams = Streams(seed)
    values = walks(streams(0), sizes.cold_rows)
    data = as_series(values, "walk")
    query_rng = streams(1)
    session = None
    for _ in range(sizes.setup_repeats):
        if session is not None:
            session.close()
            session = None
            gc.collect()
        started = time.perf_counter()
        session = new_session(data)
        # Statistics are sampled on the first plan of each query shape:
        # that lazy work is set-up, not part of any timed query.
        for number, template in enumerate(COLD_MIX):
            run.query(session.sql, template, TimeSeries(walks(query_rng, 1)[0],
                                                        name=f"warm-{number}"), timed=False)
        run.setup_s.append(time.perf_counter() - started)
    run.answers.set_rows(values, [series.object_id for series in data])

    engine = session.engine
    index = session.database.index(RELATION)
    scan = SequentialScan(store=session.database.columnar_store(RELATION))
    planned_index = invocations = range_answers = range_candidates = 0
    plan_before = cache_counts(session.plan_cache)
    answer_before = cache_counts(session.answer_cache)
    op = 0
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        template = COLD_MIX[op % len(COLD_MIX)]
        query = TimeSeries(walks(query_rng, 1)[0], name=f"q-{op}")
        traced = is_traced(tracer, op, len(COLD_MIX))
        before = engine.planner.invocations
        outcome = run.query(session.sql, template, query,
                            tracer=tracer if traced else OFF, op_id=op)
        if outcome is not None:
            invocations += engine.planner.invocations - before
            chose_index = isinstance(outcome.plan, (IndexRangePlan, IndexNearestPlan))
            planned_index += chose_index
            if traced:
                answers, candidates = probe_cold(run, tracer, engine, index, scan, template,
                                                 query, op, chose_index)
                range_answers += answers
                range_candidates += candidates
        op += 1
    run.measured_s = time.perf_counter() - started

    if tracer.enabled:
        run.layer["planner.invocations"] = invocations
        run.layer["planner.index_share"] = planned_index / max(1, op)
        run.layer["kindex.precision"] = range_answers / max(1, range_candidates)
        cache_layer(run, "plan_cache", plan_before, cache_counts(session.plan_cache))
        cache_layer(run, "answer_cache", answer_before, cache_counts(session.answer_cache))
    session.close()
    return run


def probe_cold(run: Run, tracer, engine, index, scan, template: Template,
               query: TimeSeries, op: int, chose_index: bool) -> tuple[int, int]:
    """Call each layer the query passed through directly, with its inputs;
    returns the range answers and k-index candidates (0, 0 for NN)."""
    transformation = engine.transformation(MAVG if template.transformed else None)
    with tracer.span("probe", op):
        node, elapsed = timed_us(tracer, "parser.parse", lambda: parse(template.sql))
        run.sample("parser.parse_us", elapsed)
        _, elapsed = timed_us(tracer, "planner.plan", lambda: engine.planner.plan(
            node, transformation=transformation))
        run.sample("planner.plan_us", elapsed)
        _, elapsed = timed_us(tracer, "features.extract",
                              lambda: index.extractor.extract(query))
        run.sample("features.extract_us", elapsed)
        if template.kind == "range":
            result, index_us = timed_us(tracer, "kindex.range", lambda: index.range_query(
                query, template.epsilon, transformation=transformation))
            _, scan_us = timed_us(tracer, "scan.range", lambda: scan.range_query(
                query, template.epsilon, transformation=transformation))
            run.sample("kindex.range_us", index_us)
            run.sample("scan.range_us", scan_us)
        else:
            result, index_us = timed_us(tracer, "kindex.nn", lambda: index.nearest_neighbors(
                query, template.k, transformation=transformation))
            _, scan_us = timed_us(tracer, "scan.nn", lambda: scan.nearest_neighbors(
                query, template.k, transformation=transformation))
            run.sample("kindex.nn_us", index_us)
            run.sample("scan.nn_us", scan_us)
    counters = result.statistics
    run.sample("kindex.node_accesses", counters.node_accesses)
    run.sample("kindex.candidates", counters.candidates)
    run.sample("kindex.record_fetches", counters.record_fetches)
    chosen = index_us if chose_index else scan_us
    run.sample("planner.regret", chosen / min(index_us, scan_us))
    if template.kind == "range":
        return len(result.answers), counters.candidates
    return 0, 0


# ----------------------------------------------------------------------
# hot-wire
# ----------------------------------------------------------------------
def zipf_ranks(rng: np.random.Generator, universe: int, count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, universe + 1) ** ZIPF_EXPONENT
    return rng.choice(universe, size=count, p=weights / weights.sum())


class ServerProcess:
    """The hot-wire server, running ``hot_server.py`` in a process of its own
    so that its threads and the client threads do not share one interpreter
    lock.  The process builds and starts its server ``repeats`` times and
    reports each set-up's duration; the last server keeps running."""

    def __init__(self, seed: int, rows: int, repeats: int) -> None:
        self.process = subprocess.Popen(
            [sys.executable, SERVER_SCRIPT, "--seed", str(seed), "--rows", str(rows),
             "--repeats", str(repeats)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            hello = self._reply()
        except BaseException:
            self.stop()
            raise
        self.address = (hello["address"][0], int(hello["address"][1]))
        self.object_ids: list[int] = hello["ids"]
        self.setup_s: list[float] = hello["setup_s"]

    def _reply(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited with code {self.process.wait()}")
        return json.loads(line)

    def counters(self) -> dict:
        """The server's answer- and plan-cache ``(hits, misses, evictions)``."""
        self.process.stdin.write("counters\n")
        self.process.stdin.flush()
        return self._reply()

    def stop(self) -> None:
        """Close the command pipe (the server then stops) and wait for exit."""
        self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class HotClient(Caller):
    """One closed-loop client thread.  The data never changes, so a query
    series' answers are the same on every request: each distinct answer per
    (series, template) is logged once, keeping the log's size bounded."""

    def __init__(self, number: int, client: ServerClient, draws: np.ndarray,
                 answers: AnswerLog) -> None:
        super().__init__(answers)
        self.number = number
        self.client = client
        self.draws = draws
        self.op = 0
        self.finished = 0.0
        self.seen: dict[tuple[Template, str], set[bytes]] = {}
        #: Server cache lookups made by probes, taken out of the hit rates.
        self.probe_cache_hits = 0
        self.probe_cache_misses = 0

    def record(self, template: Template, series: TimeSeries, rows: int | None,
               ids: np.ndarray, distances: np.ndarray) -> None:
        seen = self.seen.setdefault((template, series.name), set())
        answer = ids.tobytes() + distances.tobytes()
        if answer not in seen:
            seen.add(answer)
            super().record(template, series, rows, ids, distances)


def hot_wire(seed: int, seconds: float, tracer, sizes: Sizes, workdir: str) -> Run:
    run = Run(tracer, workdir)
    streams = Streams(seed)
    values = walks(streams(0), sizes.hot_rows)
    queries = as_series(walks(streams(1), sizes.hot_query_series), "hq")
    # Which series is most popular is itself seeded.
    by_rank = streams(2).permutation(sizes.hot_query_series)
    client_count = min(2, os.cpu_count() or 1)
    run.env["clients"] = client_count
    server = None
    clients: list[ServerClient] = []
    try:
        server = ServerProcess(seed, sizes.hot_rows, sizes.setup_repeats)
        run.setup_s.extend(server.setup_s)
        clients = [ServerClient(server.address, timeout_s=60.0) for _ in range(client_count)]
        run.answers.set_rows(values, server.object_ids)
        # The in-process side of the wire-overhead probe: a session over
        # the same rows, answering the same cached queries.
        twin = new_session(as_series(values, "walk")) if tracer.enabled else None

        states = []
        for number, client in enumerate(clients):
            # Enough draws for any plausible run; the loop wraps if not.
            ranks = zipf_ranks(streams(10 + number), sizes.hot_query_series, 1 << 17)
            states.append(HotClient(number, client, by_rank[ranks], run.answers))

        def loop(state: HotClient, count: int | None, deadline: float | None) -> None:
            probe_sock = socket.socketpair() if tracer.enabled else None
            try:
                done = 0
                while (done < count) if count is not None else \
                        (time.perf_counter() < deadline):
                    hot_request(run, state, twin, queries, tracer,
                                timed=count is None, probe_sock=probe_sock)
                    done += 1
            finally:
                state.finished = time.perf_counter()
                if probe_sock is not None:
                    for sock in probe_sock:
                        sock.close()

        def phase(count: int | None, deadline: float | None) -> None:
            threads = [threading.Thread(target=loop, args=(state, count, deadline))
                       for state in states]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        phase(sizes.hot_warmup, None)
        before = server.counters() if tracer.enabled else None
        started = time.perf_counter()
        phase(None, started + seconds)
        run.measured_s = max(state.finished for state in states) - started

        for state in states:
            run.query_ms.extend(state.query_ms)
            run.traced_query_ms.extend(state.traced_query_ms)
            run.attempted += state.attempted
            run.failures.extend(state.failures)
        if tracer.enabled:
            after = server.counters()
            probe_hits = sum(state.probe_cache_hits for state in states)
            probe_misses = sum(state.probe_cache_misses for state in states)
            cache_layer(run, "answer_cache", before["answer_cache"], after["answer_cache"],
                        probe_hits, probe_misses)
            cache_layer(run, "plan_cache", before["plan_cache"], after["plan_cache"],
                        probe_hits + probe_misses)
            run.layer["server.rejected"] = clients[0].stats()["rejected"]
            run.layer["client.retries"] = sum(client.retries for client in clients)
            twin.close()
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop()
    return run


def hot_request(run: Run, state: HotClient, twin, queries: list[TimeSeries], tracer, *,
                timed: bool, probe_sock) -> None:
    op = state.op
    state.op += 1
    template = HOT_WIRE[op % len(HOT_WIRE)]
    query = queries[int(state.draws[op % len(state.draws)])]
    traced = timed and is_traced(tracer, op, len(HOT_WIRE))
    op_id = state.number << 32 | op
    outcome = state.query(state.client.sql, template, query,
                          tracer=tracer if traced else OFF, op_id=op_id, timed=timed)
    if outcome is not None and traced and (op // len(HOT_WIRE) // 2) % HOT_PROBE_EVERY == 0:
        probe_wire(run, state, twin, template, query, tracer, probe_sock, op_id)


def probe_wire(run: Run, state: HotClient, twin, template: Template,
               query: TimeSeries, tracer, probe_sock, op_id: int) -> None:
    """Ping; the same (now cached) query over the wire and in process; the
    protocol's encode and decode of its answers."""
    with tracer.span("probe", op_id):
        _, elapsed = timed_us(tracer, "server.ping", state.client.ping)
        run.sample("server.ping_ms", elapsed / 1000.0)
        remote, wire_us = timed_us(tracer, "client.sql",
                                   lambda: state.client.sql(template.sql, q=query))
        if remote.from_cache:
            state.probe_cache_hits += 1
        else:
            state.probe_cache_misses += 1
        with tracer.span("twin.fill"):
            twin.sql(template.sql, q=query)
        local, local_us = timed_us(tracer, "session.sql",
                                   lambda: twin.sql(template.sql, q=query))
        run.sample("server.wire_overhead_ms", (wire_us - local_us) / 1000.0)
        _, elapsed = timed_us(tracer, "parser.parse", lambda: parse(template.sql))
        run.sample("parser.parse_us", elapsed)
        message = {"ok": True, "answers": None, "from_cache": True}
        frame, elapsed = timed_us(tracer, "protocol.encode", lambda: encode_frame(
            dict(message, answers=[encode_answer(answer) for answer in local.answers])))
        run.sample("protocol.encode_us", elapsed)
        probe_sock[0].sendall(frame)
        _, elapsed = timed_us(tracer, "protocol.decode", lambda: [
            decode_answer(answer) for answer in recv_frame(probe_sock[1])["answers"]])
        run.sample("protocol.decode_us", elapsed)


# ----------------------------------------------------------------------
# durable-ingest
# ----------------------------------------------------------------------
def directory_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total


def durable_ingest(seed: int, seconds: float, tracer, sizes: Sizes, workdir: str) -> Run:
    run = Run(tracer, workdir)
    run.env["wal_sync"] = WAL_SYNC
    streams = Streams(seed)
    base = walks(streams(0), sizes.durable_rows)
    base_series = as_series(base, "walk")
    query_rng = streams(1)
    base_store = None
    for attempt in range(sizes.setup_repeats):
        if base_store is not None:
            shutil.rmtree(base_store)
            gc.collect()
        base_store = os.path.join(workdir, f"base-{attempt}")
        started = time.perf_counter()
        session = new_session(base_series, base_store)
        session.checkpoint()
        for number, template in enumerate(DURABLE_INGEST):
            run.query(session.sql, template, TimeSeries(walks(query_rng, 1)[0],
                                                        name=f"warm-{number}"), timed=False)
        run.setup_s.append(time.perf_counter() - started)
        session.close()
    run.answers.set_rows(base, [series.object_id for series in base_series])

    ingest = Ingest(run, sizes, base_store, base, base_series, query_rng, streams(2))
    epoch = 0
    while run.measured_s < seconds:
        ingest.open(os.path.join(workdir, f"epoch-{epoch}"))
        started = time.perf_counter()
        deadline = started + seconds - run.measured_s
        while ingest.epoch_batches < sizes.epoch_batches and time.perf_counter() < deadline:
            ingest.batch(timed=True)
            if ingest.since_checkpoint >= sizes.checkpoint_every:
                ingest.checkpoint()
        run.measured_s += time.perf_counter() - started
        ingest.close()
        epoch += 1
    if tracer.enabled:
        ingest.report()

    # The crash, after a fixed amount of writes on a fresh copy of the base
    # store: some checkpointed, the last ones only in the write-ahead log.
    ingest.open(os.path.join(workdir, "crash"))
    for _ in range(sizes.tail_batches):
        ingest.batch(timed=False)
    ingest.checkpoint()
    for _ in range(sizes.tail_batches):
        ingest.batch(timed=False)
    store, acknowledged, rows = ingest.crash()
    run.disk_bytes_per_user_byte = directory_bytes(store) / (rows * LENGTH * 8)
    reopen(run, store, workdir, sizes, query_rng, acknowledged, rows)
    return run


class Ingest:
    """The durable-ingest caller.  It works in epochs, each on a fresh copy
    of the checkpointed base store that gets at most ``epoch_batches``
    batches, so the store's size, and with it memory and query cost, does
    not grow with how many batches a run manages."""

    def __init__(self, run: Run, sizes: Sizes, base_store: str, base: np.ndarray,
                 base_series: list[TimeSeries], query_rng, insert_rng) -> None:
        self.run = run
        self.tracer = run.tracer
        self.sizes = sizes
        self.base_store = base_store
        self.base = base
        self.base_series = base_series
        self.base_ids = [series.object_id for series in base_series]
        self.query_rng = query_rng
        self.insert_rng = insert_rng
        self.op = self.batch_number = 0
        self.invocations = self.index_plans = self.queries = 0
        self.buffer_hits = self.buffer_misses = 0
        #: Plan-cache (hits, misses, evictions) summed over the epochs.
        self.plan_counts = (0, 0, 0)
        self.shadow_index = self.shadow_db = None
        if self.tracer.enabled:
            # Stand-ins for the layers a write passes through, so their cost
            # is measured by direct calls without desynchronising the store
            # (the index is rebuilt with each epoch's store).
            self.shadow_db = DurableDatabase(os.path.join(os.path.dirname(base_store),
                                                          "shadow"), wal_sync=WAL_SYNC)
            self.shadow_db.create_relation(RELATION)

    def open(self, store: str) -> None:
        """Start an epoch on a copy of the base store, with a fresh answer log."""
        self.store = store
        shutil.copytree(self.base_store, store)
        self.session = repro.connect(path=store, wal_sync=WAL_SYNC)
        self.session.with_transformation(MAVG, moving_average_spectral(LENGTH, MAVG_WINDOW))
        self.handle = self.session.relation(RELATION)
        self.chunks = [self.base]
        self.object_ids = list(self.base_ids)
        self.acknowledged: set[str] = set()
        self.epoch_batches = self.since_checkpoint = 0
        self.run.new_log()
        if self.tracer.enabled:
            self.shadow_index = KIndex.bulk_load(self.base_series)
        # As in set-up: the first plan of each query shape samples statistics.
        for number, template in enumerate(DURABLE_INGEST):
            self.run.query(self.session.sql, template,
                           TimeSeries(walks(self.query_rng, 1)[0], name=f"rewarm-{number}"),
                           timed=False, rows=len(self.object_ids))
        self.plan_before = cache_counts(self.session.plan_cache)

    def _end(self) -> None:
        after = cache_counts(self.session.plan_cache)
        self.plan_counts = tuple(total + now - then for total, now, then
                                 in zip(self.plan_counts, after, self.plan_before))
        self.run.answers.set_rows(np.vstack(self.chunks), self.object_ids)

    def close(self) -> None:
        self._end()
        self.session.close()
        shutil.rmtree(self.store)

    def crash(self) -> tuple[str, set[str], int]:
        """Drop the session without checkpoint or close, once the batch
        policy's time bound has passed (so every acknowledged write is
        inside its durability promise).  Returns the store, the names of
        the rows written in this epoch and the number of rows."""
        self._end()
        time.sleep(2 * self.session.database.wal_batch_interval_ms / 1000.0)
        del self.handle, self.session
        gc.collect()
        return self.store, self.acknowledged, len(self.object_ids)

    def batch(self, timed: bool) -> None:
        """One ``insert_many`` batch, then one query of each template."""
        tracer, run = self.tracer, self.run
        number = self.batch_number
        self.batch_number += 1
        values = walks(self.insert_rng, self.sizes.batch_rows)
        series = as_series(values, "row", number * self.sizes.batch_rows)
        traced = timed and is_traced(tracer, number, 1)
        run.attempted += 1
        try:
            began = time.perf_counter()
            with (tracer if traced else OFF).span("write", number):
                self.handle.insert_many(series)
            elapsed_ms = (time.perf_counter() - began) * 1000.0
        except Exception as error:  # noqa: BLE001 - a failed operation is a result
            run.fail(f"batch {number}: {type(error).__name__}: {error}")
            return
        if timed:
            run.write_ms.append(elapsed_ms)
        self.chunks.append(values)
        self.object_ids.extend(item.object_id for item in series)
        self.acknowledged.update(item.name for item in series)
        self.epoch_batches += 1
        self.since_checkpoint += 1
        if traced:
            _, elapsed = timed_us(tracer, "kindex.extend",
                                  lambda: self.shadow_index.extend(series))
            run.sample("kindex.insert_us_per_row", elapsed / len(series))
            _, elapsed = timed_us(tracer, "relation.extend",
                                  lambda: self.shadow_db.relation(RELATION).extend(series))
            run.sample("relation.commit_us_per_row", elapsed / len(series))
        for template in DURABLE_INGEST:
            self.query(template, traced, timed)

    def query(self, template: Template, traced: bool, timed: bool) -> None:
        op = self.op
        self.op += 1
        engine = self.session.engine
        before = engine.planner.invocations
        outcome = self.run.query(self.session.sql, template,
                                 TimeSeries(walks(self.query_rng, 1)[0], name=f"q-{op}"),
                                 tracer=self.tracer if traced else OFF, op_id=op,
                                 timed=timed, rows=len(self.object_ids))
        if outcome is None or not timed:
            return
        self.invocations += engine.planner.invocations - before
        self.queries += 1
        if isinstance(outcome.plan, (IndexRangePlan, IndexNearestPlan)):
            self.index_plans += 1
        else:
            self.buffer_hits += outcome.statistics.buffer_hits
            self.buffer_misses += outcome.statistics.buffer_misses
        if traced:
            tracer, run = self.tracer, self.run
            with tracer.span("probe", op):
                node, elapsed = timed_us(tracer, "parser.parse", lambda: parse(template.sql))
                run.sample("parser.parse_us", elapsed)
                transformation = engine.transformation(node.transformation)
                _, elapsed = timed_us(tracer, "planner.plan", lambda: engine.planner.plan(
                    node, transformation=transformation))
                run.sample("planner.plan_us", elapsed)

    def checkpoint(self) -> None:
        tracer, run = self.tracer, self.run
        if tracer.enabled:
            wal_bytes = sum(os.path.getsize(path)
                            for path in glob.glob(os.path.join(self.store, "wal-*.log")))
            run.sample("wal.bytes_per_row",
                       wal_bytes / (self.since_checkpoint * self.sizes.batch_rows))
        run.attempted += 1
        try:
            began = time.perf_counter()
            with tracer.span("checkpoint", self.batch_number):
                self.session.checkpoint()
            run.sample("checkpoint.ms", (time.perf_counter() - began) * 1000.0)
        except Exception as error:  # noqa: BLE001 - a failed operation is a result
            run.fail(f"checkpoint: {type(error).__name__}: {error}")
        self.since_checkpoint = 0

    def report(self) -> None:
        """Per-layer values of the timed epochs (traced runs)."""
        run = self.run
        run.layer["planner.invocations"] = self.invocations
        run.layer["planner.index_share"] = self.index_plans / max(1, self.queries)
        cache_layer(run, "plan_cache", (0, 0, 0), self.plan_counts)
        touched = self.buffer_hits + self.buffer_misses
        run.layer["buffer.hit_rate"] = self.buffer_hits / max(1, touched)
        self.shadow_db.close()


def reopen(run: Run, store: str, workdir: str, sizes: Sizes, query_rng,
           acknowledged: set[str], rows: int) -> None:
    """Recover copies of the crashed store; every acknowledged row must be
    back and answers must match the oracle over every row."""
    for attempt in range(sizes.reopen_repeats):
        copy = os.path.join(workdir, f"reopen-{attempt}")
        shutil.copytree(store, copy)
        run.attempted += 1
        try:
            began = time.perf_counter()
            session = repro.connect(path=copy, wal_sync=WAL_SYNC)
            run.recovery_s.append(time.perf_counter() - began)
        except Exception as error:  # noqa: BLE001 - a failed operation is a result
            run.fail(f"reopen {attempt}: {type(error).__name__}: {error}")
            continue
        try:
            names = {obj.name for obj in session.relation(RELATION).objects()}
            lost = acknowledged - names
            if lost or len(names) != rows:
                run.fail(f"reopen {attempt}: {len(lost)} acknowledged rows lost, "
                         f"{len(names)} rows present of {rows}")
            session.with_transformation(MAVG, moving_average_spectral(LENGTH, MAVG_WINDOW))
            for number, template in enumerate(DURABLE_INGEST):
                series = TimeSeries(walks(query_rng, 1)[0], name=f"reopened-{attempt}-{number}")
                run.query(session.sql, template, series, timed=False, rows=rows)
            if run.tracer.enabled:
                run.layer["recovery.replayed_wal_records"] = session.database.replayed_wal_records
                run.layer["recovery.cold_index_builds"] = session.database.cold_index_builds
        finally:
            session.close()
        if run.tracer.enabled:
            with open(os.path.join(store, "MANIFEST.json"), encoding="utf-8") as manifest:
                wal_path = os.path.join(store, json.load(manifest)["wal"])
            _, elapsed = timed_us(run.tracer, "wal.replay", lambda: WriteAheadLog.replay(wal_path))
            run.sample("wal.replay_ms", elapsed / 1000.0)
        shutil.rmtree(copy)


WORKLOADS = {"cold-mix": cold_mix, "hot-wire": hot_wire, "durable-ingest": durable_ingest}

"""The load generator: seeded inputs and the three ways of sending them.

Everything here runs in the one generator process on one thread, over
at most two connections:

* ``pipelined`` keeps a fixed window of point queries in flight on one
  connection (saturating throughput);
* ``open_loop`` sends each request of one or two streams when it is
  due, whatever the server is doing, and times it from that due time,
  so a stall also charges the requests that queued behind it; it
  reports how late it sent (lateness) and what was still unanswered
  when the window closed (backlog);
* ``replay`` sends scenario events one at a time (closed loop).

The inputs come from the workload seed alone; the server sees only the
request lines.
"""

from __future__ import annotations

import collections
import json
import random
import selectors
import socket
import time
from typing import Dict, List, Optional, Sequence, Tuple

import dataset

clock = time.perf_counter


def request_line(op: str, **fields) -> bytes:
    message = {"op": op, "v": 1}
    message.update(fields)
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def point_pairs(seed: int, count: int) -> List[Tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.randrange(dataset.NUM_POIS), rng.randrange(dataset.NUM_POIS))
            for _ in range(count)]


def proximity_events(seed: int, rounds: int, knn: int, ranges: int
                     ) -> List[Dict]:
    """Interleaved scenario events: per round ``knn`` moving-agents
    kNN events, ``ranges`` range-alerts events and one step of the
    coverage-audit RNN sweep.  Many agents and sentinels spread the
    sources over the terrain, so the mix does not hinge on a few
    seeded positions."""
    from repro.serving.workloads import generate_workload

    def events(scenario: str, count: int, offset: int, **params
               ) -> List[Dict]:
        return generate_workload(
            scenario, dataset.STATIC, dataset.NUM_POIS, count,
            seed=seed * 3 + offset, **params).events

    agents = events("moving-agents", rounds * knn, 0, agents=32)
    alerts = events("range-alerts", rounds * ranges, 1, sentinels=40)
    audit = events("coverage-audit", rounds, 2)
    mixed = []
    for index in range(rounds):
        mixed.extend(agents[index * knn:(index + 1) * knn])
        mixed.extend(alerts[index * ranges:(index + 1) * ranges])
        mixed.append(audit[index])
    return mixed


class ChurnLog:
    """Seeded insert/delete pairs and the reads beside them.

    Deletes pick from the POIs with id >= ``NUM_POIS // 2`` plus the
    inserted ones; reads address only ids below that, which no update
    removes, so no read can hit a deleted POI.  Inserted POIs take the
    next free id, so the log also knows every id an insert must return.
    """

    def __init__(self, seed: int, pairs: int, reads: int, k: int = 5):
        rng = random.Random(seed ^ 0x5EED)
        stable = dataset.NUM_POIS // 2
        deletable = list(range(stable, dataset.NUM_POIS))
        next_id = dataset.NUM_POIS
        width, height = dataset.EXTENT
        #: ("insert", x, y, expected id) / ("delete", id)
        self.updates: List[Tuple] = []
        for _ in range(pairs):
            x = rng.uniform(0.02, 0.98) * width
            y = rng.uniform(0.02, 0.98) * height
            self.updates.append(("insert", x, y, next_id))
            deletable.append(next_id)
            next_id += 1
            victim = deletable.pop(rng.randrange(len(deletable)))
            self.updates.append(("delete", victim))
        self.reads: List[bytes] = []
        for index in range(reads):
            source = rng.randrange(stable)
            if index % 2:
                self.reads.append(request_line(
                    "knn", terrain=dataset.LIVE, source=source, k=k))
            else:
                self.reads.append(request_line(
                    "query", terrain=dataset.LIVE, source=source,
                    target=rng.randrange(stable)))

    @staticmethod
    def update_line(update: Tuple) -> bytes:
        if update[0] == "insert":
            return request_line("insert", terrain=dataset.LIVE,
                                x=update[1], y=update[2])
        return request_line("delete", terrain=dataset.LIVE, poi=update[1])


# ----------------------------------------------------------------------
# connections
# ----------------------------------------------------------------------
class Connection:
    """One NDJSON connection; replies arrive in request order."""

    def __init__(self, port: int, timeout: float = 60.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def replies(self) -> List[bytes]:
        """Every complete reply line available after one ``recv``."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        lines = (self._buffer + data).split(b"\n")
        self._buffer = lines.pop()
        return lines

    def call(self, line: bytes) -> bytes:
        self.send(line)
        while True:
            lines = self.replies()
            if lines:
                return lines[0]

    def close(self) -> None:
        self.sock.close()


class Request:
    __slots__ = ("kind", "due", "sent", "received", "reply", "payload")

    def __init__(self, kind: str, due: float, payload=None):
        self.kind = kind
        self.due = due
        self.payload = payload
        self.sent: Optional[float] = None
        self.received: Optional[float] = None
        self.reply: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return self.reply is not None and b'"ok":true' in self.reply

    def result(self):
        return json.loads(self.reply)["result"]


# ----------------------------------------------------------------------
# senders
# ----------------------------------------------------------------------
def pipelined(connection: Connection, lines: Sequence[bytes], first: int,
              window: int, seconds: float
              ) -> Tuple[List[bytes], List[float]]:
    """Keep ``window`` requests in flight for ``seconds``; request ``i``
    is ``lines[(first + i) % len(lines)]``.  Returns every reply, in
    order, and the arrival time of each reply inside the window."""
    replies: List[bytes] = []
    arrivals: List[float] = []
    size = len(lines)
    sent = window
    connection.send(b"".join(lines[(first + i) % size]
                             for i in range(window)))
    deadline = clock() + seconds
    while len(replies) < sent:
        batch = connection.replies()
        now = clock()
        replies.extend(batch)
        if now < deadline and batch:
            arrivals.extend([now] * len(batch))
            connection.send(b"".join(
                lines[(first + i) % size]
                for i in range(sent, sent + len(batch))))
            sent += len(batch)
    return replies, arrivals


class FixedRate:
    """Requests due at a fixed rate from ``start`` until ``end``; the
    ``i``-th is ``lines[(first + i) % len(lines)]``, which its
    ``payload`` records."""

    def __init__(self, connection: Connection, lines: Sequence[bytes],
                 kinds: Sequence[str], rate: float, start: float,
                 end: float, first: int = 0):
        self.connection = connection
        self.lines, self.kinds, self.first = lines, kinds, first
        self.rate, self.start, self.end = rate, start, end
        self.index = 0
        self.requests: List[Request] = []
        self.in_flight: "collections.deque[Request]" = collections.deque()

    def due(self) -> Optional[float]:
        due = self.start + self.index / self.rate
        return due if due < self.end else None

    def take(self) -> Tuple[bytes, Request]:
        position = (self.first + self.index) % len(self.lines)
        request = Request(self.kinds[position], self.due(), payload=position)
        self.index += 1
        return self.lines[position], request

    def answered(self, request: Request) -> None:
        pass


class Cycles:
    """Churn writer: ``per_flush`` updates due at ``rate`` from the
    cycle's start, then a ``flush``; the next cycle starts ``pause``
    seconds after the flush is answered, and none starts after
    ``end``.  The pause lets the reads that queued behind the flush
    drain, so update latency is not the drain time of that queue."""

    def __init__(self, connection: Connection, log: ChurnLog,
                 per_flush: int, rate: float, pause: float, start: float,
                 end: float):
        self.connection = connection
        self.log = log
        self.per_flush, self.rate, self.end = per_flush, rate, end
        self.pause = pause
        self.cycle_start = start
        self.position = 0       # next update of the log
        self.in_cycle = 0       # updates sent in this cycle
        self.waiting = False    # a flush is in flight
        self.requests: List[Request] = []
        self.in_flight: "collections.deque[Request]" = collections.deque()

    def due(self) -> Optional[float]:
        if self.waiting:
            return None
        if self.in_cycle == 0 and self.cycle_start >= self.end:
            return None
        if self.position >= len(self.log.updates) and self.in_cycle == 0:
            return None
        return self.cycle_start + self.in_cycle / self.rate

    def take(self) -> Tuple[bytes, Request]:
        due = self.due()
        if (self.in_cycle < self.per_flush
                and self.position < len(self.log.updates)):
            update = self.log.updates[self.position]
            self.position += 1
            self.in_cycle += 1
            return (ChurnLog.update_line(update),
                    Request(update[0], due, payload=update))
        self.waiting = True
        return request_line("flush", terrain=dataset.LIVE), Request(
            "flush", due)

    def answered(self, request: Request) -> None:
        if request.kind == "flush":
            self.waiting = False
            self.in_cycle = 0
            self.cycle_start = request.received + self.pause


def open_loop(streams: Sequence, end: float, drain_s: float) -> None:
    """Send every stream's requests when due, until each stream runs
    dry, and collect replies; requests still unanswered ``drain_s``
    after ``end`` stay without a reply (they count as failed)."""
    selector = selectors.DefaultSelector()
    for stream in streams:
        selector.register(stream.connection.sock, selectors.EVENT_READ,
                          stream)
    give_up = end + drain_s
    try:
        while True:
            now = clock()
            for stream in streams:
                while True:
                    due = stream.due()
                    if due is None or due > now:
                        break
                    line, request = stream.take()
                    request.sent = clock()
                    stream.connection.send(line)
                    stream.requests.append(request)
                    stream.in_flight.append(request)
            dues = [due for due in (s.due() for s in streams)
                    if due is not None]
            if not dues and not any(s.in_flight for s in streams):
                return
            now = clock()
            if now > give_up:
                return
            timeout = give_up - now
            if dues:
                timeout = min(timeout, max(0.0, min(dues) - now))
            for key, _ in selector.select(timeout):
                stream = key.data
                lines = stream.connection.replies()
                received = clock()
                for line in lines:
                    request = stream.in_flight.popleft()
                    request.received = received
                    request.reply = line
                    stream.answered(request)
    finally:
        selector.close()


def replay(connection: Connection, events: Sequence[Dict], first: int,
           seconds: float) -> List[Request]:
    """Events from index ``first`` on, one at a time, until ``seconds``
    have passed (or the events run out); each timed from its send."""
    done: List[Request] = []
    deadline = clock() + seconds
    for index in range(first, len(events)):
        if clock() >= deadline:
            break
        event = events[index]
        fields = {key: value for key, value in event.items() if key != "op"}
        line = request_line(event["op"], terrain=dataset.STATIC, **fields)
        request = Request(event["op"], clock(), payload=index)
        request.sent = request.due
        request.reply = connection.call(line)
        request.received = clock()
        done.append(request)
    return done

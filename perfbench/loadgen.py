"""Open-loop request generator that times every request from its due time.

Requests are due on a fixed schedule whatever the server does.  Each of
``connections`` client threads takes the next request in schedule order
as soon as it is free, waits for its due time and sends it.  A request
that falls due while every connection is busy goes out late; that wait
is the server's doing and is part of the request's latency, which runs
from the due time to the end of the reply.  The generator's *own*
lateness is how long after both the due time and a free connection the
request actually went out; a large value means the generator, not the
server, fell behind and the run does not measure the server.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: a run is flagged invalid when the generator's lateness at its tail
#: percentile (see stats.py) exceeds this; a single stall of the whole
#: process, which holds up the daemon in the same way, does not count
LATE_LIMIT = 0.05


@dataclass(frozen=True)
class Shot:
    """One scheduled request: ``due`` is seconds after the run starts."""

    due: float
    phase: str
    key: Any
    body: bytes


@dataclass
class Reply:
    shot: Shot
    #: absolute clock readings
    due: float
    free: float
    sent: float
    done: float
    status: int
    #: the raw reply; parsed after the run, so the replies held in
    #: memory while it lasts are a few large objects, not many small ones
    body: Optional[bytes]
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return latency(self.due, self.done)

    @property
    def late(self) -> float:
        return lateness(self.due, self.free, self.sent)


def latency(due: float, done: float) -> float:
    """Latency of one request, counted from when it was due."""
    return done - due


def lateness(due: float, free: float, sent: float) -> float:
    """How late the generator itself sent a request: the time past both
    its due time and the moment a connection was free for it."""
    return sent - max(due, free)


def schedule(rate: float, start: float, duration: float) -> List[float]:
    """Due offsets at a fixed rate over ``[start, start + duration)``."""
    count = int(round(rate * duration))
    return [start + index / rate for index in range(count)]


class OpenLoop:
    """Send ``shots`` on schedule over at most ``connections`` at once."""

    def __init__(
        self,
        send: Callable[[bytes], Tuple[int, Optional[bytes]]],
        connections: int,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if connections < 1:
            raise ValueError("connections must be >= 1")
        self.send = send
        self.connections = connections
        self.clock = clock
        self.sleep = sleep

    def run(self, shots: Sequence[Shot]) -> List[Reply]:
        replies: List[Optional[Reply]] = [None] * len(shots)
        lock = threading.Lock()
        cursor = [0]
        start = self.clock()

        def client() -> None:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(shots):
                    return
                shot = shots[index]
                free = self.clock()
                due = start + shot.due
                if due > free:
                    self.sleep(due - free)
                sent = self.clock()
                try:
                    status, body = self.send(shot.body)
                    error = None
                except Exception as exc:  # a failed request, not a failed run
                    status, body, error = 0, None, repr(exc)
                replies[index] = Reply(
                    shot, due, free, sent, self.clock(), status, body, error
                )

        threads = [
            threading.Thread(target=client, name=f"loadgen-{n}")
            for n in range(self.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return replies  # type: ignore[return-value]


def http_sender(url: str, timeout: float = 120.0):
    """``send`` for :class:`OpenLoop`: one ``POST /compile`` per call."""
    import http.client
    from urllib.parse import urlparse

    parsed = urlparse(url)

    def send(body: bytes) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=timeout
        )
        try:
            connection.request(
                "POST", "/compile", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        return response.status, data

    return send

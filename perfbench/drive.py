"""Load generators for the serving workload: a closed loop and an open loop.

Both send ``ANY_EPOCH`` gets through the program's `TCPClient` and check
every answer against the newest-wins oracle.

The open loop follows a Poisson schedule fixed before it starts.  Each
request is stamped with the time it was *due*, and its latency runs from
that stamp to the answer, so a stall also charges the requests it held
back.  How late the generator itself ran (send time minus due time) is
reported apart, as a check on the generator.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.serve import ANY_EPOCH, NOT_FOUND, OK, OVERLOADED


@dataclass
class Tally:
    """Outcomes of one phase."""

    sent: int = 0
    wrong: int = 0
    errors: int = 0
    sheds: int = 0
    latencies: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    elapsed: float = 0.0

    def check(self, response, key: int, truth: dict[int, bytes]) -> None:
        self.sent += 1
        if response.status == OVERLOADED:
            self.sheds += 1
        elif response.status not in (OK, NOT_FOUND):
            self.errors += 1
        elif truth.get(key) != response.value:
            self.wrong += 1


async def closed_loop(clients, stream: Iterator[int], truth: dict[int, bytes],
                      fanout: int, seconds: float = float("inf")) -> Tally:
    """Send ``fanout`` requests at once, spread over ``clients``, wait for
    every answer, and repeat, until ``seconds`` have passed or ``stream``
    runs out.

    The service batches whatever requests are queued when it dispatches.
    Under a free-running closed loop (each of ``fanout`` workers sends its
    next request as soon as its own answer comes) that batching settled,
    at random, into one of two states: runs of the same seed served 466
    or 599 requests/s.  Waiting for the whole fan-out resets the queue
    every round, so no state carries over.
    """
    tally = Tally()
    stop = time.perf_counter() + seconds

    async def one(client, key: int) -> None:
        t0 = time.perf_counter()
        try:
            response = await client.get(key, epoch=ANY_EPOCH)
        except (ConnectionError, asyncio.IncompleteReadError):
            tally.sent += 1
            tally.errors += 1
            return
        tally.latencies.append(time.perf_counter() - t0)
        tally.check(response, key, truth)

    start = time.perf_counter()
    while time.perf_counter() < stop:
        keys = list(itertools.islice(stream, fanout))
        if not keys:
            break
        await asyncio.gather(*(one(clients[i % len(clients)], k) for i, k in enumerate(keys)))
    tally.elapsed = time.perf_counter() - start
    return tally


async def open_loop(clients, keys: np.ndarray, truth: dict[int, bytes],
                    gaps: np.ndarray, drain_s: float) -> Tally:
    """Send ``keys[i]`` at ``sum(gaps[:i+1])`` seconds after the start,
    whether or not earlier requests have been answered."""
    tally = Tally()
    loop = asyncio.get_running_loop()
    due = np.cumsum(gaps)
    tasks: list[asyncio.Task] = []

    async def one(client, key: int, due_at: float) -> None:
        tally.late.append(loop.time() - due_at)
        try:
            response = await client.get(key, epoch=ANY_EPOCH)
        except (ConnectionError, asyncio.IncompleteReadError):
            tally.sent += 1
            tally.errors += 1
            return
        tally.latencies.append(loop.time() - due_at)
        tally.check(response, key, truth)

    start = loop.time()
    for i, (key, at) in enumerate(zip(keys.tolist(), due.tolist())):
        due_at = start + at
        wait = due_at - loop.time()
        if wait > 0:
            await asyncio.sleep(wait)
        tasks.append(loop.create_task(one(clients[i % len(clients)], key, due_at)))
    done, pending = await asyncio.wait(tasks, timeout=drain_s) if tasks else (set(), set())
    for task in pending:  # unanswered within the drain window: an error each
        task.cancel()
        tally.sent += 1
        tally.errors += 1
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()
    tally.elapsed = loop.time() - start
    return tally

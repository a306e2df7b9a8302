"""Bounded-backpressure ingestion: the queue between a stream and the executor.

The paper's Xyleme separates *acquisition* (crawlers fetching millions of
pages per day) from *monitoring* (the Figure 3 pipeline); between the two
sits a buffer that must not grow without limit when the pipeline is the
slow side.  :class:`BoundedFetchQueue` is that buffer: a thread-safe
queue of :class:`~repro.pipeline.stream.Fetch` items with a hard bound.
Producers block when the queue is full (each blocking put is counted
under ``ingest.backpressure_waits``), so a slow executor throttles the
fetch rate instead of buffering the crawl.  The queue is the only writer
of the ``executor.queue_depth`` gauge, which therefore reads the number
of fetches waiting and can saturate at the bound.

:meth:`~repro.pipeline.system.SubscriptionSystem.run_stream` drives it:
a feeder thread runs :meth:`BoundedFetchQueue.fill` over the stream while
the caller's thread drains batches into ``feed_batch``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Iterable, List, Optional

from ..errors import PipelineError
from ..observability.names import (
    COUNTER_INGEST_BACKPRESSURE_WAITS,
    GAUGE_EXECUTOR_QUEUE_DEPTH,
)
from .stream import Fetch

__all__ = ["BoundedFetchQueue", "IngestCancelled"]


class IngestCancelled(Exception):
    """Raised inside a producer blocked on a cancelled queue (internal:
    the feeder catches it and stops consuming the stream)."""


class BoundedFetchQueue:
    """A bounded, thread-safe fetch buffer with backpressure.

    One producer side (``put`` / ``close`` / ``fail``, or ``fill`` for a
    whole stream), one consumer side (``next_batch`` / ``cancel``).
    ``put`` blocks while the queue holds ``bound`` items; ``next_batch``
    blocks until a full batch is available or the stream ends, and
    re-raises a producer failure after the full batches before it have
    been served (a stream error loses only the partially accumulated
    batch).
    """

    def __init__(self, bound: int, metrics: Optional[Any] = None):
        if bound < 1:
            raise PipelineError(f"queue bound must be >= 1, got {bound}")
        self.bound = int(bound)
        self._items: deque = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._cancelled = False
        self._failure: Optional[BaseException] = None
        self.peak_depth = 0
        self.backpressure_waits = 0
        self._gauge = (
            metrics.gauge(GAUGE_EXECUTOR_QUEUE_DEPTH)
            if metrics is not None
            else None
        )
        # The backpressure counter is interned on the first actual wait,
        # so streams that never block carry no such series.
        self._metrics = metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def _set_gauge(self) -> None:
        if self._gauge is not None:
            self._gauge.set(len(self._items))

    # -- producer side ----------------------------------------------------

    def put(self, fetch: Fetch) -> None:
        """Enqueue one fetch, blocking while the queue is full."""
        with self._not_full:
            if len(self._items) >= self.bound and not self._cancelled:
                self.backpressure_waits += 1
                if self._metrics is not None:
                    self._metrics.counter(
                        COUNTER_INGEST_BACKPRESSURE_WAITS
                    ).inc()
                while len(self._items) >= self.bound and not self._cancelled:
                    self._not_full.wait()
            if self._cancelled:
                raise IngestCancelled()
            if self._closed:
                raise PipelineError("put() on a closed ingest queue")
            self._items.append(fetch)
            depth = len(self._items)
            if depth > self.peak_depth:
                self.peak_depth = depth
            self._set_gauge()
            self._not_empty.notify()

    def fill(self, stream: Iterable[Fetch]) -> None:
        """Put every fetch of ``stream``, then close the queue.

        The feeder thread's body: an error raised by the stream fails the
        queue (the consumer re-raises it), and a consumer-side
        :meth:`cancel` ends the loop quietly.
        """
        try:
            for fetch in stream:
                self.put(fetch)
        except IngestCancelled:
            return
        except BaseException as exc:  # noqa: BLE001 — re-raised by consumer
            self.fail(exc)
            return
        self.close()

    def close(self) -> None:
        """Mark the stream exhausted; pending items remain consumable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def fail(self, error: BaseException) -> None:
        """Mark the stream failed; ``next_batch`` re-raises ``error``
        once the full batches already buffered have been served."""
        with self._lock:
            self._failure = error
            self._closed = True
            self._not_empty.notify_all()

    # -- consumer side ----------------------------------------------------

    def cancel(self) -> None:
        """Abort from the consumer side: wake and fail blocked ``put``\\ s
        so the producer stops consuming its stream."""
        with self._lock:
            self._cancelled = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def next_batch(self, size: int) -> Optional[List[Fetch]]:
        """Dequeue the next batch of up to ``size`` fetches.

        Blocks until a full batch is buffered or the producer closed the
        stream; the final batch may be short.  Returns ``None`` when the
        stream is exhausted; raises the producer's error once every full
        batch buffered before the failure has been served.
        """
        if size < 1:
            raise PipelineError(f"batch size must be >= 1, got {size}")
        with self._not_empty:
            while len(self._items) < size and not self._closed:
                self._not_empty.wait()
            if len(self._items) >= size:
                batch = [self._items.popleft() for _ in range(size)]
            elif self._failure is None and self._items:
                batch = list(self._items)
                self._items.clear()
            else:
                batch = None
            self._set_gauge()
            self._not_full.notify_all()
            if batch is not None:
                return batch
            if self._failure is not None:
                # The partially accumulated tail is lost.
                self._items.clear()
                raise self._failure
            return None

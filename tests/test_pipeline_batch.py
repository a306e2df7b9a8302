"""Batch feeding: feed_batch / run_stream / the pluggable executors.

The contract under test is the equivalence promise of
``repro.pipeline.executor``: for the same stream every executor produces
the same notifications, the same rejection accounting and the same
counters as feeding the documents one at a time.
"""

from __future__ import annotations

import pytest

from repro.clock import SimulatedClock
from repro.errors import PipelineError, XMLSyntaxError
from repro.observability import MetricsRegistry
from repro.pipeline import (
    Fetch,
    SubscriptionSystem,
    ThreadedExecutor,
)

SOURCE = """
subscription Batch
monitoring M
select <Hit url=URL/>
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
report when immediate
"""


def build_system(**kwargs) -> SubscriptionSystem:
    # Latencies over the simulated clock are exact, so whole histograms
    # can be compared across systems.
    clock = SimulatedClock(1_000_000.0)
    system = SubscriptionSystem(
        clock=clock, metrics=MetricsRegistry(clock), **kwargs
    )
    system.subscribe(SOURCE, owner_email="u@x")
    return system


def make_stream(rounds: int = 3, sites: int = 6, malformed: bool = False):
    """A deterministic multi-round crawl over a little shop web."""
    fetches = []
    for r in range(rounds):
        for i in range(sites):
            product = "camera" if (r + i) % 2 == 0 else "tripod"
            fetches.append(
                Fetch(
                    f"http://www.shop{i}.example/catalog.xml",
                    f"<catalog><Product>{product} v{r}</Product></catalog>",
                )
            )
        if malformed:
            fetches.append(
                Fetch(f"http://www.shop.example/bad{r}.xml", "<r><boom>")
            )
    return fetches


def notification_keys(results):
    return [
        (n.complex_code, n.document_url, n.timestamp)
        for result in results
        for n in result.notifications
    ]


def comparable_histograms(snapshot):
    """Latency/stage histograms without the executor-labelled series (whose
    labels legitimately differ between executors)."""
    return {
        key: payload
        for key, payload in snapshot["histograms"].items()
        if not key.startswith("executor.")
    }


def assert_equivalent(baseline, other, *, compare_histograms=True):
    base_snap = baseline.metrics_snapshot()
    other_snap = other.metrics_snapshot()
    assert other_snap["counters"] == base_snap["counters"]
    assert other_snap["documents_fed"] == base_snap["documents_fed"]
    assert other_snap["documents_rejected"] == base_snap[
        "documents_rejected"
    ]
    assert other_snap["rejections"] == base_snap["rejections"]
    assert (
        other_snap["notifications_emitted"]
        == base_snap["notifications_emitted"]
    )
    if compare_histograms:
        assert comparable_histograms(other_snap) == comparable_histograms(
            base_snap
        )


class TestMakeExecutor:
    """Executor construction: the system refuses an unusable batch size."""

    def test_system_rejects_bad_batch_size(self):
        with pytest.raises(PipelineError):
            SubscriptionSystem(clock=SimulatedClock(0.0), batch_size=0)


class TestSerialBatchEquivalence:
    """feed_batch with the serial executor == sequential feed calls."""

    def test_matches_sequential_feeds(self):
        stream = make_stream()
        sequential = build_system()
        for fetch in stream:
            sequential.feed(fetch)
        batched = build_system(executor="serial")
        results = batched.feed_batch(stream)
        assert len(results) == len(stream)
        assert [r.outcome.status for r in results] == [
            "new" if i < 6 else "updated" for i in range(len(stream))
        ]
        sequential_results = []  # re-run to collect FeedResults for keys
        replay = build_system()
        for fetch in stream:
            sequential_results.append(replay.feed(fetch))
        assert notification_keys(results) == notification_keys(
            sequential_results
        )
        assert_equivalent(sequential, batched)

    def test_reports_match_after_advancing(self):
        stream = make_stream()
        sequential = build_system()
        for fetch in stream:
            sequential.feed(fetch)
        batched = build_system(executor="serial")
        batched.feed_batch(stream)
        sequential.advance_days(1)
        batched.advance_days(1)
        assert (
            batched.email_sink.total_sent == sequential.email_sink.total_sent
        )
        assert [e.body for e in batched.email_sink.sent] == [
            e.body for e in sequential.email_sink.sent
        ]

    def test_batch_metrics_recorded(self):
        system = build_system(executor="serial")
        system.feed_batch(make_stream(rounds=1, sites=4))
        system.feed_batch(make_stream(rounds=1, sites=4))
        snapshot = system.metrics_snapshot()
        sizes = snapshot["histograms"]["executor.batch_size{executor=serial}"]
        assert sizes["count"] == 2
        assert sizes["sum"] == 8.0
        run_batch = snapshot["histograms"][
            "executor.run_batch.latency_seconds{executor=serial}"
        ]
        assert run_batch["count"] == 2
        assert (
            snapshot["stages"]["executor.stage"] > 0
        )  # per-stage batch latency series exists

    def test_single_feed_path_has_no_executor_series(self):
        system = build_system()
        system.feed_xml("http://www.shop0.example/catalog.xml", "<r/>")
        snapshot = system.metrics_snapshot()
        assert not any(
            key.startswith("executor.")
            for section in ("counters", "gauges", "histograms")
            for key in snapshot[section]
        )

    def test_strict_mode_raises_and_halts(self):
        system = build_system(executor="serial")
        with pytest.raises(XMLSyntaxError):
            system.feed_batch(
                [
                    Fetch("http://www.shop0.example/a.xml", "<r/>"),
                    Fetch("http://www.shop0.example/bad.xml", "<r><boom>"),
                    Fetch("http://www.shop0.example/late.xml", "<r/>"),
                ],
                skip_malformed=False,
            )
        assert system.documents_fed == 1
        assert not system.repository.has_url(
            "http://www.shop0.example/late.xml"
        )

    def test_skip_malformed_counts_rejections(self):
        stream = make_stream(malformed=True)
        system = build_system(executor="serial")
        results = system.feed_batch(stream)
        assert len(results) == len(stream) - 3
        assert system.documents_rejected == 3
        snapshot = system.metrics_snapshot()
        assert snapshot["rejections"] == {"XMLSyntaxError": 3}

    def test_run_stream_batches_match_one_big_batch(self):
        stream = make_stream()
        one_batch = build_system(executor="serial")
        one_batch.feed_batch(stream)
        # A queue that holds the whole stream never blocks, so no
        # backpressure counter separates the two snapshots.
        small_batches = build_system(
            executor="serial", batch_size=4, queue_bound=64
        )
        small_batches.run_stream(iter(stream))
        assert_equivalent(one_batch, small_batches)


class TestThreadedExecutorEquivalence:
    def test_matches_serial(self):
        stream = make_stream(malformed=True)
        serial = build_system(executor="serial:batch=8,queue=64")
        serial_results = serial.run_stream(iter(stream))
        threaded = build_system(
            executor=ThreadedExecutor(max_workers=4),
            batch_size=8,
            queue_bound=64,
        )
        threaded_results = threaded.run_stream(iter(stream))
        assert notification_keys(threaded_results) == notification_keys(
            serial_results
        )
        assert_equivalent(serial, threaded)
        threaded.executor.close()

    def test_strict_mode_matches_serial(self):
        stream = [
            Fetch("http://www.shop0.example/a.xml", "<r/>"),
            Fetch("http://www.shop0.example/bad.xml", "<r><boom>"),
            Fetch("http://www.shop0.example/late.xml", "<r/>"),
        ]
        system = build_system(executor="threaded")
        with pytest.raises(XMLSyntaxError):
            system.feed_batch(stream, skip_malformed=False)
        assert system.documents_fed == 1
        assert not system.repository.has_url(
            "http://www.shop0.example/late.xml"
        )
        system.executor.close()

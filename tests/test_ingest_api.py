"""The ingest API: spec grammar, bounded queue, run_stream, facade.

Pins the public-surface promises of the executor/ingest layer:

* one :class:`ExecutorSpec` grammar accepted by CLI, env and constructor,
  with documented precedence (kwarg > spec field > env > default);
* ``run_stream`` routes through the bounded queue — the queue alone
  writes ``executor.queue_depth``, backpressure is counted, a failing
  consumer unwinds the feeder thread, and the rejection semantics stay
  per-document;
* ``repro.api`` is the stable facade.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.clock import SECONDS_PER_DAY, SimulatedClock
from repro.errors import PipelineError, XMLSyntaxError
from repro.pipeline import (
    BoundedFetchQueue,
    ExecutorSpec,
    Fetch,
    ProcessExecutor,
    SerialExecutor,
    SubscriptionSystem,
    ThreadedExecutor,
    from_pairs,
)
from repro.pipeline.executors import available, create, resolve

SOURCE = """
subscription Ingest
monitoring M
select <Hit url=URL/>
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
report when immediate
"""


def build_system(**kwargs):
    system = SubscriptionSystem(clock=SimulatedClock(1_000_000.0), **kwargs)
    system.subscribe(SOURCE, owner_email="u@x")
    return system


def xml_pages(count):
    return [
        (
            f"http://www.shop.example/{i}.xml",
            f"<catalog><Product>camera v{i}</Product></catalog>",
        )
        for i in range(count)
    ]


class TestExecutorSpec:
    def test_parse_name_only(self):
        spec = ExecutorSpec.parse("serial")
        assert spec == ExecutorSpec(name="serial")

    def test_parse_full(self):
        spec = ExecutorSpec.parse("process:workers=4,batch=64,queue=128")
        assert spec.name == "process"
        assert spec.workers == 4
        assert spec.batch == 64
        assert spec.queue == 128

    def test_aliases_and_whitespace(self):
        spec = ExecutorSpec.parse(" threaded : batch = 8 , queue=16 ")
        assert spec == ExecutorSpec(name="threaded", batch=8, queue=16)
        # Each key has exactly one name.
        for alias in ("batch_size=8", "queue_depth=16"):
            with pytest.raises(PipelineError, match="unknown executor spec"):
                ExecutorSpec.parse(f"threaded:{alias}")

    def test_detect_option(self):
        assert ExecutorSpec.parse("process:detect=local").detect == "local"
        with pytest.raises(PipelineError):
            ExecutorSpec.parse("process:detect=sideways")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            ":workers=2",
            "process:workers",
            "process:workers=",
            "process:workers=zero",
            "process:workers=0",
            "process:wrokers=2",
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(PipelineError):
            ExecutorSpec.parse(bad)

    def test_render_round_trips(self):
        for text in ("serial", "process:workers=4,batch=64,queue=128"):
            assert ExecutorSpec.parse(text).render() == text

    def test_create_builds_each_registered_executor(self):
        assert available() == ("process", "serial", "threaded")
        assert isinstance(create("serial"), SerialExecutor)
        threaded = create("threaded:workers=3")
        assert isinstance(threaded, ThreadedExecutor)
        process = create("process:workers=2")
        assert isinstance(process, ProcessExecutor)
        assert process.workers == 2
        process.close()

    def test_strict_options(self):
        with pytest.raises(PipelineError):
            create("serial:workers=2")
        with pytest.raises(PipelineError):
            create("threaded:detect=local")
        with pytest.raises(PipelineError):
            create("quantum")

    def test_create_passes_instances_through(self):
        executor = ThreadedExecutor(max_workers=2)
        assert create(executor) is executor


class TestPrecedence:
    """kwarg > spec field > $REPRO_EXECUTOR > default."""

    def test_spec_fields_configure_system(self):
        system = SubscriptionSystem(
            clock=SimulatedClock(0.0), executor="threaded:batch=16,queue=48"
        )
        assert isinstance(system.executor, ThreadedExecutor)
        assert system.batch_size == 16
        assert system.queue_bound == 48

    def test_kwargs_override_spec(self):
        system = SubscriptionSystem(
            clock=SimulatedClock(0.0),
            executor="serial:batch=16,queue=48",
            batch_size=8,
            queue_bound=24,
        )
        assert system.batch_size == 8
        assert system.queue_bound == 24

    def test_env_spec_used_when_no_spec_given(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "threaded:workers=2,batch=5")
        system = SubscriptionSystem(clock=SimulatedClock(0.0))
        assert isinstance(system.executor, ThreadedExecutor)
        assert system.batch_size == 5

    def test_explicit_spec_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "threaded")
        system = SubscriptionSystem(clock=SimulatedClock(0.0), executor="serial")
        assert isinstance(system.executor, SerialExecutor)

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        system = SubscriptionSystem(clock=SimulatedClock(0.0))
        assert isinstance(system.executor, SerialExecutor)
        assert system.batch_size == 32
        assert system.queue_bound == 64
        assert resolve(None) == ExecutorSpec(name="serial")

    def test_queue_bound_below_batch_size_rejected(self):
        with pytest.raises(PipelineError):
            SubscriptionSystem(
                clock=SimulatedClock(0.0), batch_size=32, queue_bound=8
            )

    def test_bounds_validated(self):
        for kwargs in (
            {"batch_size": 0},
            {"batch_size": 8, "queue_bound": 4},
            {"executor": "serial:batch=8,queue=4"},
        ):
            with pytest.raises(PipelineError):
                SubscriptionSystem(clock=SimulatedClock(0.0), **kwargs)


class TestBoundedFetchQueue:
    def test_put_blocks_at_bound_and_counts_waits(self):
        queue = BoundedFetchQueue(4)
        for i in range(4):
            queue.put(Fetch(f"http://x/{i}.xml", "<r/>"))
        blocked = threading.Event()

        def producer():
            blocked.set()
            queue.put(Fetch("http://x/overflow.xml", "<r/>"))

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        blocked.wait()
        time.sleep(0.05)
        assert len(queue) == 4  # the fifth put is parked
        assert queue.next_batch(2) is not None
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert queue.backpressure_waits == 1
        assert queue.peak_depth <= queue.bound

    def test_failure_after_full_batches(self):
        queue = BoundedFetchQueue(8)
        for i in range(5):
            queue.put(Fetch(f"http://x/{i}.xml", "<r/>"))
        queue.fail(XMLSyntaxError("stream died"))
        assert len(queue.next_batch(4)) == 4  # full batch still served
        with pytest.raises(XMLSyntaxError):
            queue.next_batch(4)  # partial tail discarded, error raised

    def test_close_yields_final_partial_then_none(self):
        queue = BoundedFetchQueue(8)
        for i in range(5):
            queue.put(Fetch(f"http://x/{i}.xml", "<r/>"))
        queue.close()
        assert len(queue.next_batch(4)) == 4
        assert len(queue.next_batch(4)) == 1
        assert queue.next_batch(4) is None

    def test_even_and_ragged_batches(self):
        queue = BoundedFetchQueue(8)
        fetches = [Fetch(f"http://x/{i}.xml", "<r/>") for i in range(5)]
        queue.fill(fetches)
        batches = []
        while (batch := queue.next_batch(2)) is not None:
            batches.append(batch)
        assert [len(b) for b in batches] == [2, 2, 1]
        assert [f.url for b in batches for f in b] == [
            f.url for f in fetches
        ]

    def test_rejects_nonpositive_size(self):
        with pytest.raises(PipelineError):
            BoundedFetchQueue(0)
        with pytest.raises(PipelineError):
            BoundedFetchQueue(4).next_batch(0)

    def test_close_after_fail_is_a_no_op(self):
        """The feeder thread closes the queue in its normal epilogue; if
        the stream already failed, that close must not raise."""
        queue = BoundedFetchQueue(8)
        queue.put(Fetch("http://x/0.xml", "<r/>"))
        queue.fail(XMLSyntaxError("stream died"))
        queue.close()  # must not be a PipelineError
        with pytest.raises(XMLSyntaxError):
            queue.next_batch(4)


class TestRunStreamThroughQueue:
    def test_queue_is_the_only_writer_of_queue_depth(self):
        """Sampled while a batch runs, the gauge reads the fetches still
        waiting in the queue — not the in-flight batch size."""
        batch, waiting = 2, 3
        system = build_system(batch_size=batch, queue_bound=8)
        fed_all = threading.Event()

        def stream():
            yield from from_pairs(xml_pages(batch + waiting))
            fed_all.set()  # runs once the feeder's last put returned

        original_feed_batch = system.feed_batch
        original_run_batch = system.executor.run_batch
        samples = []

        def feed_batch(fetches, skip_malformed=True):
            assert fed_all.wait(timeout=10)
            return original_feed_batch(fetches, skip_malformed=skip_malformed)

        def run_batch(owner, tasks, stop_on_error=False):
            samples.append(
                system.metrics_snapshot()["gauges"]["executor.queue_depth"]
            )
            return original_run_batch(owner, tasks, stop_on_error)

        system.feed_batch = feed_batch
        system.executor.run_batch = run_batch
        results = system.run_stream(stream())
        assert len(results) == batch + waiting
        assert samples[0] == waiting
        gauges = system.metrics_snapshot()["gauges"]
        assert gauges["executor.queue_depth"] == 0  # drained at the end

    def test_queue_depth_saturates_at_bound(self):
        """Behind a slow executor the feeder fills the queue to its bound
        and no further (the queue's own test pins peak <= bound)."""
        system = build_system(batch_size=4, queue_bound=8)
        original = system.feed_batch
        samples = []

        def depth():
            return system.metrics_snapshot()["gauges"]["executor.queue_depth"]

        def slow_feed_batch(batch, skip_malformed=True):
            deadline = time.monotonic() + 10
            while not samples and depth() < 8 and time.monotonic() < deadline:
                time.sleep(0.001)
            samples.append(depth())
            return original(batch, skip_malformed=skip_malformed)

        system.feed_batch = slow_feed_batch
        results = system.run_stream(from_pairs(xml_pages(40)))
        assert len(results) == 40
        assert len(samples) == 10
        assert samples[0] == 8
        assert max(samples) <= 8
        assert depth() == 0  # drained at the end

    def test_backpressure_fires_when_executor_is_slow(self):
        system = build_system(batch_size=2, queue_bound=2)
        original = system.feed_batch

        def slow_feed_batch(batch, skip_malformed=True):
            time.sleep(0.02)
            return original(batch, skip_malformed=skip_malformed)

        system.feed_batch = slow_feed_batch
        system.run_stream(from_pairs(xml_pages(12)))
        counters = system.metrics_snapshot()["counters"]
        assert counters["ingest.backpressure_waits"] >= 1

    def test_batches_use_system_batch_size(self):
        system = build_system(executor="serial:batch=8,queue=40")
        sizes = []
        original = system.feed_batch

        def recording_feed_batch(batch, skip_malformed=True):
            sizes.append(len(batch))
            return original(batch, skip_malformed=skip_malformed)

        system.feed_batch = recording_feed_batch
        system.run_stream(from_pairs(xml_pages(20)))
        assert system.queue_bound == 40
        assert sizes == [8, 8, 4]

    def test_stream_is_consumed_lazily(self):
        """An endless stream is pulled at most a queue and a batch ahead
        of what the executor consumed."""
        system = build_system(batch_size=3, queue_bound=6)
        pulled = []

        def endless():
            i = 0
            while True:
                pulled.append(i)
                yield Fetch(f"http://www.shop.example/{i}.xml", "<r/>")
                i += 1

        original = system.feed_batch

        def stop_after_two(batch, skip_malformed=True):
            if system.documents_fed >= 6:
                raise RuntimeError("enough")
            return original(batch, skip_malformed=skip_malformed)

        system.feed_batch = stop_after_two
        with pytest.raises(RuntimeError, match="enough"):
            system.run_stream(endless())
        assert system.documents_fed == 6
        # 9 fetches left the queue in three batches, at most 6 more sat
        # in it, and the feeder held at most one more while blocked.
        assert len(pulled) <= 9 + 6 + 1

    def test_crawl_stream_respects_refresh_schedule(self):
        from repro.webworld import SimulatedCrawler, SiteGenerator

        system = build_system()
        crawler = SimulatedCrawler(clock=system.clock, seed=5)
        crawler.add_xml_page(
            "http://www.shop.example/c.xml", SiteGenerator(seed=1).catalog(2)
        )
        assert len(system.run_stream(crawler.due_fetches())) == 1
        assert system.run_stream(crawler.due_fetches()) == []  # not due
        system.clock.advance(SECONDS_PER_DAY)
        assert len(system.run_stream(crawler.due_fetches())) == 1

    def test_rejection_semantics_unchanged(self):
        """Regression: the bounded-queue path keeps the old contract."""
        pages = xml_pages(9)
        pages.insert(4, ("http://www.shop.example/bad.xml", "<r><boom>"))
        system = build_system(batch_size=3)
        results = system.run_stream(from_pairs(pages))
        assert len(results) == 9
        assert system.documents_rejected == 1
        snapshot = system.metrics_snapshot()
        assert snapshot["rejections"] == {"XMLSyntaxError": 1}

    def test_skip_malformed_false_raises_and_stops(self):
        pages = xml_pages(9)
        pages.insert(4, ("http://www.shop.example/bad.xml", "<r><boom>"))
        system = build_system(batch_size=3)
        with pytest.raises(XMLSyntaxError):
            system.run_stream(from_pairs(pages), skip_malformed=False)
        # Documents after the failing batch never entered the pipeline.
        assert system.documents_fed < len(pages)

    def test_feeder_thread_terminates_when_executor_raises(self):
        """A consumer-side failure cancels the queue so the feeder's
        blocked put unblocks — no orphaned producer thread survives."""
        system = build_system(batch_size=2, queue_bound=2)

        def exploding_feed_batch(batch, skip_malformed=True):
            raise RuntimeError("executor died")

        system.feed_batch = exploding_feed_batch
        # 40 pages >> queue bound: the feeder is parked on a full put
        # at the moment the executor raises.
        with pytest.raises(RuntimeError, match="executor died"):
            system.run_stream(from_pairs(xml_pages(40)))
        assert not any(
            thread.name == "repro-ingest-feeder" and thread.is_alive()
            for thread in threading.enumerate()
        )

    def test_crash_point_unwinds_the_feeder_thread(self):
        """A simulated process death (BaseException, not Exception) must
        also join the feeder before propagating."""
        from repro.faults import CrashPoint, clear, install

        system = build_system(batch_size=2, queue_bound=2)
        install("post-fetch", at=1)
        try:
            with pytest.raises(CrashPoint):
                system.run_stream(from_pairs(xml_pages(40)))
        finally:
            clear()
        assert not any(
            thread.name == "repro-ingest-feeder" and thread.is_alive()
            for thread in threading.enumerate()
        )

    def test_stream_failure_loses_only_partial_tail(self):
        """A stream that raises mid-iteration loses only the partial
        batch it interrupted."""

        def broken_stream():
            for url, content in xml_pages(7):
                yield Fetch(url, content)
            raise RuntimeError("crawler fell over")

        old = build_system(batch_size=3)
        with pytest.raises(RuntimeError):
            old.run_stream(broken_stream())
        # Two full batches (6 docs) processed; the partial 7th is lost.
        assert old.documents_fed == 6


class TestIngestSessionAndFrontend:
    """The ingest bounds run_stream reads are checked when the system is built."""

    def test_session_validates_bounds(self):
        with pytest.raises(PipelineError):
            build_system(batch_size=0)
        with pytest.raises(PipelineError):
            build_system(batch_size=8, queue_bound=4)


class TestApiFacade:
    def test_one_stop_import(self):
        from repro import api

        system = api.SubscriptionSystem(
            clock=SimulatedClock(0.0), executor="serial"
        )
        assert isinstance(system, SubscriptionSystem)
        assert api.create_executor("serial").name == "serial"
        assert "process" in api.available_executors()
        assert api.ExecutorSpec.parse("process:workers=2").workers == 2

    def test_facade_covers_the_redesign(self):
        from repro import api

        for name in (
            "SubscriptionSystem",
            "BoundedFetchQueue",
            "ExecutorSpec",
            "ProcessExecutor",
            "create_executor",
            "available_executors",
        ):
            assert name in api.__all__
            assert hasattr(api, name)

"""Which public calls the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<call>``; a layer's ``*_s`` metric is the total
self time of its spans over the traced pass (set-up plus the replayed
steady steps), so nested layers are not counted twice.  ``bench.sink``
is the benchmark's own notification probe, kept apart so its cost does
not land in the matcher's self time.

``pipeline.run_stream`` and ``pipeline.advance`` wrap every replayed
step, so their self time is whatever no named layer accounts for; it is
reported as ``pipeline.unattributed_s`` and left out of
``trace.coverage``.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from repro.alerters.chain import AlerterChain
from repro.core.processor import MonitoringQueryProcessor
from repro.diff import changes, matching, signature
from repro.pipeline.ingest import BoundedFetchQueue
from repro.pipeline.system import SubscriptionSystem
from repro.query.engine import QueryEngine
from repro.recovery.journal import RuntimeJournal
from repro.recovery.manager import RecoveryManager
from repro.reporting.reporter import Reporter
from repro.repository.store import Repository
from repro.subscription.cost import CostController
from repro.subscription.manager import SubscriptionManager
from repro.triggers.engine import TriggerEngine
from repro.xmlstore import parser

from tracing import NAME, PARENT, Tracer

#: Spans around whole replayed steps: their self time is unattributed.
CATCH_ALL = ("pipeline.run_stream", "pipeline.advance")
#: Spans of the benchmark itself, not of the program.
OWN = ("bench.sink",)

#: Every per-layer metric with its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("xmlstore.parse_s", "s"),
    ("xmlstore.parses_per_doc", "ratio"),
    ("diff.signature_s", "s"),
    ("diff.signature_passes_per_update", "ratio"),
    ("diff.delta_s", "s"),
    ("diff.classify_s", "s"),
    ("repository.store_self_s", "s"),
    ("repository.unchanged_frac", "ratio"),
    ("repository.docs", "count"),
    ("alerters.detect_s", "s"),
    ("alerters.events_per_alert", "ratio"),
    ("alerters.alert_frac", "ratio"),
    ("core.match_s", "s"),
    ("core.notifications_per_alert", "ratio"),
    ("subscription.route_s", "s"),
    ("subscription.subscribe_ms", "ms"),
    ("subscription.unsubscribe_ms", "ms"),
    ("subscription.cost_check_ms", "ms"),
    ("subscription.refused", "count"),
    ("reporting.tick_s", "s"),
    ("reporting.deliver_s", "s"),
    ("reporting.reports", "count"),
    ("triggers.tick_s", "s"),
    ("triggers.fired", "count"),
    ("query.evaluate_s", "s"),
    ("recovery.checkpoint_s", "s"),
    ("recovery.checkpoint_max_ms", "ms"),
    ("recovery.checkpoint_bytes", "bytes"),
    ("recovery.journal_appends", "count"),
    ("minisql.fsync_s", "s"),
    ("minisql.fsyncs", "count"),
    ("pipeline.feed_batch_s", "s"),
    ("pipeline.batches", "count"),
    ("pipeline.queue_wait_s", "s"),
    ("pipeline.unattributed_s", "s"),
    ("webworld.generate_s", "s"),
    ("trace.docs", "count"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def _count_outcome(tracer: Tracer, outcome) -> None:
    tracer.counts["repository.stores"] += 1
    tracer.counts[f"repository.{outcome.status}"] += 1
    tracer.statuses.append(outcome.status)


def _count_alert(tracer: Tracer, alert) -> None:
    tracer.counts["alerters.calls"] += 1
    if alert is not None:
        tracer.counts["alerters.alerts"] += 1
        tracer.counts["alerters.events"] += len(alert.event_codes)


def _count_notifications(tracer: Tracer, notifications) -> None:
    tracer.counts["core.notifications"] += len(notifications)


def _passes_in_updates(tracer: Tracer) -> int:
    """Signature passes made inside repository stores of updated pages."""
    spans = tracer.spans
    store_of = {}  # store span index -> its outcome status
    for status, index in zip(
        tracer.statuses,
        (i for i, s in enumerate(spans) if s[NAME] == "repository.store"),
    ):
        store_of[index] = status
    passes = 0
    for span in spans:
        if span[NAME] != "diff.signature":
            continue
        parent = span[PARENT]
        while parent >= 0 and parent not in store_of:
            parent = spans[parent][PARENT]
        if parent >= 0 and store_of[parent] == "updated":
            passes += 1
    return passes


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points."""
    tracer.wrap_function(parser.parse, "xmlstore.parse")
    tracer.wrap_function(signature.subtree_signatures, "diff.signature")
    tracer.wrap_function(matching.compute_delta, "diff.delta")
    tracer.wrap_function(changes.classify_changes, "diff.classify")
    tracer.wrap_method(Repository, "store_xml", "repository.store", _count_outcome)
    for attr in ("build_alert", "finish_alert"):
        tracer.wrap_method(AlerterChain, attr, "alerters.detect", _count_alert)
    tracer.wrap_method(AlerterChain, "detect_events", "alerters.detect")
    tracer.wrap_method(
        MonitoringQueryProcessor, "process_alert", "core.match",
        _count_notifications,
    )
    tracer.wrap_method(
        SubscriptionManager, "handle_notifications", "subscription.route"
    )
    tracer.wrap_method(SubscriptionSystem, "subscribe", "subscription.subscribe")
    tracer.wrap_method(
        SubscriptionSystem, "unsubscribe", "subscription.unsubscribe"
    )
    tracer.wrap_method(
        CostController, "check_subscription", "subscription.cost_check"
    )
    tracer.wrap_method(Reporter, "tick", "reporting.tick")
    tracer.wrap_method(Reporter, "deliver", "reporting.deliver")
    tracer.wrap_method(TriggerEngine, "tick", "triggers.tick")
    tracer.wrap_method(QueryEngine, "evaluate", "query.evaluate")
    tracer.wrap_method(RecoveryManager, "checkpoint", "recovery.checkpoint")
    tracer.wrap_method(RuntimeJournal, "append_delivery", "recovery.append")
    # The write-ahead logs of the journal and of the subscription database
    # sync through ``os.fsync``.
    tracer.wrap_method(os, "fsync", "minisql.fsync")
    tracer.wrap_method(SubscriptionSystem, "feed_batch", "pipeline.feed_batch")
    tracer.wrap_method(BoundedFetchQueue, "next_batch", "pipeline.queue_wait")
    tracer.wrap_method(SubscriptionSystem, "run_stream", "pipeline.run_stream")
    tracer.wrap_method(SubscriptionSystem, "advance_time", "pipeline.advance")


def per_layer(tracer: Tracer, harness, wall: float) -> Dict[str, float]:
    """Derive the :data:`PER_LAYER` metrics of one traced pass, all but
    ``webworld.generate_s`` and ``trace.overhead``, which need the
    untraced run."""
    system = harness.system
    docs = harness.docs
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    stores = counts["repository.stores"]
    updated = counts["repository.updated"]
    alert_calls = counts["alerters.calls"]
    alerts = counts["alerters.alerts"]
    checkpoints = tracer.durations("recovery.checkpoint")
    snapshot = harness.journal + ".snapshot"

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def mean_ms(name: str) -> float:
        durations = tracer.durations(name)
        return 1000.0 * sum(durations) / len(durations) if durations else 0.0

    return {
        "xmlstore.parse_s": self_s["xmlstore.parse"],
        "xmlstore.parses_per_doc": ratio(calls["xmlstore.parse"], docs),
        "diff.signature_s": self_s["diff.signature"],
        "diff.signature_passes_per_update": ratio(
            _passes_in_updates(tracer), updated
        ),
        "diff.delta_s": self_s["diff.delta"],
        "diff.classify_s": self_s["diff.classify"],
        "repository.store_self_s": self_s["repository.store"],
        "repository.unchanged_frac": ratio(
            counts["repository.unchanged"], stores
        ),
        "repository.docs": float(len(system.repository)),
        "alerters.detect_s": self_s["alerters.detect"],
        "alerters.events_per_alert": ratio(counts["alerters.events"], alerts),
        "alerters.alert_frac": ratio(alerts, alert_calls),
        "core.match_s": self_s["core.match"],
        "core.notifications_per_alert": ratio(
            counts["core.notifications"], calls["core.match"]
        ),
        "subscription.route_s": self_s["subscription.route"],
        "subscription.subscribe_ms": mean_ms("subscription.subscribe"),
        "subscription.unsubscribe_ms": mean_ms("subscription.unsubscribe"),
        "subscription.cost_check_ms": mean_ms("subscription.cost_check"),
        "subscription.refused": float(harness.refused),
        "reporting.tick_s": self_s["reporting.tick"],
        "reporting.deliver_s": self_s["reporting.deliver"],
        "reporting.reports": float(system.reporter.stats.reports_generated),
        "triggers.tick_s": self_s["triggers.tick"],
        "triggers.fired": float(system.trigger_engine.stats.evaluations),
        "query.evaluate_s": self_s["query.evaluate"],
        "recovery.checkpoint_s": self_s["recovery.checkpoint"],
        "recovery.checkpoint_max_ms": 1000.0 * max(checkpoints, default=0.0),
        "recovery.checkpoint_bytes": float(
            os.path.getsize(snapshot) if os.path.exists(snapshot) else 0
        ),
        "recovery.journal_appends": float(calls["recovery.append"]),
        "minisql.fsync_s": self_s["minisql.fsync"],
        "minisql.fsyncs": float(calls["minisql.fsync"]),
        "pipeline.feed_batch_s": self_s["pipeline.feed_batch"],
        "pipeline.batches": float(calls["pipeline.feed_batch"]),
        "pipeline.queue_wait_s": self_s["pipeline.queue_wait"],
        "pipeline.unattributed_s": sum(self_s[name] for name in CATCH_ALL),
        "trace.docs": float(docs),
        "trace.wall_s": wall,
        "trace.coverage": coverage(self_s, wall),
    }


def coverage(self_s: Dict[str, float], wall: float) -> float:
    """Share of ``wall`` that the program's named layers account for."""
    named = sum(
        seconds for name, seconds in self_s.items()
        if name not in CATCH_ALL + OWN
    )
    return named / wall if wall else 0.0

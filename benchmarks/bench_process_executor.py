"""T-proc — process-pool executor throughput (executor/ingest redesign).

The process executor fans the pure parse/detect sweeps over worker
*processes* — true parallelism, no GIL — which is the reproduction's
stand-in for Xyleme running Figure 3 stages as independent OS processes.
This bench compares ``process:workers=4`` against ``serial`` on the same
evolving-catalog stream at batch {16, 64}, checks the equivalence
contract on the way (identical serialized notification output, queue
depth bounded), and records the ratio.

Interpreting the ratio is core-count-dependent: process pools cannot beat
serial on a single-core host (the workers time-slice one CPU and pay
pickling on top).  On >= 2 cores the acceptance bar is the issue's
**>= 1.5x serial at batch 64 with 4 workers**; on a single core the bar
is "no catastrophic regression" (>= 0.5x serial) and the honest ratio is
recorded either way — ``BENCH_process_executor.json`` carries a ``cores``
field so trajectories from different hosts are not compared blindly.

Results land in ``BENCH_process_executor.json`` (see ``_bench_utils``).
"""

from __future__ import annotations

import os
import time

import pytest

from _bench_utils import QUICK, dump_bench_json, print_series
from repro.clock import SimulatedClock
from repro.pipeline import Fetch, SubscriptionSystem

WORKERS = 4
BATCH_SIZES = (16, 64)
DOCS = 192 if QUICK else 576
SITES = 24
PRODUCTS = 40  # heavier XML per page than T-batch: parse must dominate
REPEATS = 3
#: Ingest-queue bound for every point: the largest batch size, so the
#: feeder runs the same distance ahead at every batch size.
QUEUE_BOUND = max(BATCH_SIZES)
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)

SOURCE = """
subscription Bench
monitoring M
select <Hit url=URL/>
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
report when count >= 5
"""

_results: dict = {}


def make_stream():
    fetches = []
    for index in range(DOCS):
        site = index % SITES
        round_no = index // SITES
        word = "camera" if (site + round_no) % 2 == 0 else "tripod"
        products = "".join(
            f"<Product sku='{site}-{round_no}-{i}'>{word} model"
            f" {round_no}-{i} <spec>f/2.8 zoom {i}mm</spec></Product>"
            for i in range(PRODUCTS)
        )
        fetches.append(
            Fetch(
                f"http://www.shop{site}.example/catalog.xml",
                f"<catalog>{products}</catalog>",
            )
        )
    return fetches


def build_system(executor: str, batch_size: int = 32) -> SubscriptionSystem:
    system = SubscriptionSystem(
        clock=SimulatedClock(1_000_000.0),
        executor=executor,
        batch_size=batch_size,
        queue_bound=QUEUE_BOUND,
    )
    system.subscribe(SOURCE, owner_email="bench@example.org")
    return system


def notification_trace(results) -> list:
    return sorted(
        (n.complex_code, n.document_url, n.timestamp)
        for result in results
        for n in result.notifications
    )


def measure(executor: str, batch_size: int, stream) -> float:
    """Best-of-N wall-clock docs/sec for one (executor, batch) point."""
    best = float("inf")
    for _ in range(REPEATS):
        system = build_system(executor, batch_size)
        start = time.perf_counter()
        system.run_stream(iter(stream))
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        system.executor.close()
    return DOCS / best


def test_process_output_matches_serial(benchmark):
    """Equivalence on the bench stream itself: byte-identical output."""
    stream = make_stream()
    serial = build_system("serial")
    expected = notification_trace(serial.run_stream(iter(stream)))

    def run():
        system = build_system(f"process:workers={WORKERS}")
        trace = notification_trace(system.run_stream(iter(stream)))
        system.executor.close()
        return system, trace

    system, trace = benchmark.pedantic(run, rounds=1, iterations=1)
    assert trace == expected
    assert system.documents_fed == serial.documents_fed
    # The stream ran through the bounded queue: depth never exceeded the
    # bound and is back to zero once drained.
    assert system.metrics_snapshot()["gauges"]["executor.queue_depth"] == 0


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("executor", ("serial", f"process:workers={WORKERS}"))
def test_executor_throughput(benchmark, executor, batch_size):
    stream = make_stream()

    def run():
        system = build_system(executor, batch_size)
        system.run_stream(iter(stream))
        system.executor.close()
        return system

    system = benchmark.pedantic(run, rounds=1, iterations=1)
    assert system.documents_fed == DOCS
    name = "process" if executor.startswith("process") else "serial"
    _results[(name, batch_size)] = measure(executor, batch_size, stream)


def test_process_executor_report(benchmark):
    benchmark(lambda: None)
    missing = [
        (name, batch)
        for name in ("serial", "process")
        for batch in BATCH_SIZES
        if (name, batch) not in _results
    ]
    if missing:
        pytest.skip(f"points not measured in this run: {missing}")
    rows = []
    for name in ("serial", "process"):
        rows.append(
            f"{name:>8}  " + "  ".join(
                f"b={batch:<3} {_results[(name, batch)]:9,.0f} docs/s"
                for batch in BATCH_SIZES
            )
        )
    speedups = {
        batch: _results[("process", batch)] / _results[("serial", batch)]
        for batch in BATCH_SIZES
    }
    rows.append(
        f"process vs serial : "
        + "  ".join(f"b={b}: {s:.2f}x" for b, s in speedups.items())
        + f"  ({CORES} core(s), {WORKERS} workers)"
    )
    print_series(
        "T-proc: process-pool executor vs serial (full pipeline)",
        f"{DOCS} documents, {SITES} sites, {PRODUCTS} products/page,"
        f" best of {REPEATS}",
        rows,
    )
    path = dump_bench_json(
        {
            "params": {
                "docs": DOCS,
                "sites": SITES,
                "products_per_page": PRODUCTS,
                "workers": WORKERS,
                "repeats": REPEATS,
                "batch_sizes": list(BATCH_SIZES),
            },
            "cores": CORES,
            "docs_per_second": {
                name: {
                    str(batch): _results[(name, batch)]
                    for batch in BATCH_SIZES
                }
                for name in ("serial", "process")
            },
            "speedup_vs_serial": {
                str(batch): speedups[batch] for batch in BATCH_SIZES
            },
        },
        "process_executor",
    )
    print(f"results dumped to {path}")
    if CORES >= 2:
        # The issue's acceptance bar, reachable only with real parallelism.
        assert speedups[64] >= 1.5, (
            f"process pool {speedups[64]:.2f}x serial at batch 64"
            f" on {CORES} cores (bar: 1.5x)"
        )
    else:
        # Single-core host: workers time-slice one CPU; just require the
        # pool overhead not to be catastrophic.
        assert speedups[64] >= 0.5, (
            f"process pool {speedups[64]:.2f}x serial at batch 64 on a"
            f" single core (bar: 0.5x)"
        )

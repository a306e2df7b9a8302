"""T-batch — batch executor throughput (staged pipeline, PR 2).

Xyleme's ingestion is claimed to sustain "millions of documents per day"
by decomposing the Figure 3 stages into independent processes.  The
reproduction's seam for that is the pluggable
:class:`~repro.pipeline.executor.BatchExecutor`; this bench records the
wall-clock docs/sec of the serial and threaded executors at batch sizes
{1, 16, 64} over the same evolving-catalog stream, on one flow-partitioned
topology (4 shards).  The process executor has its own bench
(``bench_process_executor.py``, T-proc).

Expected shape under the CPython GIL: the threaded executor buys overlap,
not raw speedup — the acceptance bar is "no regression" (>= 0.8x serial
at batch 64, allowing for noise).

Results land in ``BENCH_batch_executor.json`` (see ``_bench_utils``).
"""

from __future__ import annotations

import time

import pytest

from _bench_utils import QUICK, dump_bench_json, print_series
from repro.clock import SimulatedClock
from repro.pipeline import Fetch, SubscriptionSystem

SHARDS = 4
BATCH_SIZES = (1, 16, 64)
EXECUTORS = ("serial", "threaded")
DOCS = 192 if QUICK else 576
SITES = 24
REPEATS = 3
#: Ingest-queue bound for every point: the largest batch size, so the
#: feeder runs the same distance ahead at every batch size.
QUEUE_BOUND = max(BATCH_SIZES)

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
            f"<Product>{word} model {round_no}-{i}</Product>"
            for i in range(6)
        )
        fetches.append(
            Fetch(
                f"http://www.shop{site}.example/catalog.xml",
                f"<catalog>{products}</catalog>",
            )
        )
    return fetches


def build_system(executor: str, batch_size: int) -> SubscriptionSystem:
    system = SubscriptionSystem(
        clock=SimulatedClock(1_000_000.0),
        shards=SHARDS,
        executor=executor,
        batch_size=batch_size,
        queue_bound=QUEUE_BOUND,
    )
    system.subscribe(SOURCE, owner_email="bench@example.org")
    return system


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


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_executor_throughput(benchmark, executor, batch_size):
    stream = make_stream()

    def run():
        system = build_system(executor, batch_size)
        system.run_stream(iter(stream))
        system.executor.close()
        return system

    system = benchmark(run)
    assert system.documents_fed == DOCS
    _results[(executor, batch_size)] = measure(executor, batch_size, stream)


def test_batch_executor_report(benchmark):
    benchmark(lambda: None)
    missing = [
        (executor, batch)
        for executor in EXECUTORS
        for batch in BATCH_SIZES
        if (executor, batch) not in _results
    ]
    if missing:
        pytest.skip(f"points not measured in this run: {missing}")
    rows = []
    for executor in EXECUTORS:
        row = f"{executor:>8}  " + "  ".join(
            f"b={batch:<3} {_results[(executor, batch)]:9,.0f} docs/s"
            for batch in BATCH_SIZES
        )
        rows.append(row)
    serial64 = _results[("serial", 64)]
    rows.append(
        "vs serial @ b=64 : "
        + "  ".join(
            f"{executor}={_results[(executor, 64)] / serial64:.2f}x"
            for executor in EXECUTORS
        )
    )
    print_series(
        "T-batch: executor throughput (full pipeline)",
        f"{DOCS} documents, {SITES} sites, {SHARDS} flow shards,"
        f" best of {REPEATS}",
        rows,
    )
    path = dump_bench_json(
        {
            "params": {
                "docs": DOCS,
                "sites": SITES,
                "shards": SHARDS,
                "repeats": REPEATS,
                "batch_sizes": list(BATCH_SIZES),
            },
            "docs_per_second": {
                executor: {
                    str(batch): _results[(executor, batch)]
                    for batch in BATCH_SIZES
                }
                for executor in EXECUTORS
            },
            "speedup_vs_serial_at_64": {
                executor: _results[(executor, 64)] / serial64
                for executor in EXECUTORS
            },
        },
        "batch_executor",
    )
    print(f"results dumped to {path}")
    # The GIL bounds the threaded executor; the bar is "no meaningful
    # regression" at the largest batch (generous tolerance for CI noise).
    assert _results[("threaded", 64)] >= 0.8 * serial64

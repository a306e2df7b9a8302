"""T-load — the loader/alerter path keeps up with the crawler (Section 6.3).

Paper: "In our experiments, the Alerters could easily support the rate of
fetching documents on the web imposed by the crawlers and URL managers"
(one crawler ≈ 50 documents/second).

Reproduction: time the full per-fetch path — parse, signature, diff
against the previous version, change classification, alerter detection —
for catalog documents of realistic size, and compare the rate against the
paper's 50 docs/s crawler.  The report also shows the parse layer on its
own: milliseconds per page parse, and parse calls (repository loads plus
notification rendering) per stored document on the refetch path.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import pytest

from _bench_utils import print_series
from repro.clock import SimulatedClock
from repro.pipeline import SubscriptionSystem
from repro.webworld import ChangeModel, SiteGenerator, to_xml
from repro.xmlstore import parser

DOCUMENTS = 150
PRODUCTS_PER_CATALOG = 20
CRAWLER_RATE = 50.0

_results: dict = {}


def _prepared_system():
    system = SubscriptionSystem(clock=SimulatedClock(0.0))
    system.subscribe(
        """
        subscription Load
        monitoring M
        select X
        from self//Product X
        where URL extends "http://www.shop"
          and new Product contains "camera"
        report when count >= 1000
        """,
        owner_email="u@x",
    )
    return system


def _page_versions():
    generator = SiteGenerator(seed=201)
    model = ChangeModel(seed=202)
    base = generator.catalog(products=PRODUCTS_PER_CATALOG)
    versions = [to_xml(base)]
    document = base
    for _ in range(DOCUMENTS - 1):
        document = model.mutate(document)
        versions.append(to_xml(document))
    return versions


@contextmanager
def _counted_parses():
    """Count calls of ``parser.parse`` in every ``repro`` module binding it."""
    calls = []
    original = parser.parse

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    patched = [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module is not None and module_name.startswith("repro")
        for name, value in list(vars(module).items())
        if value is original
    ]
    for module, name in patched:
        setattr(module, name, counted)
    try:
        yield calls
    finally:
        for module, name in patched:
            setattr(module, name, original)


def test_first_load_rate(benchmark):
    """Cold path: parse + store + index + alert (no diff)."""
    versions = _page_versions()

    def run():
        system = _prepared_system()
        for index, content in enumerate(versions):
            system.feed_xml(f"http://www.shop{index}.example/c.xml", content)
        return system

    benchmark.pedantic(run, rounds=2, iterations=1)
    start = time.perf_counter()
    run()
    elapsed = time.perf_counter() - start
    _results["cold_docs_per_second"] = DOCUMENTS / elapsed


def test_refetch_rate_with_diff(benchmark):
    """Hot path: every fetch diffs against the stored previous version."""
    versions = _page_versions()

    def run():
        system = _prepared_system()
        for index, content in enumerate(versions):
            system.feed_xml("http://www.shop0.example/c.xml", content)
            system.clock.advance(60)
        return system

    benchmark.pedantic(run, rounds=2, iterations=1)
    start = time.perf_counter()
    run()
    elapsed = time.perf_counter() - start
    _results["diff_docs_per_second"] = DOCUMENTS / elapsed


def test_parse_layer(benchmark):
    """Parse cost per page, and parses per stored document when refetching."""
    versions = _page_versions()

    def parse_all():
        for content in versions:
            parser.parse(content)

    benchmark.pedantic(parse_all, rounds=2, iterations=1)
    start = time.perf_counter()
    parse_all()
    _results["parse_ms_per_page"] = (
        (time.perf_counter() - start) * 1000.0 / len(versions)
    )

    system = _prepared_system()
    with _counted_parses() as calls:
        for content in versions:
            system.feed_xml("http://www.shop0.example/c.xml", content)
            system.clock.advance(60)
    _results["parses_per_document"] = len(calls) / len(versions)


def test_loader_report_and_claims(benchmark):
    benchmark(lambda: None)
    cold = _results.get("cold_docs_per_second", 0.0)
    hot = _results.get("diff_docs_per_second", 0.0)
    parse_ms = _results.get("parse_ms_per_page", 0.0)
    parses = _results.get("parses_per_document", 0.0)
    rows = [
        f"first-load path : {cold:8,.0f} docs/s"
        f" ({cold / CRAWLER_RATE:5.1f} crawlers)",
        f"refetch + diff  : {hot:8,.0f} docs/s"
        f" ({hot / CRAWLER_RATE:5.1f} crawlers)",
        f"parse           : {parse_ms:8.2f} ms/page",
        f"parse calls     : {parses:8.2f} per stored document",
    ]
    print_series(
        "T-load: loader/alerter path vs crawler rate",
        f"{DOCUMENTS} catalogs of {PRODUCTS_PER_CATALOG} products;"
        f" paper crawler = {CRAWLER_RATE:.0f} docs/s",
        rows,
    )
    # The paper's claim: the alerter path keeps up with one crawler.
    assert hot > CRAWLER_RATE

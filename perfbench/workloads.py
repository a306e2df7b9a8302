"""Seeded workload generators for the subscription-pipeline benchmark.

A workload is everything the system under test receives: the initial
subscription texts and, one simulated day at a time, a list of steps.
The generator (site generator, change model and crawler, on a clock of
their own) never touches the system; the runner generates every step
before timing and then replays them::

    ("feed", [Fetch, ...])            one ``run_stream`` call
    ("churn", [(slot, source), ...])  unsubscribe the slot, subscribe anew
    ("advance", seconds)              ``advance_time`` with hourly ticks

Day 0 is the first crawl pass, where every page is new; it belongs to
set-up.  Later days are the steady phase, cut at the first step boundary
after a given number of documents.  Every step list is a pure function of
``(workload, seed, scale)``, and a shorter steady phase is a prefix of a
longer one.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.clock import SECONDS_PER_DAY, SimulatedClock
from repro.webworld import ChangeModel, SimulatedCrawler, SiteGenerator
from repro.webworld.change_model import ChangeRates
from repro.webworld.vocabulary import WORDS
from repro.xmlstore.words import normalize_word, unique_words

#: Simulated start time shared by generator and system clocks.
START = 990_000_000.0
#: Documents per ``run_stream`` call.  At the default batch of 32 this is
#: four batches, so a warehouse checkpointing every 4 batches does so once
#: per chunk, inside each simulated day.
CHUNK = 128

Step = Tuple[str, object]

#: Text between two tags of a serialized page.
TEXT = re.compile(r">([^<]+)<")

CAMERAS = """
subscription Cameras
monitoring NewCam
select X
from self//Product X
where URL extends "http://www.shop"
  and new Product contains "camera"
report when count >= 5
"""

UPDATES = """
subscription AnyUpdate
monitoring Upd
select <UpdatedPage url=URL/>
where URL extends "http://www.shop"
  and modified self
report when count >= 50
"""

CULTURE = """
subscription CultureWatch
continuous delta Paintings
select p/title
from culture/museum m, m/painting p
where m/address contains "amsterdam"
try daily
report when immediate
"""

DENSE = """
subscription Dense{serial}
monitoring Hit
select <Hit url=URL/>
where URL extends "{prefix}"
  and Product contains "{word}"
report when count >= {count} or daily
"""


class Workload:
    """One named workload; subclasses fill in pages and steps."""

    name = ""
    #: Whether the runner enables crash recovery (journal + checkpoints).
    recovery = False
    #: Steady-phase documents per requested second of measurement: about
    #: the rate the workload runs at on a 2-core x86 container.
    rate = 100
    #: Edit rates of the change model; ``None`` keeps its defaults.
    rates: Optional[ChangeRates] = None

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.clock = SimulatedClock(START)
        self.sites = SiteGenerator(seed)
        self.crawler = SimulatedCrawler(
            clock=self.clock,
            change_model=ChangeModel(seed + 1, rates=self.rates),
            seed=seed + 2,
        )
        self.order = random.Random(seed + 4)

    def scaled(self, count: int) -> int:
        return max(1, int(round(count * self.scale)))

    def subscriptions(self) -> List[str]:
        raise NotImplementedError

    def generate(self, docs: int) -> Tuple[List[Step], List[Step]]:
        """Day 0, and the steady steps up to the first step boundary at
        which at least ``docs`` documents have been fed."""
        days = self.days()
        day0 = next(days)
        steps: List[Step] = []
        fed = 0
        while fed < docs:
            for step in next(days):
                steps.append(step)
                if step[0] == "feed":
                    fed += len(step[1])
                    if fed >= docs:
                        break
        return day0, steps

    def days(self) -> Iterator[List[Step]]:
        """Yield day 0, day 1, ... as step lists, generated on demand."""
        while True:
            yield self.crawl_day(self.churn())

    def churn(self) -> list:
        return []

    def crawl_day(self, churn: list) -> List[Step]:
        fetches = list(self.crawler.due_fetches())
        self.observe(fetches)
        # The crawler yields due pages in URL order; shuffled, notifying
        # pages land at every queue position instead of in clusters.
        self.order.shuffle(fetches)
        chunks = [
            fetches[i : i + CHUNK] for i in range(0, len(fetches), CHUNK)
        ]
        steps: List[Step] = []
        # Churn is spread over the day, one share before each chunk.
        for index, chunk in enumerate(chunks):
            share = churn[
                index * len(churn) // len(chunks) :
                (index + 1) * len(churn) // len(chunks)
            ]
            if share:
                steps.append(("churn", share))
            steps.append(("feed", chunk))
        steps.append(("advance", SECONDS_PER_DAY))
        self.clock.advance(SECONDS_PER_DAY)
        return steps

    def observe(self, fetches) -> None:
        """Look at a day's fetches before they are chunked."""

    def add_catalogs(self, count: int, products: int, probability: float):
        first = len(self.crawler)
        for index in range(first, first + count):
            self.crawler.add_xml_page(
                f"http://www.shop{index:04d}.example/catalog.xml",
                self.sites.catalog(products=products),
                change_probability=probability,
            )


class CrawlUpdate(Workload):
    """Large catalogs refetched daily: the load path (parse, signatures,
    diff, index) does most of the work, the matcher a few percent."""

    name = "crawl-update"

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.add_catalogs(self.scaled(400), products=40, probability=0.7)

    def subscriptions(self) -> List[str]:
        return [CAMERAS, UPDATES]


class SubscriptionDense(Workload):
    """Small pages against thousands of standing subscriptions with daily
    churn: alerters, matcher, routing and reporter dominate, and churn puts
    registry writes beside the reads."""

    name = "subscription-dense"
    #: Share of subscriptions replaced per simulated day.
    churn_rate = 0.1
    #: Churn subscribes as a default user, so the cost controller refuses
    #: a word found in more than half the documents.  Churn draws only
    #: words found in at most this share of the pages as last fetched;
    #: the margin covers the changes of the day the subscription lands in.
    max_word_share = 0.4
    #: Fewer inserts and more deletes than the default rates keep a page
    #: at about its size, so word shares and the cost of a day stay flat
    #: instead of every word becoming too common within days.
    rates = ChangeRates(inserts=0.35, deletes=1.0)
    rate = 300

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.pages = self.scaled(400)
        self.add_catalogs(self.pages, products=3, probability=0.9)
        self.rng = random.Random(seed + 3)
        self.serial = 0
        self.slots = self.scaled(5000)
        #: Distinct words of each page's last fetched version.
        self.page_words: Dict[str, Set[str]] = {}

    def observe(self, fetches) -> None:
        for fetch in fetches:
            self.page_words[fetch.url] = unique_words(
                " ".join(TEXT.findall(fetch.content))
            )

    def rare_words(self) -> Sequence[str]:
        pages = Counter()
        for words in self.page_words.values():
            pages.update(words)
        limit = self.max_word_share * len(self.page_words)
        return [word for word in WORDS if pages[normalize_word(word)] <= limit]

    def dense_source(self, words: Sequence[str] = WORDS) -> str:
        rng = self.rng
        page = f"http://www.shop{rng.randrange(self.pages):04d}"
        # A three-digit host prefix covers ten pages, a four-digit one a
        # single page.
        prefix = page[:-1] if rng.random() < 0.5 else page
        self.serial += 1
        return DENSE.format(
            serial=self.serial,
            prefix=prefix,
            word=rng.choice(words),
            count=rng.choice((5, 20, 100)),
        )

    def subscriptions(self) -> List[str]:
        return [self.dense_source() for _ in range(self.slots)]

    def churn(self) -> list:
        count = int(self.slots * self.churn_rate)
        slots = self.rng.sample(range(self.slots), count)
        words = self.rare_words()
        return [(slot, self.dense_source(words)) for slot in slots]

    def days(self) -> Iterator[List[Step]]:
        yield self.crawl_day([])
        while True:
            yield self.crawl_day(self.churn())


class WarehouseGrowth(Workload):
    """A warehouse growing every day under a continuous delta query with
    recovery on: the only workload that runs triggers, the query engine
    and checkpoints, whose cost grows with the warehouse."""

    name = "warehouse-growth"
    recovery = True
    rate = 200

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.grow(self.scaled(400))

    def grow(self, count: int) -> None:
        museums = count // 4
        self.add_catalogs(count - museums, products=20, probability=0.5)
        first = len(self.crawler)
        for index in range(first, first + museums):
            self.crawler.add_xml_page(
                f"http://www.museum{index:04d}.example/collection.xml",
                self.sites.museum(paintings=12),
                change_probability=0.5,
            )

    def subscriptions(self) -> List[str]:
        return [CULTURE, CAMERAS]

    def days(self) -> Iterator[List[Step]]:
        yield self.crawl_day([])
        while True:
            self.grow(self.scaled(300))
            yield self.crawl_day([])


WORKLOADS = {
    workload.name: workload
    for workload in (CrawlUpdate, SubscriptionDense, WarehouseGrowth)
}

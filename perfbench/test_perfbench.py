"""Tests of the benchmark itself, at a tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CAMERAS, DENSE, WORKLOADS  # noqa: E402

SCALE = 0.02
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, trace, tmp_path, seed=5):
    return run.run(name, seed, 0.3, trace, scale=SCALE, workdir=tmp_path / "w")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke(name, trace, tmp_path):
    result = tiny(name, trace, tmp_path)
    assert result["correct"], result["info"]["failures"]
    assert result["failed"] == 0
    assert result["info"]["refused_subscriptions"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    got = {key: value["unit"] for key, value in result["metrics"].items()}
    assert got == expected
    for key, value in result["metrics"].items():
        assert NAME.match(key), key
        assert isinstance(value["value"], float), key


def test_declared_names_and_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        names = [metric["name"] for metric in BENCHMARK[section]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        name for name, _ in run.END_TO_END
    ]


def test_generation_is_a_function_of_the_seed():
    def generated(seed, docs=40):
        workload = WORKLOADS["subscription-dense"](seed, SCALE)
        return workload.subscriptions(), workload.generate(docs)

    assert generated(7) == generated(7)
    assert generated(7) != generated(8)
    sources, (day0, steps) = generated(7)
    _, (_, longer) = generated(7, 80)
    assert longer[: len(steps)] == steps
    assert run.fed(steps) >= 40


def replayed(name, tmp_path):
    workload = WORKLOADS[name](5, SCALE)
    sources = workload.subscriptions()
    day0, steps = workload.generate(40)
    harness = run.Harness(
        sources, tmp_path / "h", workload.recovery, reference=True
    )
    run.replay(harness, day0 + steps)
    harness.close()
    return harness


def test_perturbed_digest_trips_the_gate(tmp_path):
    harness = replayed("crawl-update", tmp_path)
    notified, marks = harness.probe.notified, harness.marks
    assert notified
    clean = run.digests(notified, marks)
    assert run.gate("crawl-update", 5, SCALE, clean, clean[-1]) == []
    code, url, timestamp = notified[0]
    perturbed = [(code, url + "x", timestamp)] + notified[1:]
    assert run.gate(
        "crawl-update", 5, SCALE, run.digests(perturbed, marks), clean[-1]
    )
    dropped = run.digests(notified[1:], [(max(n - 1, 0), r, e) for n, r, e in marks])
    assert run.gate("crawl-update", 5, SCALE, dropped, clean[-1])


def test_digest_ignores_notification_order(tmp_path):
    harness = replayed("subscription-dense", tmp_path)
    notified, marks = harness.probe.notified, harness.marks
    final = [marks[-1]]
    assert run.digests(notified, final) == run.digests(notified[::-1], final)


def test_golden_mismatch_trips_the_gate(monkeypatch):
    monkeypatch.setattr(
        run, "load_golden", lambda: {"crawl-update": ["0" * 32 + ":0:0"]}
    )
    measured = ["1" * 32 + ":0:0"]
    assert run.gate("crawl-update", run.DEFAULT_SEED, 1.0, measured, measured[-1])
    assert not run.gate("crawl-update", run.DEFAULT_SEED + 1, 1.0, measured, measured[-1])


def test_refused_subscription_leaves_its_slot_empty(tmp_path):
    common = DENSE.format(
        serial=1, prefix="http://www.shop0001", word="the", count=5
    )
    for reference in (False, True):
        harness = run.Harness(
            [CAMERAS, common], tmp_path / str(reference), False, reference
        )
        assert harness.refused == 1
        assert harness.slots[1] is None
        harness.apply(("churn", [(1, common), (0, CAMERAS)]))
        assert harness.refused == 2
        assert harness.slots[0] is not None
        harness.close()


def test_dense_churn_words_stay_under_the_share_limit():
    workload = WORKLOADS["subscription-dense"](5, SCALE)
    workload.subscriptions()
    workload.generate(200)
    pages = len(workload.page_words)
    for word in set(workload.rare_words()):
        share = sum(
            word in words for words in workload.page_words.values()
        ) / pages
        assert share <= workload.max_word_share


def test_coverage_leaves_out_catch_all_spans():
    tracer = Tracer()
    # run_stream for 1 s, of which a parse covers 0.25 s.
    tracer.spans[:] = [
        ["pipeline.run_stream", 0.0, 1.0, -1],
        ["xmlstore.parse", 0.5, 0.75, 0],
        ["bench.sink", 0.8, 0.9, 0],
    ]
    self_s = tracer.self_times()
    assert self_s["pipeline.run_stream"] == pytest.approx(0.65)
    assert layers.coverage(self_s, 1.0) == pytest.approx(0.25)

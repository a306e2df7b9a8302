"""The parser reproduces the pinned equivalence corpus entry for entry.

``tests/data/xml_parser_corpus.json`` (made by
``tests/data/make_xml_parser_corpus.py``) holds seeded pages, payload
elements, hand-written edge cases and ~2,000 seeded mutations, each with the
tree the parser built or the exact ``XMLSyntaxError`` text, line and column
it raised, plus the token stream for the short inputs.
"""

import json
from pathlib import Path

import pytest

from tests.data.make_xml_parser_corpus import (
    MUTATIONS,
    expected_parse,
    expected_tokens,
)

CORPUS = Path(__file__).parent / "data" / "xml_parser_corpus.json"


@pytest.fixture(scope="module")
def corpus():
    with CORPUS.open(encoding="utf-8") as handle:
        return json.load(handle)


def _mismatches(entries, check):
    bad = []
    for index, entry in enumerate(entries):
        problem = check(entry)
        if problem:
            bad.append(f"#{index} {entry['source']!r}: {problem}")
    return bad


def test_corpus_covers_every_kind(corpus):
    kinds = {entry["kind"] for entry in corpus}
    assert kinds == {"page", "payload", "handwritten", "mutation"}
    mutations = [entry for entry in corpus if entry["kind"] == "mutation"]
    assert len(mutations) == MUTATIONS
    assert any("tree" in entry for entry in mutations)
    assert any("error" in entry for entry in mutations)


def test_parse_reproduces_trees_and_errors(corpus):
    def check(entry):
        expected = {key: entry[key] for key in ("tree", "error") if key in entry}
        actual = expected_parse(entry["source"], keep_whitespace=False)
        if actual != expected:
            return f"expected {expected}, got {actual}"
        keep = entry.get("keep_whitespace", expected)
        actual = expected_parse(entry["source"], keep_whitespace=True)
        if actual != keep:
            return f"keep_whitespace: expected {keep}, got {actual}"
        return None

    bad = _mismatches(corpus, check)
    assert not bad, f"{len(bad)} mismatches, first: " + "\n".join(bad[:5])


def test_tokenize_reproduces_tokens_and_positions(corpus):
    def check(entry):
        if "tokens" not in entry:
            return None
        expected = {
            key: entry[key] for key in ("tokens", "token_error") if key in entry
        }
        actual = json.loads(json.dumps(expected_tokens(entry["source"])))
        if actual != expected:
            return f"expected {expected}, got {actual}"
        return None

    with_tokens = [entry for entry in corpus if "tokens" in entry]
    assert len(with_tokens) > 1000
    bad = _mismatches(corpus, check)
    assert not bad, f"{len(bad)} mismatches, first: " + "\n".join(bad[:5])

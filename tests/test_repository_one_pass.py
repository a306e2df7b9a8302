"""Property test: the one-pass load path changes no outcome.

``Repository.store_xml`` skips byte-identical refetches before parsing,
hashes each new version once and diffs it against the head signatures it
kept.  Over random edit sequences (the edit strategies of
``test_diff_properties``), including byte-identical and whitespace-only
refetches and root-tag changes that restart the lineage, it must give the
statuses, delta operations and XIDs of a from-scratch reference that parses
every fetch and diffs copies with freshly computed signatures.  Its cached
head signatures must always equal a fresh ``subtree_signatures`` pass.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimulatedClock
from repro.diff import (
    DOC_NEW,
    DOC_UNCHANGED,
    DOC_UPDATED,
    XidSpace,
    compute_delta,
    copy_document,
    document_signature,
    subtree_signatures,
)
from repro.errors import DiffError
from repro.repository import Repository
from repro.xmlstore import parse, serialize

from .test_diff_properties import documents, mutate

URL = "http://x.example/doc.xml"

steps = st.lists(
    st.tuples(
        st.sampled_from(("edit", "edit", "same", "spaced", "root")),
        st.integers(0, 2**31),
    ),
    min_size=1,
    max_size=8,
)


def spaced(text):
    """The same document with whitespace-only text between tags."""
    return text.replace("><", ">\n  <")


def renamed_root(document, seed):
    result = copy_document(document)
    result.root.tag = random.Random(seed).choice(("root", "other", "page"))
    return result


def fetch_texts(first, plan):
    """The text of every fetch: the first version, then one per step."""
    texts = [serialize(first)]
    current = first
    for action, seed in plan:
        if action == "edit":
            current = mutate(current, seed)
            texts.append(serialize(current))
        elif action == "root":
            current = renamed_root(current, seed)
            texts.append(serialize(current))
        elif action == "same":
            texts.append(texts[-1])
        else:
            texts.append(spaced(texts[-1]))
    return texts


def delta_ops(delta):
    if delta is None:
        return None
    return (
        [(op.xid, op.parent_xid, op.position) for op in delta.deletes],
        [
            (op.parent_xid, op.position, nodes(op.subtree))
            for op in delta.inserts
        ],
        [(op.xid, op.old_text, op.new_text) for op in delta.text_updates],
        [(op.xid, op.changes) for op in delta.attribute_updates],
    )


def nodes(subtree):
    return [
        (node.xid, getattr(node, "tag", None), getattr(node, "data", None))
        for node in subtree.preorder()
    ]


def xids(document):
    return [node.xid for node in document.preorder()]


class Reference:
    """Parse every fetch, hash from scratch, diff a copy of the head."""

    def __init__(self):
        self.head = None
        self.space = None

    def store(self, text):
        document = parse(text)
        if self.head is None:
            return self._restart(document, DOC_NEW)
        if document_signature(document) == document_signature(self.head):
            return DOC_UNCHANGED, None, xids(self.head)
        try:
            delta = compute_delta(
                copy_document(self.head), document, self.space
            )
        except DiffError:
            return self._restart(document, DOC_UPDATED)
        self.head = document
        return DOC_UPDATED, delta_ops(delta), xids(document)

    def _restart(self, document, status):
        self.space = XidSpace()
        self.space.assign_fresh(document.root)
        self.head = document
        return status, None, xids(document)


def assert_cache_fresh(repository):
    stored = repository._docs[repository.meta_for_url(URL).doc_id]
    if stored.head_signatures is not None:
        fresh = subtree_signatures(stored.current.root)
        assert list(stored.head_signatures) == list(fresh.values())


@settings(max_examples=60, deadline=None)
@given(documents(), steps)
def test_one_pass_store_matches_from_scratch_diff(first, plan):
    texts = fetch_texts(first, plan)
    reference = Reference()
    one_pass = Repository(clock=SimulatedClock())
    pre_parsed = Repository(clock=SimulatedClock())
    for text in texts:
        expected = reference.store(text)
        for repository, parsed in ((one_pass, None), (pre_parsed, parse(text))):
            outcome = repository.store_xml(URL, text, parsed)
            assert outcome.status == expected[0]
            if outcome.status == DOC_UPDATED:
                assert delta_ops(outcome.delta) == expected[1]
            assert xids(outcome.document) == expected[2]
            assert_cache_fresh(repository)

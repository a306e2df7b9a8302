import pytest

from repro.clock import SimulatedClock
from repro.diff import DOC_NEW, DOC_UNCHANGED, DOC_UPDATED, matching
from repro.errors import DocumentNotFound, RepositoryError
from repro.pipeline import Fetch, SubscriptionSystem
from repro.recovery.state import capture_runtime, restore_runtime
from repro.repository import Repository, store
from repro.repository.persistence import load_repository, save_repository
from repro.xmlstore import parse, serialize


class TestStoreXML:
    def test_first_store_is_new(self, repository):
        outcome = repository.store_xml("http://x/a.xml", "<r><a/></r>")
        assert outcome.status == DOC_NEW
        assert outcome.meta.version == 1
        assert outcome.is_new and outcome.changed

    def test_unchanged_refetch(self, repository, clock):
        repository.store_xml("http://x/a.xml", "<r><a/></r>")
        clock.advance(10)
        outcome = repository.store_xml("http://x/a.xml", "<r><a/></r>")
        assert outcome.status == DOC_UNCHANGED
        assert outcome.meta.version == 1
        assert not outcome.changed

    def test_updated_refetch_produces_delta(self, repository, clock):
        repository.store_xml("http://x/a.xml", "<r><a/></r>")
        clock.advance(10)
        outcome = repository.store_xml("http://x/a.xml", "<r><a/><b/></r>")
        assert outcome.status == DOC_UPDATED
        assert outcome.meta.version == 2
        assert outcome.delta is not None and len(outcome.delta.inserts) == 1
        assert outcome.old_document is not None

    def test_last_accessed_and_updated_tracked(self, repository, clock):
        repository.store_xml("http://x/a.xml", "<r/>")
        first_time = clock.now()
        clock.advance(100)
        repository.store_xml("http://x/a.xml", "<r/>")
        meta = repository.meta_for_url("http://x/a.xml")
        assert meta.last_updated == first_time
        assert meta.last_accessed == first_time + 100

    def test_domain_classified_on_store(self, repository):
        outcome = repository.store_xml(
            "http://m/c.xml", "<museum><painting/></museum>"
        )
        assert outcome.meta.domain == "culture"

    def test_dtd_registered_on_store(self, repository):
        outcome = repository.store_xml(
            "http://x/a.xml",
            '<!DOCTYPE r SYSTEM "http://d/r.dtd"><r/>',
        )
        assert outcome.meta.dtd_url == "http://d/r.dtd"
        assert outcome.meta.dtd_id is not None

    def test_root_change_restarts_lineage(self, repository, clock):
        repository.store_xml("http://x/a.xml", "<old/>")
        clock.advance(5)
        outcome = repository.store_xml("http://x/a.xml", "<new/>")
        assert outcome.status == DOC_UPDATED
        assert outcome.delta is None
        assert outcome.old_document.root.tag == "old"
        assert repository.retained_versions(outcome.meta.doc_id) == [2]

    def test_html_url_cannot_become_xml(self, repository):
        repository.store_html("http://x/p", "<html>hi</html>")
        with pytest.raises(RepositoryError):
            repository.store_xml("http://x/p", "<r/>")


class TestStoreHTML:
    def test_new_then_unchanged_then_updated(self, repository):
        first = repository.store_html("http://x/p.html", "<html>v1</html>")
        assert first.status == DOC_NEW
        same = repository.store_html("http://x/p.html", "<html>v1</html>")
        assert same.status == DOC_UNCHANGED
        changed = repository.store_html("http://x/p.html", "<html>v2</html>")
        assert changed.status == DOC_UPDATED
        assert changed.meta.version == 2

    def test_html_not_warehoused(self, repository):
        outcome = repository.store_html("http://x/p.html", "<html/>")
        with pytest.raises(RepositoryError):
            repository.document(outcome.meta.doc_id)


class TestVersions:
    def test_reconstruct_older_versions(self, repository, clock):
        url = "http://x/a.xml"
        repository.store_xml(url, "<r><a>1</a></r>")
        clock.advance(1)
        repository.store_xml(url, "<r><a>2</a></r>")
        clock.advance(1)
        repository.store_xml(url, "<r><a>2</a><b/></r>")
        doc_id = repository.meta_for_url(url).doc_id
        assert repository.retained_versions(doc_id) == [3, 2, 1]
        v1 = repository.version(doc_id, 1)
        assert serialize(v1) == "<r><a>1</a></r>"
        v2 = repository.version(doc_id, 2)
        assert serialize(v2) == "<r><a>2</a></r>"

    def test_version_retention_bounded(self, classifier, clock):
        from repro.repository import Repository

        repository = Repository(
            classifier=classifier, clock=clock, keep_versions=3
        )
        url = "http://x/a.xml"
        for i in range(6):
            repository.store_xml(url, f"<r><a>{i}</a></r>")
            clock.advance(1)
        doc_id = repository.meta_for_url(url).doc_id
        retained = repository.retained_versions(doc_id)
        assert retained[0] == 6
        assert len(retained) == 3
        with pytest.raises(RepositoryError):
            repository.version(doc_id, 1)

    def test_current_version_is_a_copy(self, repository):
        repository.store_xml("http://x/a.xml", "<r><a>1</a></r>")
        doc_id = repository.meta_for_url("http://x/a.xml").doc_id
        doc = repository.document(doc_id)
        doc.root.children[0].detach()
        assert serialize(repository.document(doc_id)) == "<r><a>1</a></r>"


class TestLookupsAndRemoval:
    def test_lookup_by_url_and_id(self, repository):
        outcome = repository.store_xml("http://x/a.xml", "<r/>")
        assert repository.meta(outcome.meta.doc_id).url == "http://x/a.xml"
        assert repository.has_url("http://x/a.xml")

    def test_missing_lookups_raise(self, repository):
        with pytest.raises(DocumentNotFound):
            repository.meta_for_url("http://missing/")
        with pytest.raises(DocumentNotFound):
            repository.document(123)

    def test_remove(self, repository):
        repository.store_xml("http://x/a.xml", "<r>word</r>")
        doc_id = repository.meta_for_url("http://x/a.xml").doc_id
        repository.remove("http://x/a.xml")
        assert not repository.has_url("http://x/a.xml")
        assert repository.indexes.documents_with_word("word") == set()
        with pytest.raises(DocumentNotFound):
            repository.document(doc_id)

    def test_len_and_xml_ids(self, repository):
        repository.store_xml("http://x/a.xml", "<r/>")
        repository.store_html("http://x/p.html", "<html/>")
        assert len(repository) == 2
        assert len(repository.xml_doc_ids()) == 1

    def test_add_importance(self, repository):
        repository.store_xml("http://x/a.xml", "<r/>")
        repository.add_importance("http://x/a.xml", 2.5)
        assert repository.meta_for_url("http://x/a.xml").importance == 3.5


URL = "http://x/a.xml"
TEXT = "<r><a>x</a><b k='1'>y</b></r>"
SPACED = "<r>\n  <a>x</a>\n  <b k='1'>y</b>\n</r>"
EDITED = "<r><a>x</a><b k='2'>y</b><c/></r>"

#: Refetches after a first store of TEXT: identical, whitespace-only,
#: identical to that, changed, identical to that, root changed.
REFETCHES = [TEXT, SPACED, SPACED, EDITED, EDITED, "<s/>", "<s/>", TEXT]


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def transcript(outcome):
    return (
        outcome.status,
        outcome.meta.version,
        serialize(outcome.document),
        [node.xid for node in outcome.document.preorder()],
        None if outcome.delta is None else len(outcome.delta),
    )


class TestOnePassLoad:
    def test_byte_identical_refetch_is_not_parsed(
        self, repository, clock, monkeypatch
    ):
        first = repository.store_xml(URL, TEXT)
        parses = count_calls(monkeypatch, store, "parse")
        clock.advance(10)
        outcome = repository.store_xml(URL, TEXT)
        assert parses == []
        assert outcome.status == DOC_UNCHANGED
        assert outcome.document is first.document
        assert outcome.meta.last_accessed == clock.now()

    def test_whitespace_variant_is_unchanged_and_refreshes_digest(
        self, repository, monkeypatch
    ):
        repository.store_xml(URL, TEXT)
        parses = count_calls(monkeypatch, store, "parse")
        assert repository.store_xml(URL, SPACED).status == DOC_UNCHANGED
        assert len(parses) == 1
        assert repository.store_xml(URL, SPACED).status == DOC_UNCHANGED
        assert len(parses) == 1  # the digest now names the spaced text
        assert repository.store_xml(URL, TEXT).status == DOC_UNCHANGED
        assert len(parses) == 2

    def test_one_signature_pass_per_update(self, repository, monkeypatch):
        repository.store_xml(URL, TEXT)
        passes = count_calls(monkeypatch, store, "subtree_signatures")
        passes += count_calls(monkeypatch, matching, "subtree_signatures")
        outcome = repository.store_xml(URL, EDITED)
        assert outcome.status == DOC_UPDATED
        assert len(passes) == 1

    def test_pre_parsed_identical_refetch_skips_signatures(
        self, repository, monkeypatch
    ):
        repository.store_xml(URL, TEXT, parse(TEXT))
        passes = count_calls(monkeypatch, store, "subtree_signatures")
        outcome = repository.store_xml(URL, TEXT, parse(TEXT))
        assert outcome.status == DOC_UNCHANGED
        assert passes == []

    def test_edited_document_is_diffed_afresh(self, repository):
        # A stored Document stays the caller's object; editing it and
        # storing it again resynchronises the signature (nothing changed
        # element-level), and the old text is then an update.
        document = parse(TEXT)
        repository.store_xml(URL, document)
        document.root.first("a").children[0].data = "edited"
        assert repository.store_xml(URL, document).status == DOC_UNCHANGED
        outcome = repository.store_xml(URL, TEXT)
        assert outcome.status == DOC_UPDATED
        assert [op.new_text for op in outcome.delta.text_updates] == ["x"]


class TestRestoredRefetches:
    """A restored repository starts without digests or cached signatures
    and must still give an unrestored repository's outcomes."""

    def test_after_load_repository(self, classifier, clock, tmp_path):
        original = Repository(classifier=classifier, clock=clock)
        original.store_xml(URL, TEXT)
        save_repository(original, str(tmp_path))
        restored = Repository(classifier=classifier, clock=clock)
        load_repository(restored, str(tmp_path))
        for text in REFETCHES:
            expected = transcript(original.store_xml(URL, text))
            assert transcript(restored.store_xml(URL, text)) == expected

    def test_after_restore_runtime(self):
        original = SubscriptionSystem(clock=SimulatedClock(1_000_000.0))
        original.feed_xml(URL, TEXT)
        state = capture_runtime(original)
        restored = SubscriptionSystem(clock=SimulatedClock(1_000_000.0))
        restore_runtime(restored, state)
        for text in REFETCHES:
            expected = transcript(original.feed_xml(URL, text).outcome)
            assert transcript(restored.feed_xml(URL, text).outcome) == expected


@pytest.mark.parametrize("executor", ["threaded", "process:workers=2"])
def test_executor_statuses_match_serial(executor):
    fetches = [Fetch(URL, TEXT)] + [Fetch(URL, text) for text in REFETCHES]

    def statuses(spec):
        system = SubscriptionSystem(
            clock=SimulatedClock(1_000_000.0), executor=spec
        )
        try:
            results = system.feed_batch(fetches)
        finally:
            system.executor.close()
        return [transcript(result.outcome) for result in results]

    assert statuses(executor) == statuses("serial")

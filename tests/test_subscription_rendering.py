import pytest

from repro.clock import SimulatedClock
from repro.core.processor import Notification
from repro.errors import SubscriptionError
from repro.language.ast import SelectSpec
from repro.language.parser import parse_subscription
from repro.pipeline import SubscriptionSystem
from repro.subscription import rendering
from repro.subscription.rendering import (
    NotificationBinding,
    item_event_codes,
)
from repro.xmlstore import serialize


def binding(select, item_codes=None):
    return NotificationBinding(
        subscription_id=1,
        subscription_name="S",
        query_name="Q",
        select=select,
        item_codes=item_codes or {},
    )


def notification(data=None):
    return Notification(
        complex_code=7,
        document_url="http://inria.fr/Xy/index.html",
        timestamp=990_000_000.0,
        data=data or {},
    )


class TestTemplateRendering:
    def test_url_pseudo_variable_substituted(self):
        spec = SelectSpec(template="<UpdatedPage url=URL/>")
        (element,) = binding(spec).render(notification())
        assert element.tag == "UpdatedPage"
        assert element.attributes["url"] == "http://inria.fr/Xy/index.html"

    def test_date_pseudo_variable(self):
        spec = SelectSpec(template="<Seen at=DATE/>")
        (element,) = binding(spec).render(notification())
        assert element.attributes["at"] == "990000000"

    def test_quoted_attributes_left_alone(self):
        spec = SelectSpec(template='<Tag fixed="constant" url=URL/>')
        (element,) = binding(spec).render(notification())
        assert element.attributes["fixed"] == "constant"

    def test_unknown_variable_becomes_literal(self):
        spec = SelectSpec(template="<Tag x=NOPE/>")
        (element,) = binding(spec).render(notification())
        assert element.attributes["x"] == "NOPE"

    def test_nested_template(self):
        spec = SelectSpec(template="<Outer><Inner url=URL/></Outer>")
        (element,) = binding(spec).render(notification())
        assert element.first("Inner").attributes["url"].startswith("http://")

    def test_fresh_elements_per_render(self):
        spec = SelectSpec(template="<UpdatedPage url=URL/>")
        b = binding(spec)
        first = b.render(notification())[0]
        second = b.render(notification())[0]
        assert first is not second


@pytest.fixture
def parse_calls(monkeypatch):
    calls = []
    real_parse = rendering.parse

    def counting_parse(text):
        calls.append(text)
        return real_parse(text)

    monkeypatch.setattr(rendering, "parse", counting_parse)
    return calls


class TestTemplateParsedOncePerDocument:
    def test_shared_cache_parses_each_text_once(self, parse_calls):
        b = binding(SelectSpec(template="<Outer><Inner url=URL/></Outer>"))
        parsed = {}
        first = b.render(notification(), parsed)[0]
        second = b.render(notification(), parsed)[0]
        assert len(parse_calls) == 1
        assert first is not second
        assert first.first("Inner") is not second.first("Inner")
        assert serialize(first) == serialize(second)
        first.attributes["changed"] = "yes"
        first.first("Inner").detach()
        third = b.render(notification(), parsed)[0]
        assert serialize(third) == serialize(second)

    def test_distinct_texts_parsed_separately(self, parse_calls):
        b = binding(SelectSpec(template="<UpdatedPage url=URL/>"))
        parsed = {}
        b.render(notification(), parsed)
        other = Notification(
            complex_code=7,
            document_url="http://other.example/",
            timestamp=990_000_000.0,
            data={},
        )
        (element,) = b.render(other, parsed)
        assert element.attributes["url"] == "http://other.example/"
        assert len(parse_calls) == 2

    def test_bad_template_raises_every_render(self):
        b = binding(SelectSpec(template="<Tag url=URL>"))
        parsed = {}
        for _ in range(2):
            with pytest.raises(SubscriptionError):
                b.render(notification(), parsed)
        assert parsed == {}

    def test_one_parse_for_many_subscribers_of_a_document(self, parse_calls):
        system = SubscriptionSystem(clock=SimulatedClock(990_000_000.0))
        for index in range(5):
            system.subscribe(
                f"subscription S{index}\nmonitoring M\n"
                "select <Hit url=URL/>\n"
                'where URL extends "http://w.example/"\n'
                "  and modified self\n"
                "report when immediate",
                owner_email=f"u{index}@example.org",
            )
        system.feed_xml("http://w.example/a.xml", "<r>one</r>")
        system.clock.advance(60)
        parse_calls.clear()
        result = system.feed_xml("http://w.example/a.xml", "<r>two</r>")
        assert len(result.notifications) == 5
        assert parse_calls == ['<Hit url="http://w.example/a.xml"/>']
        bodies = [mail.body for mail in system.email_sink.sent]
        assert len(bodies) == 5
        assert all('<Hit url="http://w.example/a.xml"/>' in b for b in bodies)


class TestItemRendering:
    def test_payload_elements_parsed_back(self):
        spec = SelectSpec(items=("X",))
        data = {42: ["<Member><name>preda</name></Member>"]}
        elements = binding(spec, {"X": 42}).render(notification(data))
        assert len(elements) == 1
        assert elements[0].first("name").text_content() == "preda"

    def test_multiple_payload_elements(self):
        spec = SelectSpec(items=("X",))
        data = {42: ["<m>1</m>", "<m>2</m>"]}
        elements = binding(spec, {"X": 42}).render(notification(data))
        assert [e.text_content() for e in elements] == ["1", "2"]

    def test_missing_payload_falls_back_to_default(self):
        spec = SelectSpec(items=("X",))
        elements = binding(spec, {"X": 42}).render(notification({}))
        assert elements[0].tag == "Notification"
        assert elements[0].attributes["query"] == "Q"

    def test_unparsable_payload_wrapped(self):
        spec = SelectSpec(items=("X",))
        data = {42: ["not xml at all"]}
        (element,) = binding(spec, {"X": 42}).render(notification(data))
        assert element.tag == "value"
        assert element.text_content() == "not xml at all"


class TestDefaultRendering:
    def test_default_notification_shape(self):
        (element,) = binding(SelectSpec()).render(notification())
        assert element.tag == "Notification"
        assert element.attributes["url"] == "http://inria.fr/Xy/index.html"
        assert element.attributes["query"] == "Q"
        assert "date" in element.attributes
        assert serialize(element).startswith("<Notification")


class TestItemEventCodes:
    def parse_query(self, text):
        return parse_subscription(text).monitoring[0]

    def test_direct_variable_target(self):
        query = self.parse_query(
            "subscription S\nmonitoring\nselect X\nfrom self//Member X\n"
            'where URL = "http://u/" and new X\nreport when immediate'
        )
        mapping = item_event_codes(query, [100, 200])
        assert mapping == {"X": 200}

    def test_tag_target_resolved_through_binding(self):
        query = self.parse_query(
            "subscription S\nmonitoring\nselect X\nfrom self//Product X\n"
            'where URL = "http://u/" and new Product contains "camera"\n'
            "report when immediate"
        )
        mapping = item_event_codes(query, [100, 200])
        assert mapping == {"X": 200}

    def test_unrelated_item_unmapped(self):
        query = self.parse_query(
            "subscription S\nmonitoring\nselect X\nfrom self//Member X\n"
            'where URL = "http://u/"\nreport when immediate'
        )
        assert item_event_codes(query, [100]) == {}

"""Notification rendering: MQP notifications -> XML elements.

A monitoring query's ``select`` clause decides what a notification carries
(Section 5.1).  Three cases:

* **template** — ``select <UpdatedPage url=URL/>``: the XML template is
  instantiated per notification; unquoted attribute values naming a pseudo
  variable are substituted (``URL`` — the document URL, ``DATE`` — the
  detection timestamp, ``DOCID`` where known).  Each distinct instantiated
  text is parsed once per ``parsed`` cache the caller passes (one per
  document), and every render gets its own copy of the nodes.
* **items** — ``select X`` with ``from self//Member X``: the alerter put the
  matched elements for X's condition in the alert's data payload; they are
  parsed back and emitted as the notification content.
* **default** — the paper's implemented behaviour ("notifications simply
  return the URL of the document that triggered the monitoring query and
  basic informations"): ``<Notification query=... url=... date=.../>``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.processor import Notification
from ..errors import SubscriptionError, XMLSyntaxError
from ..language.ast import MonitoringQuery, SelectSpec
from ..xmlstore.nodes import ElementNode, copy_subtree
from ..xmlstore.parser import parse

#: Unquoted attribute value referencing a variable: ``url=URL``.
_UNQUOTED_ATTR_RE = re.compile(r"=\s*([A-Za-z_][A-Za-z0-9_]*)")


@dataclass
class NotificationBinding:
    """Everything needed to render notifications of one complex event."""

    subscription_id: int
    subscription_name: str
    query_name: str
    select: SelectSpec
    #: select item -> atomic event code whose payload carries its matches.
    item_codes: Dict[str, int]

    def render(
        self,
        notification: Notification,
        parsed: Optional[Dict[str, ElementNode]] = None,
    ) -> List[ElementNode]:
        """Fresh notification elements for ``notification``.

        ``parsed`` maps instantiated template text to its parsed element;
        renders that share one dict parse each distinct text once.
        """
        if self.select.template is not None:
            return [
                _instantiate_template(
                    self.select.template,
                    notification,
                    {} if parsed is None else parsed,
                )
            ]
        if self.select.items:
            elements: List[ElementNode] = []
            for item in self.select.items:
                code = self.item_codes.get(item)
                payloads = (
                    notification.data.get(code, []) if code is not None else []
                )
                for payload in payloads:
                    try:
                        elements.append(parse(payload).root)
                    except XMLSyntaxError:
                        wrapper = ElementNode("value")
                        wrapper.append_text(str(payload))
                        elements.append(wrapper)
            if elements:
                return elements
        return [_default_notification(self.query_name, notification)]


def _default_notification(
    query_name: str, notification: Notification
) -> ElementNode:
    return ElementNode(
        "Notification",
        {
            "query": query_name,
            "url": notification.document_url,
            "date": f"{notification.timestamp:.0f}",
        },
    )


def _instantiate_template(
    template: str,
    notification: Notification,
    parsed: Dict[str, ElementNode],
) -> ElementNode:
    values = {
        "URL": notification.document_url,
        "DATE": f"{notification.timestamp:.0f}",
    }

    def substitute(match: "re.Match[str]") -> str:
        name = match.group(1)
        value = values.get(name)
        if value is None:
            # Not a pseudo variable: keep it as a literal (quoted) token so
            # the XML parser accepts the template.
            value = name
        return f'="{value}"'

    quoted = _UNQUOTED_ATTR_RE.sub(substitute, template)
    element = parsed.get(quoted)
    if element is None:
        try:
            element = parsed[quoted] = parse(quoted).root
        except XMLSyntaxError as exc:
            raise SubscriptionError(
                f"cannot instantiate select template {template!r}: {exc}"
            ) from exc
    # Report assembly reparents the nodes it is given: hand out a copy.
    copy = copy_subtree(element)
    assert isinstance(copy, ElementNode)
    return copy


def item_event_codes(
    query: MonitoringQuery,
    condition_codes: List[int],
) -> Dict[str, int]:
    """Map each select item to the atomic-event code of its condition.

    ``condition_codes`` holds the interned code of each condition, aligned
    with ``query.conditions``.  An item maps to the first element condition
    targeting the same variable — directly (``new X``) or through the tag
    the variable's binding path resolves to (``from self//Product X`` +
    ``new Product``).
    """
    from ..language.conditions import resolve_target_tag

    mapping: Dict[str, int] = {}
    for item in query.select.items:
        variable = item.split("/", 1)[0].split("@", 1)[0]
        try:
            variable_tag: Optional[str] = resolve_target_tag(
                variable, query.from_bindings
            )
        except SubscriptionError:
            variable_tag = None
        for condition, code in zip(query.conditions, condition_codes):
            if condition.kind != "element":
                continue
            target_tag = resolve_target_tag(
                condition.target or "", query.from_bindings
            )
            if condition.target == variable or (
                variable_tag is not None and target_tag == variable_tag
            ):
                mapping[item] = code
                break
    return mapping

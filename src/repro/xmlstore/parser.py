"""XML parser: source text -> :class:`~repro.xmlstore.nodes.Document`.

Builds element and text nodes straight from the scanner's tokens
(``repro.xmlstore.tokenizer.scan``), checks well-formedness (single root,
balanced tags) and folds adjacent text (entity-decoded runs, CDATA, text on
either side of a comment or processing instruction).  Whitespace-only text
between elements is dropped by default because the alerter word tables and
the diff matcher operate on meaningful data nodes; pass
``keep_whitespace=True`` to preserve it.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import XMLSyntaxError
from .nodes import Document, ElementNode, TextNode
from .tokenizer import DOCTYPE, START_TAG, TEXT, line_column, scan


def parse(source: str, keep_whitespace: bool = False) -> Document:
    """Parse an XML string into a :class:`Document`.

    >>> doc = parse('<catalog><product>camera</product></catalog>')
    >>> doc.root.tag
    'catalog'
    >>> doc.root.children[0].text_content()
    'camera'
    """
    root: Optional[ElementNode] = None
    doctype_name: Optional[str] = None
    dtd_url: Optional[str] = None
    stack: List[ElementNode] = []
    pending_text: List[str] = []
    pending_offset = 0

    def flush_text() -> None:
        data = "".join(pending_text)
        pending_text.clear()
        if not keep_whitespace and not data.strip():
            return
        if not stack:
            if data.strip():
                raise XMLSyntaxError(
                    "character data outside the root element",
                    *line_column(source, pending_offset),
                )
            return
        parent = stack[-1]
        node = TextNode(data)
        node.parent = parent
        parent.children.append(node)

    for kind, value, offset in scan(source):
        if kind == TEXT:
            if not pending_text:
                pending_offset = offset
            pending_text.append(value)  # type: ignore[arg-type]
            continue
        if pending_text:
            flush_text()
        if kind == START_TAG:
            tag, attrs, self_closing = value  # type: ignore[misc]
            element = ElementNode(tag, attrs)
            if stack:
                parent = stack[-1]
                element.parent = parent
                parent.children.append(element)
            elif root is None:
                root = element
            else:
                raise XMLSyntaxError(
                    f"second root element <{tag}>",
                    *line_column(source, offset),
                )
            if not self_closing:
                stack.append(element)
        elif kind == DOCTYPE:
            if root is not None or stack:
                raise XMLSyntaxError(
                    "DOCTYPE after the root element",
                    *line_column(source, offset),
                )
            doctype_name, dtd_url = value  # type: ignore[misc]
        else:  # END_TAG
            if not stack:
                raise XMLSyntaxError(
                    f"unexpected end tag </{value}>",
                    *line_column(source, offset),
                )
            open_element = stack.pop()
            if open_element.tag != value:
                raise XMLSyntaxError(
                    f"end tag </{value}> does not match <{open_element.tag}>",
                    *line_column(source, offset),
                )

    if pending_text:
        flush_text()
    if stack:
        raise XMLSyntaxError(f"unclosed element <{stack[-1].tag}>")
    if root is None:
        raise XMLSyntaxError("document has no root element")
    return Document(root, doctype_name=doctype_name, dtd_url=dtd_url)

"""Change visualization — the paper's "change editor" (Section 5.2).

"We also provide a practical change editor for the visualization of
changes in XML documents or query results in the spirit of change editors
as found, for instance, in MS-Word."

:func:`annotate_changes` merges two versions into one tree where every
edit is marked with ``diff:`` attributes / wrapper elements:

* inserted subtrees get ``diff:status="inserted"`` on their root;
* deleted subtrees are re-inserted at their old position with
  ``diff:status="deleted"``;
* updated text becomes ``<diff:update><diff:old>…</diff:old>
  <diff:new>…</diff:new></diff:update>``;
* attribute changes are recorded as ``diff:attr-<name>="old->new"``.

:func:`render_text_diff` flattens the annotation into a +/- line view for
terminals.
"""

from __future__ import annotations

from typing import List

from ..errors import DiffError
from ..xmlstore.nodes import (
    Document,
    ElementNode,
    Node,
    TextNode,
    copy_subtree,
)
from .delta import Delta
from .xids import index_by_xid

STATUS_ATTR = "diff:status"
INSERTED = "inserted"
DELETED = "deleted"


def annotate_changes(
    old_document: Document, new_document: Document, delta: Delta
) -> Document:
    """Build the annotated merge of two versions.

    ``new_document`` must be the version the diff produced (its nodes carry
    XIDs); neither input is modified.
    """
    merged = Document(
        _copy_annotated(new_document.root),
        doctype_name=new_document.doctype_name,
        dtd_url=new_document.dtd_url,
    )
    index = index_by_xid(merged)

    inserted_roots = {insert.subtree.xid for insert in delta.inserts}
    for xid in inserted_roots:
        node = index.get(xid)
        if isinstance(node, ElementNode):
            node.attributes[STATUS_ATTR] = INSERTED
        elif isinstance(node, TextNode) and node.parent is not None:
            wrapper = ElementNode("diff:inserted-text")
            parent = node.parent
            position = node.sibling_index()
            node.detach()
            wrapper.append(node)
            parent.insert(position, wrapper)

    for update in delta.text_updates:
        node = index.get(update.xid)
        if not isinstance(node, TextNode) or node.parent is None:
            continue
        parent = node.parent
        position = node.sibling_index()
        node.detach()
        marker = ElementNode("diff:update")
        marker.make_child("diff:old", text=update.old_text)
        marker.make_child("diff:new", text=update.new_text)
        parent.insert(position, marker)

    for attr_update in delta.attribute_updates:
        node = index.get(attr_update.xid)
        if not isinstance(node, ElementNode):
            continue
        for name, (old, new) in sorted(attr_update.changes.items()):
            node.attributes[f"diff:attr-{name}"] = (
                f"{old if old is not None else ''}"
                f"->{new if new is not None else ''}"
            )

    # Deletions: re-insert the removed subtree at its old position under
    # its (merged) parent, marked deleted.  Deletes were recorded
    # right-to-left per parent against old positions; replaying them
    # left-to-right keeps positions meaningful within the merged child
    # list, clamped to the current length.
    for delete in reversed(delta.deletes):
        parent = index.get(delete.parent_xid)
        if not isinstance(parent, ElementNode):
            raise DiffError(
                f"annotation: delete parent XID {delete.parent_xid} is not"
                " in the merged document"
            )
        ghost = copy_subtree(delete.subtree)
        if isinstance(ghost, ElementNode):
            ghost.attributes[STATUS_ATTR] = DELETED
        else:
            wrapper = ElementNode("diff:deleted-text")
            wrapper.append(ghost)
            ghost = wrapper
        position = min(delete.position, len(parent.children))
        parent.insert(position, ghost)
    return merged


def _copy_annotated(node: Node) -> Node:
    copy = copy_subtree(node)
    return copy


def render_text_diff(annotated: Document, indent: str = "  ") -> str:
    """Flatten an annotated merge into a +/- terminal view."""
    lines: List[str] = []
    _render_node(annotated.root, lines, 0, " ", indent)
    return "\n".join(lines)


def _render_node(
    node: Node, lines: List[str], depth: int, mark: str, indent: str
) -> None:
    pad = indent * depth
    if isinstance(node, TextNode):
        lines.append(f"{mark} {pad}{node.data}")
        return
    assert isinstance(node, ElementNode)
    if node.tag == "diff:update":
        old = node.first("diff:old")
        new = node.first("diff:new")
        lines.append(f"- {pad}{old.text_content() if old else ''}")
        lines.append(f"+ {pad}{new.text_content() if new else ''}")
        return
    if node.tag == "diff:inserted-text":
        lines.append(f"+ {pad}{node.text_content()}")
        return
    if node.tag == "diff:deleted-text":
        lines.append(f"- {pad}{node.text_content()}")
        return
    status = node.attributes.get(STATUS_ATTR)
    node_mark = mark
    if status == INSERTED:
        node_mark = "+"
    elif status == DELETED:
        node_mark = "-"
    attrs = "".join(
        f' {name}="{value}"'
        for name, value in node.attributes.items()
        if name != STATUS_ATTR
    )
    lines.append(f"{node_mark} {pad}<{node.tag}{attrs}>")
    for child in node.children:
        _render_node(child, lines, depth + 1, node_mark, indent)
    lines.append(f"{node_mark} {pad}</{node.tag}>")

"""Delta application: reconstruct a version from another version + delta.

"The new version of a document can be constructed based on an old version
and the delta" (Section 5.2).  Combined with :meth:`Delta.inverted`, the
repository can navigate a version chain in both directions while storing
only one full version per document.
"""

from __future__ import annotations

from typing import Dict

from ..errors import DeltaApplyError
from ..xmlstore.nodes import Document, ElementNode, Node, copy_subtree
from .delta import Delta, copy_document
from .xids import index_by_xid


def apply_delta(document: Document, delta: Delta) -> Document:
    """Return a new :class:`Document` = ``document`` with ``delta`` applied.

    ``document`` is left untouched.  Raises :class:`DeltaApplyError` when the
    delta references XIDs absent from the document or positions that do not
    fit — the signs of applying a delta to the wrong version.
    """
    result = copy_document(document)
    index: Dict[int, Node] = index_by_xid(result)

    for delete in delta.deletes:
        node = index.get(delete.xid)
        if node is None:
            raise DeltaApplyError(f"delete references unknown XID {delete.xid}")
        parent = node.parent
        if parent is None:
            raise DeltaApplyError("cannot delete the document root")
        if parent.xid != delete.parent_xid:
            raise DeltaApplyError(
                f"delete of XID {delete.xid}: parent is {parent.xid},"
                f" delta expected {delete.parent_xid}"
            )
        node.detach()
        for removed in node.preorder():
            if removed.xid is not None:
                index.pop(removed.xid, None)

    for insert in delta.inserts:
        parent = index.get(insert.parent_xid)
        if parent is None or not isinstance(parent, ElementNode):
            raise DeltaApplyError(
                f"insert references unknown parent XID {insert.parent_xid}"
            )
        if insert.position > len(parent.children):
            raise DeltaApplyError(
                f"insert position {insert.position} beyond the"
                f" {len(parent.children)} children of XID {insert.parent_xid}"
            )
        subtree = copy_subtree(insert.subtree)
        parent.insert(insert.position, subtree)
        for added in subtree.preorder():
            if added.xid is not None:
                if added.xid in index:
                    raise DeltaApplyError(
                        f"insert would duplicate XID {added.xid}"
                    )
                index[added.xid] = added

    for update in delta.text_updates:
        node = index.get(update.xid)
        if node is None:
            raise DeltaApplyError(
                f"text update references unknown XID {update.xid}"
            )
        if not hasattr(node, "data"):
            raise DeltaApplyError(
                f"text update targets non-text node XID {update.xid}"
            )
        if node.data != update.old_text:  # type: ignore[attr-defined]
            raise DeltaApplyError(
                f"text update on XID {update.xid}: current text does not"
                " match the delta's old text (wrong base version?)"
            )
        node.data = update.new_text  # type: ignore[attr-defined]

    for attr_update in delta.attribute_updates:
        node = index.get(attr_update.xid)
        if node is None or not isinstance(node, ElementNode):
            raise DeltaApplyError(
                f"attribute update references unknown element XID"
                f" {attr_update.xid}"
            )
        for name, (old, new) in attr_update.changes.items():
            current = node.attributes.get(name)
            if current != old:
                raise DeltaApplyError(
                    f"attribute {name!r} on XID {attr_update.xid} is"
                    f" {current!r}, delta expected {old!r}"
                )
            if new is None:
                node.attributes.pop(name, None)
            else:
                node.attributes[name] = new

    return result

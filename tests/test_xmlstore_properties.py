"""Property-based tests for the XML substrate (hypothesis)."""

import string

from hypothesis import given, settings, strategies as st

from repro.xmlstore import parse, serialize
from repro.xmlstore.serializer import escape_attribute
from repro.xmlstore.nodes import Document, ElementNode, TextNode

tag_names = st.text(
    alphabet=string.ascii_lowercase, min_size=1, max_size=8
)
text_data = st.text(
    alphabet=string.printable.replace("\x0b", "").replace("\x0c", ""),
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip())
attr_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'",
    max_size=20,
)


@st.composite
def element_trees(draw, depth=3):
    tag = draw(tag_names)
    attributes = draw(
        st.dictionaries(tag_names, attr_values, max_size=3)
    )
    element = ElementNode(tag, attributes)
    if depth > 0:
        children = draw(
            st.lists(
                st.one_of(
                    text_data.map(TextNode),
                    element_trees(depth=depth - 1),
                ),
                max_size=4,
            )
        )
        for child in children:
            element.append(child)
    return element


@settings(max_examples=80, deadline=None)
@given(element_trees())
def test_serialize_parse_roundtrip(root):
    """parse(serialize(tree)) reproduces the tree, modulo whitespace-only
    text nodes (which the parser drops by default)."""
    source = serialize(Document(root))
    reparsed = parse(source)
    assert serialize(reparsed) == source


@settings(max_examples=80, deadline=None)
@given(element_trees())
def test_postorder_parent_after_children(root):
    seen = set()
    for node in root.postorder():
        if isinstance(node, ElementNode):
            for child in node.children:
                assert id(child) in seen
        seen.add(id(node))


@settings(max_examples=80, deadline=None)
@given(element_trees())
def test_preorder_and_postorder_visit_same_nodes(root):
    assert {id(n) for n in root.preorder()} == {
        id(n) for n in root.postorder()
    }


@settings(max_examples=50, deadline=None)
@given(element_trees())
def test_levels_consistent_with_parent(root):
    for node in root.preorder():
        if node.parent is not None:
            assert node.level == node.parent.level + 1


# -- entity references and text split by markup --------------------------------

_NAMED_REFERENCES = {
    "<": "&lt;", ">": "&gt;", "&": "&amp;", "'": "&apos;", '"': "&quot;"
}


@st.composite
def encoded_strings(draw, alphabet):
    """(value, source spelling) with each character written raw (escaped
    where it must be), as a named, decimal or hexadecimal reference."""
    chars = draw(st.lists(st.sampled_from(alphabet), max_size=12))
    spelled = []
    for ch in chars:
        style = draw(st.integers(0, 3))
        if style == 1:
            spelled.append(f"&#{ord(ch)};")
        elif style == 2:
            spelled.append(f"&#x{ord(ch):X};")
        elif style == 3 and ch in _NAMED_REFERENCES:
            spelled.append(_NAMED_REFERENCES[ch])
        else:
            spelled.append(escape_attribute(ch))
    return "".join(chars), "".join(spelled)


_VALUE_ALPHABET = string.ascii_letters + string.digits + " <>&\"'é中\U0001f600"


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(tag_names, encoded_strings(_VALUE_ALPHABET)),
        max_size=4,
        unique_by=lambda pair: pair[0],
    )
)
def test_attribute_references_decoded(attributes):
    source = "<r" + "".join(
        f' {name}="{spelled}"' for name, (_, spelled) in attributes
    ) + "/>"
    root = parse(source).root
    assert root.attributes == {
        name: value for name, (value, _) in attributes
    }
    assert parse(serialize(root)).root.attributes == root.attributes


_CDATA_TEXT = st.text(
    alphabet=string.ascii_letters + " <>&\n", max_size=10
).filter(lambda s: "]]>" not in s)
# No ">": the scanner looks for "-->" from the "<" of "<!--", so "<!-->"
# is already a whole comment.
_COMMENT_TEXT = st.text(alphabet=string.ascii_letters + " <&", max_size=10)

text_segments = st.lists(
    st.one_of(
        encoded_strings(_VALUE_ALPHABET + "\n\t").map(
            lambda pair: ("text",) + pair
        ),
        _CDATA_TEXT.map(lambda s: ("cdata", s, f"<![CDATA[{s}]]>")),
        _COMMENT_TEXT.map(lambda s: ("comment", "", f"<!--{s}-->")),
        _COMMENT_TEXT.map(lambda s: ("pi", "", f"<?pi {s}?>")),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(text_segments)
def test_text_split_by_comments_and_cdata_is_folded(segments):
    source = "<r>" + "".join(spelled for _, _, spelled in segments) + "</r>"
    expected = "".join(value for _, value, _ in segments)
    children = parse(source).root.children
    if expected.strip():
        assert len(children) == 1
        assert isinstance(children[0], TextNode)
        assert children[0].data == expected
    else:
        assert children == []
    kept = parse(source, keep_whitespace=True).root.children
    assert len(kept) <= 1
    assert "".join(node.data for node in kept) == expected

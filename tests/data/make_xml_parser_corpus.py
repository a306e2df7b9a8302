"""Regenerate ``xml_parser_corpus.json``, the pinned parser-equivalence corpus.

The corpus records what :func:`repro.xmlstore.parser.parse` and
:func:`repro.xmlstore.tokenizer.tokenize` return for a fixed, seeded set of
inputs: generated catalog, museum and member pages, payload-sized
``<Product>`` elements, hand-written edge cases (every malformed input of
``test_xmlstore_tokenizer.py`` / ``test_xmlstore_parser.py`` among them) and
~2,000 seeded 1-3 character mutations of those.  For each input it stores
either a structural dump of the tree (tag, attributes, text, doctype) or the
exact ``XMLSyntaxError`` text with its line and column.
``tests/test_xmlstore_corpus.py`` asserts the current parser reproduces
every entry.

The file pins behaviour: regenerate it only for an intended change of what
the parser accepts or builds, and review the diff.

    PYTHONPATH=src python tests/data/make_xml_parser_corpus.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Dict, List

from repro.errors import XMLSyntaxError
from repro.webworld import SiteGenerator
from repro.xmlstore.nodes import Document, ElementNode, TextNode
from repro.xmlstore.parser import parse
from repro.xmlstore.serializer import serialize
from repro.xmlstore.tokenizer import tokenize

OUTPUT = Path(__file__).with_name("xml_parser_corpus.json")
SEED = 20010521
MUTATIONS = 2000

#: Malformed inputs of the tokenizer and parser unit tests.
TEST_MALFORMED = [
    '<a x="1" x="2"/>',
    '<a x "1"/>',
    "<a>&nope;</a>",
    "<a>&amp</a>",
    "<a><!-- oops",
    "<a>\n  <b x=></b></a>",
    "<a><b></a></b>",
    "<a><b>",
    "<a/></b>",
    "<a/><b/>",
    "   ",
    "<a/>stray",
    "<a/><!DOCTYPE a>",
]

#: Hand-written edge cases, accepted and rejected.
EDGE_CASES = [
    "<a></a>",
    "<a/>",
    "<a x=\"1\" y='two'/>",
    '<a x="a&amp;b"/>',
    "<ns:item/>",
    "<a></a >",
    "<a>hello</a>",
    "<a>&lt;&gt;&amp;&apos;&quot;</a>",
    "<a>&#65;&#x42;&#X43;</a>",
    "<a><!-- note --></a>",
    '<?xml version="1.0"?><a/>',
    "<a><![CDATA[<raw>&]]></a>",
    '<!DOCTYPE cat SYSTEM "http://d/x.dtd"><cat/>',
    "<!DOCTYPE cat><cat/>",
    '<!DOCTYPE c PUBLIC "pub-id" "http://d/c.dtd"><c/>',
    "<!DOCTYPE c [ <!ELEMENT c EMPTY> ]><c/>",
    "<a>\n<b/></a>",
    "<catalog><product>camera</product></catalog>",
    "<a><b><c/></b></a>",
    '<a href="http://x/">link</a>',
    "<a>one<b/>two</a>",
    "<a>x&amp;y</a>",
    '<!DOCTYPE m SYSTEM "http://d/m.dtd"><m/>',
    "<a>\n  <b/>\n</a>",
    "<a>  padded  </a>",
    '<Report><UpdatedPage url="http://inria.fr/Xy/index.html"/>'
    "<Member><name>nguyen</name><fn>benjamin</fn></Member></Report>",
    # Text folded across comments, processing instructions and CDATA.
    "<a>one<!-- c -->two<?pi x?>three<![CDATA[ & four]]>five</a>",
    "<a> <!-- c --> </a>",
    "<a>x<!---->y</a>",
    "<a>x<!-->y</a>",
    "<a>x<?>y</a>",
    "<a><![CDATA[]]></a>",
    "<a><![CDATA[  ]]></a>",
    "<!-- lead --><a/><!-- trail -->",
    "<?pi?>\n<a/>\n<?pi?>",
    "<a/>  \n\t",
    "<a/>\x0b",
    "\xa0<a/>",
    # Attribute spelling.
    '<a x="1"y="2"/>',
    '<ax="1"/>',
    '<a x = "1" />',
    "<a\tx\n=\r'1'\n/>",
    '<a x="<>"/>',
    "<a x='\"'/>",
    '<a x="&#60;&#x3e;"/>',
    '<a x="&bad;"/>',
    '<a x="&amp"/>',
    '<a x="1" x="2" y="&bad;"/>',
    '<a x="&bad;" x="2"/>',
    '<a x="1" y/>',
    '<a x="1" y=2/>',
    '<a x="1/>',
    "<a x='1/>",
    '<a x="1"',
    "<a x=",
    "<a x",
    "<a ",
    "<a",
    "<",
    "</",
    "</a",
    "</a x>",
    "<a></a",
    "<a/ >",
    "<a / >",
    "<a//>",
    "<a>/</a>",
    "<1a/>",
    "<-a/>",
    "<.a/>",
    "<_a/>",
    "<:a/>",
    "<a:b.c-d_e1/>",
    "<é/>",
    "<a×=\"1\"/>",
    "<a€=\"1\"/>",
    "<×/>",
    "<aéb/>",
    "<a x×=\"1\"/>",
    "<\U00010000/>",
    "<a\U00010400/>",
    "<a>é中\U0001f600</a>",
    # Entities.
    "<a>&#;</a>",
    "<a>&#x;</a>",
    "<a>&#xZZ;</a>",
    "<a>&#99999999;</a>",
    "<a>&#-1;</a>",
    "<a>&#+65;</a>",
    "<a>&# 65;</a>",
    "<a>&#6_5;</a>",
    "<a>&#x_41;</a>",
    "<a>&#xD800;</a>",
    "<a>&#0;</a>",
    "<a>&#1114111;</a>",
    "<a>&#1114112;</a>",
    "<a>&#" + "9" * 30 + ";</a>",
    "<a>&;</a>",
    "<a>&amp;&</a>",
    "<a>& amp;</a>",
    "<a>&amp x;</a>",
    "<a>&lt</a><b>;</b>",
    "<a>\n\n  &nope;\n</a>",
    "<a>ok</a>&amp;",
    # Comments, PIs, CDATA, declarations.
    "<a><!- bad --></a>",
    "<a><!--></a>",
    "<a><?pi</a>",
    "<a><![CDATA[x</a>",
    "<a><![CDAT[x]]></a>",
    "<a><!ELEMENT a></a>",
    "<!DOCTYPE>",
    "<!DOCTYPE",
    "<!DOCTYPEcat><cat/>",
    "<!DOCTYPE cat SYSTEM><cat/>",
    "<!DOCTYPE cat SYSTEM 'u'><cat/>",
    "<!DOCTYPE cat SYSTEM \"u><cat/>",
    "<!DOCTYPE cat SYSTEM",
    "<!DOCTYPE cat PUBLIC \"p\"><cat/>",
    "<!DOCTYPE cat PUBLIC \"p\"\"u\"><cat/>",
    "<!DOCTYPE cat SYSTEM \"a&amp;b\"><cat/>",
    "<!DOCTYPE cat SYSTEM \"a&bad;\"><cat/>",
    "<!DOCTYPE cat [ <!ELEMENT cat EMPTY><cat/>",
    "<!DOCTYPE cat [ ] junk><cat/>",
    "<!DOCTYPE cat OTHER><cat/>",
    "<!DOCTYPE cat SYSTEMx \"u\"><cat/>",
    "<!DOCTYPE a><!DOCTYPE b><b/>",
    "<a><!DOCTYPE a></a>",
    "<!DOCTYPE a>x<a/>",
    "x<a/>",
    "<a/>x<b/>",
    "<a/>x<!DOCTYPE",
    "<a/>x</b>",
    "<a/>x<b",
    "<a/>x&bad;",
    "",
    "\n",
    "<!-- only -->",
]

#: Markup characters, weighted so about a third of the mutants still parse.
_MUTATION_ALPHABET = (
    "<>/=\"'&;#!?-[]  \n\t:._é×€" + "abcxyz019" * 4
)


def dump_node(node) -> object:
    if isinstance(node, TextNode):
        return node.data
    assert isinstance(node, ElementNode)
    return [
        node.tag,
        [[name, value] for name, value in node.attributes.items()],
        [dump_node(child) for child in node.children],
    ]


def dump_document(document: Document) -> Dict[str, object]:
    return {
        "doctype": document.doctype_name,
        "dtd_url": document.dtd_url,
        "root": dump_node(document.root),
    }


def error_entry(exc: XMLSyntaxError) -> List[object]:
    return [str(exc), exc.line, exc.column]


def expected_parse(source: str, keep_whitespace: bool) -> Dict[str, object]:
    try:
        return {"tree": dump_document(parse(source, keep_whitespace))}
    except XMLSyntaxError as exc:
        return {"error": error_entry(exc)}


def dump_token(token) -> List[object]:
    value = token.value
    if isinstance(value, tuple):
        value = list(value)
    return [token.kind, value, token.line, token.column]


def expected_tokens(source: str) -> Dict[str, object]:
    tokens: List[List[object]] = []
    try:
        for token in tokenize(source):
            tokens.append(dump_token(token))
    except XMLSyntaxError as exc:
        return {"tokens": tokens, "token_error": error_entry(exc)}
    return {"tokens": tokens}


def generated_pages() -> List[str]:
    pages: List[str] = []
    sites = SiteGenerator(seed=SEED)
    for products in (1, 3, 40):
        pages.append(serialize(sites.catalog(products=products)))
    for paintings in (2, 8):
        pages.append(serialize(sites.museum(paintings=paintings)))
    for count in (2, 5):
        pages.append(serialize(sites.members(count=count)))
    # Pretty-printed variants: declaration, newlines and indentation.
    pages.append(
        serialize(sites.catalog(products=2), indent=2, xml_declaration=True)
    )
    pages.append(
        serialize(sites.members(count=2), indent=1, xml_declaration=True)
    )
    return pages


def payload_elements() -> List[str]:
    sites = SiteGenerator(seed=SEED + 1)
    return [serialize(sites.product(product_id)) for product_id in range(12)]


def mutate(source: str, rng: random.Random) -> str:
    chars = list(source)
    for _ in range(rng.randint(1, 3)):
        action = rng.choice(("insert", "delete", "replace"))
        position = rng.randint(0, len(chars))
        if action == "insert" or not chars:
            chars.insert(position, rng.choice(_MUTATION_ALPHABET))
            continue
        position = min(position, len(chars) - 1)
        if action == "delete":
            del chars[position]
        else:
            chars[position] = rng.choice(_MUTATION_ALPHABET)
    return "".join(chars)


def build_corpus() -> List[Dict[str, object]]:
    pages = generated_pages()
    payloads = payload_elements()
    handwritten = TEST_MALFORMED + EDGE_CASES
    entries: List[Dict[str, object]] = []

    def add(kind: str, source: str, tokens: bool) -> None:
        entry: Dict[str, object] = {"kind": kind, "source": source}
        parsed = expected_parse(source, keep_whitespace=False)
        entry.update(parsed)
        keep = expected_parse(source, keep_whitespace=True)
        if keep != parsed:
            entry["keep_whitespace"] = keep
        if tokens:
            entry.update(expected_tokens(source))
        entries.append(entry)

    for page in pages:
        add("page", page, tokens=False)
    for payload in payloads:
        add("payload", payload, tokens=True)
    for source in handwritten:
        add("handwritten", source, tokens=True)

    # Mutations: the 40-product page is left out to keep the file small;
    # two in three start from a well-formed input.
    bases = [page for page in pages if len(page) < 4000]
    bases += payloads + handwritten
    well_formed = [
        entry["source"] for entry in entries
        if "tree" in entry and entry["source"] in bases
    ]
    rng = random.Random(SEED)
    seen = {entry["source"] for entry in entries}
    while len(entries) < len(pages) + len(payloads) + len(handwritten) + (
        MUTATIONS
    ):
        base = rng.choice(well_formed if rng.random() < 2 / 3 else bases)
        source = mutate(base, rng)
        if source in seen:
            continue
        seen.add(source)
        add("mutation", source, tokens=len(source) <= 200)
    return entries


def main() -> int:
    entries = build_corpus()
    with OUTPUT.open("w", encoding="utf-8") as handle:
        handle.write("[\n")
        for index, entry in enumerate(entries):
            separator = ",\n" if index + 1 < len(entries) else "\n"
            handle.write(json.dumps(entry, ensure_ascii=True) + separator)
        handle.write("]\n")
    rejected = sum(1 for entry in entries if "error" in entry)
    print(f"{OUTPUT.name}: {len(entries)} entries, {rejected} rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regex-driven XML scanner.

The substrate must parse the XML pages the simulated crawler fetches.  We
implement the subset of XML 1.0 that web documents of the paper's era (and
our synthetic generator) use:

* element tags with attributes (single- or double-quoted),
* character data with the five predefined entities plus numeric references,
* comments, processing instructions and CDATA sections (skipped / folded),
* an optional ``<!DOCTYPE name SYSTEM "url">`` declaration.

Namespaces are treated lexically (a tag may contain ``:``).

:func:`scan` is the one scanner: it jumps between markup with
``str.find("<")``, reads a whole start tag (name, attributes, ``/?>``) with
one precompiled match and splits its attributes with one ``finditer``, and
finds the end of comments, processing instructions and CDATA sections with
``str.find``.  It yields ``(kind, value, offset)`` triples, which
``repro.xmlstore.parser`` turns straight into nodes and :func:`tokenize`
wraps in :class:`Token` objects.  Line and column are computed from the
offset only for an error or a :class:`Token`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..errors import XMLSyntaxError

#: Token kinds produced by :func:`tokenize`.
START_TAG = "start"          # value = (tag, attrs, self_closing)
END_TAG = "end"              # value = tag
TEXT = "text"                # value = character data (entity-decoded)
DOCTYPE = "doctype"          # value = (name, system_url or None)

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_NAME = r"[A-Za-z_:À-￿][\w:.\-]*"
#: A name is read greedily and never split: the lookahead stops a match
#: from backtracking into a shorter name (``<ax="1">`` is not ``<a x="1">``).
_WHOLE_NAME = _NAME + r"(?![\w:.\-])"
_WS = r"[ \t\r\n]*"
_QUOTED = r"(?:\"[^\"]*\"|'[^']*')"

_NAME_RE = re.compile(_NAME)
_WS_RE = re.compile(_WS)
_START_TAG_RE = re.compile(
    f"<({_WHOLE_NAME})"
    f"((?:{_WS}{_WHOLE_NAME}{_WS}={_WS}{_QUOTED})*)"
    f"{_WS}(/?)>"
)
_ATTRIBUTE_RE = re.compile(
    f"({_NAME}){_WS}={_WS}(?:\"([^\"]*)\"|'([^']*)')"
)
_END_TAG_RE = re.compile(f"</({_NAME}){_WS}>")


@dataclass
class Token:
    kind: str
    value: object
    line: int
    column: int


def line_column(source: str, offset: int) -> Tuple[int, int]:
    """1-based line and column of ``offset`` in ``source``."""
    line = source.count("\n", 0, offset) + 1
    return line, offset - source.rfind("\n", 0, offset)


def _error(
    message: str, source: Optional[str], offset: int
) -> XMLSyntaxError:
    if source is None:
        return XMLSyntaxError(message)
    return XMLSyntaxError(message, *line_column(source, offset))


def decode_entities(
    text: str, source: Optional[str] = None, offset: int = 0
) -> str:
    """Replace predefined and numeric entity references in ``text``.

    An error is reported at ``offset`` in ``source`` (the end of the text
    run or quoted value), or without a position when no source is given.
    """
    if "&" not in text:
        return text
    out: list[str] = []
    start = 0
    while True:
        amp = text.find("&", start)
        if amp == -1:
            out.append(text[start:])
            return "".join(out)
        out.append(text[start:amp])
        end = text.find(";", amp + 1)
        if end == -1:
            raise _error("unterminated entity reference", source, offset)
        name = text[amp + 1 : end]
        if name.startswith("#"):
            try:
                if name.startswith("#x") or name.startswith("#X"):
                    out.append(chr(int(name[2:], 16)))
                else:
                    out.append(chr(int(name[1:])))
            except (ValueError, OverflowError):
                raise _error(
                    f"invalid character reference &{name};", source, offset
                ) from None
        elif name in _PREDEFINED_ENTITIES:
            out.append(_PREDEFINED_ENTITIES[name])
        else:
            raise _error(f"unknown entity &{name};", source, offset)
        start = end + 1


# -- step-by-step readers: the DOCTYPE, and the error of a malformed tag ------


def _name_end(source: str, offset: int) -> int:
    match = _NAME_RE.match(source, offset)
    if match is None:
        found = source[offset : offset + 1]
        raise _error(f"expected a name, found {found!r}", source, offset)
    return match.end()


def _skip_whitespace(source: str, offset: int) -> int:
    return _WS_RE.match(source, offset).end()  # type: ignore[union-attr]


def _read_quoted(source: str, offset: int) -> Tuple[str, int]:
    """Decoded quoted value at ``offset`` and the offset after it."""
    quote = source[offset : offset + 1]
    if not quote:
        raise _error("unterminated quoted value", source, offset)
    if quote not in "\"'":
        raise _error("expected a quoted value", source, offset)
    end = source.find(quote, offset + 1)
    if end == -1:
        raise _error("unterminated quoted value", source, offset + 1)
    return decode_entities(source[offset + 1 : end], source, end + 1), end + 1


def _read_doctype(
    source: str, offset: int
) -> Tuple[Tuple[str, Optional[str]], int]:
    """Read a DOCTYPE whose ``<!DOCTYPE`` ends at ``offset``."""
    start = _skip_whitespace(source, offset)
    offset = _name_end(source, start)
    name = source[start:offset]
    offset = _skip_whitespace(source, offset)
    system_url: Optional[str] = None
    if source.startswith("SYSTEM", offset):
        offset = _skip_whitespace(source, offset + len("SYSTEM"))
        system_url, offset = _read_quoted(source, offset)
    elif source.startswith("PUBLIC", offset):
        offset = _skip_whitespace(source, offset + len("PUBLIC"))
        _, offset = _read_quoted(source, offset)  # public id, ignored
        offset = _skip_whitespace(source, offset)
        system_url, offset = _read_quoted(source, offset)
    offset = _skip_whitespace(source, offset)
    # Skip an internal subset if present.
    if source.startswith("[", offset):
        end = source.find("]", offset)
        if end == -1:
            raise _error(
                "unterminated DOCTYPE internal subset", source, offset
            )
        offset = _skip_whitespace(source, end + 1)
    if not source.startswith(">", offset):
        raise _error("malformed DOCTYPE declaration", source, offset)
    return (name, system_url), offset + 1


def _start_tag_error(source: str, offset: int) -> XMLSyntaxError:
    """The error of a start tag at ``offset`` that the tag match rejected.

    Walks the tag one piece at a time, decoding and checking attributes in
    order, so the first fault is reported where it is.
    """
    name_start = offset + 1
    offset = _name_end(source, name_start)
    tag = source[name_start:offset]
    seen: Dict[str, str] = {}
    while True:
        offset = _skip_whitespace(source, offset)
        if offset >= len(source) or source[offset] in "/>":
            break
        attr_start = offset
        offset = _name_end(source, attr_start)
        name = source[attr_start:offset]
        offset = _skip_whitespace(source, offset)
        if not source.startswith("=", offset):
            return _error(f"attribute {name!r} missing '='", source, offset)
        offset = _skip_whitespace(source, offset + 1)
        value, offset = _read_quoted(source, offset)
        if name in seen:
            return _error(f"duplicate attribute {name!r}", source, offset)
        seen[name] = value
    if source.startswith("/", offset):
        offset += 1
    return _error(f"malformed start tag <{tag}", source, offset)


def _attributes(source: str, start: int, end: int) -> Dict[str, str]:
    """Attributes of a matched start tag's attribute run."""
    attrs: Dict[str, str] = {}
    for match in _ATTRIBUTE_RE.finditer(source, start, end):
        name, double, single = match.groups()
        value = double if double is not None else single
        if "&" in value:
            value = decode_entities(value, source, match.end())
        if name in attrs:
            raise _error(f"duplicate attribute {name!r}", source, match.end())
        attrs[name] = value
    return attrs


# -- the scanner --------------------------------------------------------------


def scan(source: str) -> Iterator[Tuple[str, object, int]]:
    """Yield ``(kind, value, offset)`` for each token of ``source``.

    Kinds and values are those of :class:`Token`; ``offset`` is where the
    token starts.  Raises :class:`~repro.errors.XMLSyntaxError` on lexically
    malformed input.  Well-formedness across tokens (balanced tags) is
    checked by the parser, not here.
    """
    find = source.find
    startswith = source.startswith
    match_start_tag = _START_TAG_RE.match
    match_end_tag = _END_TAG_RE.match
    length = len(source)
    offset = 0
    while offset < length:
        if source[offset] != "<":
            end = find("<", offset)
            if end == -1:
                end = length
            data = source[offset:end]
            if "&" in data:
                data = decode_entities(data, source, end)
            yield TEXT, data, offset
            offset = end
            continue

        follower = source[offset + 1 : offset + 2]
        if follower == "/":
            match = match_end_tag(source, offset)
            if match is None:
                name_end = _name_end(source, offset + 2)
                raise _error(
                    f"malformed end tag </{source[offset + 2 : name_end]}",
                    source,
                    _skip_whitespace(source, name_end),
                )
            yield END_TAG, match.group(1), offset
            offset = match.end()
            continue
        # The ends of comments and PIs are searched from the "<", so
        # "<!-->" and "<?>" are whole: the accepted language stays as pinned
        # by tests/data/xml_parser_corpus.json.
        if follower == "!":
            if startswith("<!--", offset):
                end = find("-->", offset)
                if end == -1:
                    raise _error("unterminated comment", source, offset)
                offset = end + 3
                continue
            if startswith("<![CDATA[", offset):
                end = find("]]>", offset)
                if end == -1:
                    raise _error("unterminated CDATA section", source, offset)
                yield TEXT, source[offset + 9 : end], offset
                offset = end + 3
                continue
            if startswith("<!DOCTYPE", offset):
                value, end = _read_doctype(source, offset + 9)
                yield DOCTYPE, value, offset
                offset = end
                continue
            raise _error("unsupported markup declaration", source, offset)
        if follower == "?":
            end = find("?>", offset)
            if end == -1:
                raise _error(
                    "unterminated processing instruction", source, offset
                )
            offset = end + 2
            continue

        match = match_start_tag(source, offset)
        if match is None:
            raise _start_tag_error(source, offset)
        tag, run, slash = match.groups()
        attrs = _attributes(source, match.start(2), match.end(2)) if run else {}
        yield START_TAG, (tag, attrs, slash == "/"), offset
        offset = match.end()


def tokenize(source: str) -> Iterator[Token]:
    """Yield :class:`Token` objects for ``source``.

    Raises :class:`~repro.errors.XMLSyntaxError` on lexically malformed
    input.  Well-formedness across tokens (balanced tags) is checked by the
    parser, not here.
    """
    line, line_start, counted = 1, 0, 0
    for kind, value, offset in scan(source):
        line += source.count("\n", counted, offset)
        newline = source.rfind("\n", counted, offset)
        if newline != -1:
            line_start = newline + 1
        counted = offset
        yield Token(kind, value, line, offset - line_start + 1)

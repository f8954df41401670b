"""Streaming pq-gram index construction from XML.

Builds the index of an XML document directly from the token stream in
O(depth · (p + q)) memory — the tree is never materialized.  This is
how a 211 MB DBLP file is indexed in practice; the paper's setting
assumes exactly such a bulk-load for I_0.

The token stream drives the one event-to-bag machine,
:class:`repro.core.profile.GramEmitter` (a p-part and a sliding window
of q children per open element): an ``open`` per start tag, attribute
name, attribute value and text run, and a ``close`` where each ends.
Attributes are mapped like the DOM parser does (``@name`` child with
one value leaf), so the streamed index equals
``PQGramIndex.from_tree(parse_xml(text))`` exactly (property-tested).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.config import GramConfig
from repro.core.index import PQGramIndex
from repro.core.profile import GramEmitter
from repro.errors import XmlError
from repro.hashing.labelhash import LabelHasher
from repro.xmlio.tokens import Token, TokenKind, tokenize


def index_from_tokens(
    tokens: Iterable[Token], config: GramConfig, hasher: LabelHasher
) -> PQGramIndex:
    """The pq-gram index of a token sequence."""
    emitter = GramEmitter(config, hasher)
    saw_root = False
    for token in tokens:
        if token.kind in (TokenKind.OPEN, TokenKind.SELF_CLOSING):
            if saw_root and emitter.depth == 0:
                raise XmlError(f"offset {token.offset}: multiple root elements")
            saw_root = True
            emitter.open(token.value)
            for name, value in token.attributes.items():
                emitter.open(f"@{name}")
                emitter.open(value)
                emitter.close()
                emitter.close()
            if token.kind is TokenKind.SELF_CLOSING:
                emitter.close()
        elif token.kind is TokenKind.CLOSE:
            if emitter.depth == 0:
                raise XmlError(
                    f"offset {token.offset}: close tag without open element"
                )
            emitter.close()
        elif token.kind in (TokenKind.TEXT, TokenKind.CDATA):
            if emitter.depth == 0:
                raise XmlError(
                    f"offset {token.offset}: character data outside the root"
                )
            emitter.open(token.value)
            emitter.close()
        # comments / processing instructions carry no tree content
    if emitter.depth != 0:
        raise XmlError(f"{emitter.depth} unclosed element(s)")
    if not saw_root:
        raise XmlError("document has no root element")
    return PQGramIndex.from_bag_view(config, emitter.counts)


def stream_index_xml(
    text: str, config: GramConfig, hasher: LabelHasher
) -> PQGramIndex:
    """The pq-gram index of an XML string, built without a DOM."""
    return index_from_tokens(tokenize(text), config, hasher)


def stream_index_xml_file(
    path: str, config: GramConfig, hasher: LabelHasher
) -> PQGramIndex:
    """The pq-gram index of an XML file, built without a DOM."""
    with open(path, "r", encoding="utf-8") as handle:
        return stream_index_xml(handle.read(), config, hasher)

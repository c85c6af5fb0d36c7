"""The scanner's two frozen predecessors, kept as parity oracles.

:func:`scan_html_reference` is the per-match scanner: one five-way
alternation (comment, script/style block, tag, entity, word) visited
match by match, each word resolved through the interner on its own.
:mod:`repro.text.scanner` replaced it with markup-only matching and
bulk word resolution; ``tests/text/test_scanner_oracle.py`` holds the
two equal on every :class:`~repro.text.scanner.ScannedPage` field and
on the interner's counters.  It carries one fix over the version that
shipped: words and entity names are ASCII-shaped (the alternation was
compiled ``IGNORECASE``, which let U+212A KELVIN SIGN, U+017F LONG S,
U+0130 and U+0131 into words that queries never produce).

The rest of this module preserves, verbatim, the regex pipeline the
repo shipped before the single-pass scanner: five compiled regexes
(anchors, title, comments, script/style blocks, tags) applied
in sequence over intermediate strings, with an unmemoized Porter stem
per word occurrence.

That pipeline exists for two reasons:

* **golden parity** -- ``tests/text/test_golden_parity.py`` proves the
  scanner reproduces it token-for-token on the
  committed corpus fixture (and the fixture generator
  ``tests/text/make_golden_fixture.py`` regenerates expectations from
  this module, never from the scanner under test);
* **documented divergences** -- the scanner deliberately fixes two
  bugs this implementation has (HTML entities leaking into terms as
  ``amp``/``quot``; ``<title>`` extracted from inside comments and
  scripts), so the old behaviour must stay runnable to show exactly
  what changed.

Do not "fix" or modernise this module: its value is that it does not
change.  It lives beside its only callers (the fixture generator and
the parity tests), so no production module depends on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape

from repro.text.scanner import ScannedPage, TermInterner
from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import ANCHOR_STOPWORDS, STOPWORDS

__all__ = [
    "Token",
    "HtmlDocument",
    "scan_html_reference",
    "tokenize_reference",
    "html_to_text_reference",
    "tokenize_html_reference",
]


@dataclass(frozen=True)
class Token:
    """A single stemmed term with its surface form and position."""

    stem: str
    surface: str
    position: int


@dataclass
class HtmlDocument:
    """The reference analyzer's output for one HTML page."""

    text: str
    title: str
    tokens: list[Token]
    links: list[str] = field(default_factory=list)
    anchor_terms: dict[str, list[str]] = field(default_factory=dict)
    """Map from target URL to the stemmed anchor-text terms that point at it."""

_WORD_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9']*")
_TAG_RE = re.compile(r"<[^>]*>")
_ANCHOR_RE = re.compile(
    r"<a\s[^>]*?href\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]+))[^>]*>(.*?)</a>",
    re.IGNORECASE | re.DOTALL,
)
_TITLE_RE = re.compile(r"<title[^>]*>(.*?)</title>", re.IGNORECASE | re.DOTALL)
_SCRIPT_RE = re.compile(
    r"<(script|style)[^>]*>.*?</\1>", re.IGNORECASE | re.DOTALL
)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)

_stemmer = PorterStemmer()


def tokenize_reference(
    text: str,
    min_length: int = 2,
    stopwords: frozenset[str] = STOPWORDS,
    stem: bool = True,
) -> list[Token]:
    """The historical plain-text tokenizer (unmemoized stemming)."""
    tokens: list[Token] = []
    position = 0
    for match in _WORD_RE.finditer(text):
        surface = match.group(0).lower().strip("'")
        if len(surface) < min_length or surface in stopwords:
            continue
        stemmed = _stemmer.stem(surface) if stem else surface
        tokens.append(Token(stem=stemmed, surface=surface, position=position))
        position += 1
    return tokens


def html_to_text_reference(html: str) -> tuple[str, str]:
    """The historical tag stripper, title-in-comment bug included."""
    title_match = _TITLE_RE.search(html)
    title = title_match.group(1).strip() if title_match else ""
    cleaned = _COMMENT_RE.sub(" ", html)
    cleaned = _SCRIPT_RE.sub(" ", cleaned)
    cleaned = _TAG_RE.sub(" ", cleaned)
    return cleaned, title


def _anchor_tokens(anchor_html: str) -> list[str]:
    visible = _TAG_RE.sub(" ", anchor_html)
    return [
        token.stem
        for token in tokenize_reference(visible, stopwords=ANCHOR_STOPWORDS)
    ]


def tokenize_html_reference(html: str, min_length: int = 2) -> HtmlDocument:
    """The historical five-regex analyzer pipeline, end to end."""
    links: list[str] = []
    anchor_terms: dict[str, list[str]] = {}
    for match in _ANCHOR_RE.finditer(html):
        href = next(g for g in match.group(1, 2, 3) if g is not None).strip()
        if not href:
            continue
        links.append(href)
        terms = _anchor_tokens(match.group(4))
        if terms:
            anchor_terms.setdefault(href, []).extend(terms)
    text, title = html_to_text_reference(html)
    tokens = tokenize_reference(text, min_length=min_length)
    return HtmlDocument(
        text=text, title=title, tokens=tokens, links=links,
        anchor_terms=anchor_terms,
    )


# -- the per-match scanner ---------------------------------------------

#: The five-way alternation, visited match by match.  ``IGNORECASE``
#: is scoped to the block names, so words and entity names are ASCII.
_SCAN_RE = re.compile(
    r"(?P<c><!--.*?(?:-->|\Z))"
    r"|<(?P<b>(?i:script|style))[^>]*>.*?(?:</(?i:(?P=b))>|\Z)"
    r"|(?P<t><[^>]*>)"
    r"|&(?P<e>[a-zA-Z][a-zA-Z0-9]*|#[0-9]+|#[xX][0-9a-fA-F]+);"
    r"|(?P<w>[a-zA-Z][a-zA-Z0-9']*)",
    re.DOTALL,
)
_WORDCHARS_RE = re.compile(r"[a-zA-Z0-9']+\Z")
_ANCHOR_OPEN_RE = re.compile(r"<a\s", re.IGNORECASE)
_HREF_RE = re.compile(
    r"href\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]+))",
    re.IGNORECASE,
)
_MISS: object = object()


def scan_html_reference(
    html: str,
    interner: TermInterner,
    *,
    with_tokens: bool = True,
    with_text: bool = True,
) -> ScannedPage:
    """The per-match scanner: every word is its own match and its own
    word-table probe, in document order."""
    word_table = interner._word_table
    stem_table = interner._stem_table
    porter_stem = interner._stemmer.stem
    stem_hits = 0
    stem_misses = 0
    word_hits = 0
    word_misses = 0

    stem_counts: dict[str, int] = {}
    tokens: list[tuple[str, str, int]] | None = [] if with_tokens else None
    parts: list[str] | None = [] if with_text else None
    links: list[str] = []
    anchor_terms: dict[str, list[str]] = {}

    title: str | None = None
    title_start = -1
    anchor_href: str | None = None
    anchor_list: list[str] | None = None
    pending = ""
    pending_end = -2
    position = 0
    last = 0

    def _emit(word: str) -> None:
        nonlocal position, stem_hits, stem_misses, word_hits, word_misses
        entry: tuple[str, str] | None
        probed = word_table.get(word, _MISS)
        if probed is _MISS:
            word_misses += 1
            surface = word.lower().strip("'")
            if len(surface) < 2 or surface in STOPWORDS:
                entry = None
            else:
                stemmed = stem_table.get(surface)
                if stemmed is None:
                    stem_misses += 1
                    stemmed = porter_stem(surface)
                    stem_table[surface] = stemmed
                else:
                    stem_hits += 1
                entry = (surface, stemmed)
            word_table[word] = entry
        else:
            word_hits += 1
            entry = probed  # type: ignore[assignment]
        if entry is not None:
            surface, stemmed = entry
            count = stem_counts.get(stemmed)
            stem_counts[stemmed] = 1 if count is None else count + 1
            if tokens is not None:
                tokens.append((stemmed, surface, position))
            position += 1
        if anchor_list is not None:
            surface_a = word.lower().strip("'")
            if len(surface_a) >= 2 and surface_a not in ANCHOR_STOPWORDS:
                stemmed_a = stem_table.get(surface_a)
                if stemmed_a is None:
                    stem_misses += 1
                    stemmed_a = porter_stem(surface_a)
                    stem_table[surface_a] = stemmed_a
                else:
                    stem_hits += 1
                anchor_list.append(stemmed_a)

    for match in _SCAN_RE.finditer(html):
        kind = match.lastgroup
        if parts is not None:
            parts.append(html[last:match.start()])
        last = match.end()
        if kind == "w":
            start = match.start()
            word = match.group()
            if start == pending_end:
                pending += word
            else:
                if pending:
                    _emit(pending)
                pending = word
            pending_end = last
            if parts is not None:
                parts.append(word)
            continue
        if kind == "e":
            decoded = unescape(match.group())
            if decoded == match.group():
                if pending:
                    _emit(pending)
                    pending = ""
                pending_end = -2
                name = match.group("e")
                if name[0] != "#":
                    _emit(name)
                if parts is not None:
                    parts.append(match.group())
            else:
                if parts is not None:
                    parts.append(decoded)
                if _WORDCHARS_RE.match(decoded):
                    if match.start() == pending_end:
                        pending += decoded
                        pending_end = last
                    else:
                        if pending:
                            _emit(pending)
                            pending = ""
                        if decoded[0].isalpha():
                            pending = decoded
                            pending_end = last
                        else:
                            pending_end = -2
                else:
                    if pending:
                        _emit(pending)
                        pending = ""
                    pending_end = -2
            continue
        if pending:
            _emit(pending)
            pending = ""
        pending_end = -2
        if parts is not None:
            parts.append(" ")
        if kind != "t":
            continue
        tag = match.group("t")
        tag_lower = tag.lower()
        if tag_lower == "</a>":
            if anchor_href is not None:
                if anchor_href:
                    links.append(anchor_href)
                    if anchor_list:
                        bucket = anchor_terms.setdefault(anchor_href, [])
                        bucket.extend(anchor_list)
                anchor_href = None
                anchor_list = None
        elif _ANCHOR_OPEN_RE.match(tag):
            if anchor_href is None:
                href_match = _HREF_RE.search(tag, 2)
                if href_match is not None:
                    group = href_match.group(1)
                    if group is None:
                        group = href_match.group(2)
                    if group is None:
                        group = href_match.group(3)
                    anchor_href = group.strip()
                    anchor_list = []
        elif tag_lower == "</title>":
            if title_start >= 0 and title is None:
                title = html[title_start:match.start()]
            title_start = -1
        elif tag_lower.startswith("<title") and title is None:
            if title_start < 0:
                title_start = match.end()

    if pending:
        _emit(pending)

    interner.stem_table_hits += stem_hits
    interner.stem_table_misses += stem_misses
    interner.intern_hits += word_hits
    interner.intern_misses += word_misses

    text: str | None = None
    if parts is not None:
        parts.append(html[last:])
        text = "".join(parts)
    return ScannedPage(
        title=unescape(title).strip() if title is not None else "",
        links=links,
        anchor_terms=anchor_terms,
        stem_counts=stem_counts,
        tokens=tokens,
        text=text,
    )

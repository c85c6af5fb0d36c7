"""Single-pass text substrate: HTML scanner, term interner, batch tf*idf.

The document analyzer (paper section 2.2) is the crawl's hot path:
the per-stage breakdown once put the convert stage at three quarters
of total pipeline time.  This module is the repo's one analyzer --
every path from markup or plain text to stems goes through it:

* :func:`scan_html` -- ONE traversal of the raw HTML that strips
  comments and script/style blocks, extracts the title, collects links
  and anchor-text terms, and emits stemmed body terms, without ever
  materialising an intermediate cleaned string;
* :func:`text_stems` / :func:`tokenize_text` -- the same word filter
  and stem memo over plain text (queries, anchor texts);
* :class:`TermInterner` -- a memoized ``raw word -> (surface, stem)``
  and ``surface -> stem`` table in front of the Porter stemmer (the
  stemmer is pure, and word frequencies are Zipfian, so one dict hit
  replaces the five-phase algorithm for almost every occurrence);
* :func:`vectorize_batch` -- tf*idf rows for a whole micro-batch in
  one wave against the idf snapshot, sharing the per-term idf gather
  and the ``1 + log(tf)`` dampening table across the batch.

Parity contract: on markup without HTML entities, without titles or
anchors inside comments/script blocks, and without unterminated
comments/blocks, :func:`scan_html` reproduces the frozen five-regex
reference (``tests/text/reference.py``) byte for byte -- same text,
title, tokens (stem/surface/position), links, and anchor terms.  The
golden corpus test pins this.  The deliberate divergences are
fixes: known HTML entities are decoded instead of leaking ``amp`` /
``quot`` terms, titles inside comments are ignored, and unterminated
comments/blocks swallow their content instead of leaking it.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator, Mapping, Sequence
from html import unescape
from typing import cast

from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import ANCHOR_STOPWORDS, STOPWORDS
from repro.text.vectorizer import SparseVector, TfIdfVectorizer

__all__ = [
    "TermInterner",
    "ScannedPage",
    "scan_html",
    "text_stems",
    "tokenize_text",
    "vectorize_batch",
    "default_interner",
]

#: One alternation, one traversal.  Order matters and mirrors the
#: reference pipeline's precedence (comments stripped before blocks
#: before tags): a ``<script`` that opens inside a comment is never
#: seen, and a comment marker inside a script block is never seen.
#: The block open ``<(script|style)[^>]*>`` and the generic tag
#: ``<[^>]*>`` are byte-compatible with the reference regexes
#: (including quirks like ``<scriptx>`` opening a script block).
#: Unterminated comments/blocks run to end-of-input (``\Z``) instead
#: of leaking their content -- a deliberate fix.
_SCAN_RE = re.compile(
    r"(?P<c><!--.*?(?:-->|\Z))"
    r"|<(?P<b>script|style)[^>]*>.*?(?:</(?P=b)>|\Z)"
    r"|(?P<t><[^>]*>)"
    r"|&(?P<e>[a-zA-Z][a-zA-Z0-9]*|#[0-9]+|#[xX][0-9a-fA-F]+);"
    r"|(?P<w>[a-zA-Z][a-zA-Z0-9']*)",
    re.IGNORECASE | re.DOTALL,
)

#: Word shape shared with the reference tokenizer.
_WORD_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9']*")

#: Chars a decoded entity may contribute to a merged word.
_WORDCHARS_RE = re.compile(r"[a-zA-Z0-9']+\Z")

#: Anchor-open shape shared with the reference (``<a`` + whitespace).
_ANCHOR_OPEN_RE = re.compile(r"<a\s", re.IGNORECASE)

#: First href attribute inside an anchor tag; the three alternatives
#: (double-quoted, single-quoted, bare) are copied verbatim from the
#: reference anchor regex so edge cases bracket identically.
_HREF_RE = re.compile(
    r"href\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]+))",
    re.IGNORECASE,
)


#: word-table probe sentinel (``None`` is a real value: "filtered out")
_MISS: object = object()


class TermInterner:
    """Shared memo tables for the scanner's per-word work.

    Two layers, from coarse to fine:

    * the *word table* maps a raw matched word (case and quote
      decoration included) straight to its interned ``(surface, stem)``
      pair, or ``None`` if the default body filter drops it -- one dict
      hit replaces lowercase/strip/stopword-check/stem;
    * the *stem table* memoizes ``surface -> stem`` across the pure
      Porter stemmer.

    Hit/miss tallies for both layers are kept as plain int
    attributes; :meth:`stats` snapshots them for observability.  The
    tables are append-only and derived from pure functions, so sharing
    an interner across documents (or crawls) never changes any output,
    only how fast it is produced.
    """

    __slots__ = (
        "_stemmer",
        "_word_table",
        "_stem_table",
        "stem_table_hits",
        "stem_table_misses",
        "intern_hits",
        "intern_misses",
    )

    def __init__(self) -> None:
        self._stemmer = PorterStemmer()
        self._word_table: dict[str, tuple[str, str] | None] = {}
        self._stem_table: dict[str, str] = {}
        self.stem_table_hits = 0
        self.stem_table_misses = 0
        self.intern_hits = 0
        self.intern_misses = 0

    def stem(self, surface: str) -> str:
        """Memoized Porter stem of an already-normalised surface form."""
        table = self._stem_table
        stemmed = table.get(surface)
        if stemmed is None:
            self.stem_table_misses += 1
            stemmed = self._stemmer.stem(surface)
            table[surface] = stemmed
        else:
            self.stem_table_hits += 1
        return stemmed

    def stats(self) -> dict[str, int]:
        """Counter snapshot (snake_case keys, obs-ready)."""
        return {
            "stem_table_size": len(self._stem_table),
            "stem_table_hits": self.stem_table_hits,
            "stem_table_misses": self.stem_table_misses,
            "intern_hits": self.intern_hits,
            "intern_misses": self.intern_misses,
        }


class ScannedPage:
    """Analyzer output of one :func:`scan_html` pass.

    ``stem_counts`` is the bag of body terms in first-occurrence order
    -- identical in content and iteration order to
    ``Counter(stems)``, but produced without building per-word tuples.
    ``tokens`` (``(stem, surface, position)`` tuples) and ``text`` are
    only populated when the caller asked for them (the default
    term-only pipeline does not).
    """

    __slots__ = (
        "title", "links", "anchor_terms", "stem_counts", "tokens", "text",
    )

    def __init__(
        self,
        title: str,
        links: list[str],
        anchor_terms: dict[str, list[str]],
        stem_counts: dict[str, int],
        tokens: list[tuple[str, str, int]] | None,
        text: str | None,
    ) -> None:
        self.title = title
        self.links = links
        self.anchor_terms = anchor_terms
        self.stem_counts = stem_counts
        self.tokens = tokens
        self.text = text

    @property
    def stems(self) -> list[str]:
        """Body stems in document order (a ``with_tokens`` scan only)."""
        if self.tokens is None:
            raise ValueError("page was scanned without tokens")
        return [token[0] for token in self.tokens]


_default_interner: TermInterner | None = None


def default_interner() -> TermInterner:
    """Process-wide interner for callers outside a crawl context."""
    global _default_interner
    if _default_interner is None:
        _default_interner = TermInterner()
    return _default_interner


def scan_html(
    html: str,
    interner: TermInterner | None = None,
    *,
    with_tokens: bool = True,
    with_text: bool = True,
) -> ScannedPage:
    """Run the full document analyzer in one traversal of ``html``.

    Every character is visited once: markup constructs advance the
    scan, word matches flow through the interner into ``stem_counts``
    (and optionally into token tuples), anchors accumulate links and
    anchor-text terms under the extended stopword set, and the first
    completed ``<title>`` outside comments/blocks is captured as a raw
    span, entity-decoded, and stripped.

    Adjacent word matches joined by a decoded entity merge into one
    word (``x&#65;y`` -> ``xAy``); a decoded non-word character acts
    as a separator; an *unknown* entity contributes its bare name as a
    word, matching the reference tokenizer's behaviour on the raw
    ``&name;`` text.
    """
    if interner is None:
        interner = default_interner()

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

    title: str | None = None        # first completed title, raw span
    title_start = -1                # capture offset while inside <title>
    anchor_href: str | None = None  # '' consumes without committing
    anchor_list: list[str] | None = None
    pending = ""                    # word run joined by decoded entities
    pending_end = -2                # end offset of the pending run
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
            entry = cast("tuple[str, str] | None", probed)
        if entry is not None:
            surface, stemmed = entry
            count = stem_counts.get(stemmed)
            stem_counts[stemmed] = 1 if count is None else count + 1
            if tokens is not None:
                tokens.append((stemmed, surface, position))
            position += 1
        if anchor_list is not None:
            # Anchor text runs under the extended stopword set at the
            # reference's fixed min_length of 2, independent of the
            # body filter.
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
                # Unknown entity: the reference tokenizes the bare
                # name out of the raw "&name;" text.
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
        # Any markup construct separates words.
        if pending:
            _emit(pending)
            pending = ""
        pending_end = -2
        if parts is not None:
            parts.append(" ")
        if kind != "t":
            continue  # comments and script/style blocks vanish whole
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
            # A nested "<a href" inside an open anchor is swallowed,
            # exactly as the reference's non-overlapping finditer did.
        elif tag_lower == "</title>":
            if title_start >= 0 and title is None:
                title = html[title_start:match.start()]
            title_start = -1
        elif tag_lower.startswith("<title") and title is None:
            if title_start < 0:
                title_start = match.end()

    if pending:
        _emit(pending)
    # An anchor still open at end-of-input never produced a match in
    # the reference either: its words stay body-only, its href is
    # dropped.

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


def _surfaces(
    text: str, min_length: int, stopwords: frozenset[str]
) -> Iterator[str]:
    """Lowercased, quote-stripped words that pass the length/stopword
    filter -- the reference tokenizer's word shape and order."""
    for match in _WORD_RE.finditer(text):
        surface = match.group().lower().strip("'")
        if len(surface) >= min_length and surface not in stopwords:
            yield surface


def text_stems(
    text: str,
    interner: TermInterner | None = None,
    *,
    stopwords: frozenset[str] = STOPWORDS,
) -> list[str]:
    """Ordered stems of plain text (queries, anchor texts)."""
    if interner is None:
        interner = default_interner()
    stem = interner.stem
    return [stem(surface) for surface in _surfaces(text, 2, stopwords)]


def tokenize_text(
    text: str,
    interner: TermInterner | None = None,
    *,
    min_length: int = 2,
    stopwords: frozenset[str] = STOPWORDS,
    stem: bool = True,
) -> list[tuple[str, str, int]]:
    """Plain text as ``(stem, surface, position)`` tuples.

    Semantically identical to the reference ``tokenize`` (lowercase,
    quote-strip, length/stopword filter, Porter stem), just memoized.
    """
    if interner is None:
        interner = default_interner()
    return [
        (interner.stem(surface) if stem else surface, surface, position)
        for position, surface in enumerate(
            _surfaces(text, min_length, stopwords)
        )
    ]


def vectorize_batch(
    vectorizer: TfIdfVectorizer,
    counts_batch: Sequence[Mapping[str, int]],
) -> list[SparseVector]:
    """tf*idf rows for a whole micro-batch in one wave.

    Bit-identical to calling ``vectorizer.vectorize_counts`` per
    document: the weight expression ``(1.0 + math.log(tf)) * idf`` is
    evaluated with the same operations in the same order, the batch
    merely shares the idf gather per distinct term and the log-tf
    dampening per distinct count.  Rows therefore do not depend on
    batch composition (batch-invariance is pinned by tests).
    """
    idf = vectorizer.statistics.idf
    idf_gather: dict[str, float] = {}
    tf_table: dict[int, float] = {}
    log = math.log
    rows: list[SparseVector] = []
    for counts in counts_batch:
        weights: dict[str, float] = {}
        for term, tf in counts.items():
            if tf <= 0:
                continue
            dampened = tf_table.get(tf)
            if dampened is None:
                dampened = 1.0 + log(tf)
                tf_table[tf] = dampened
            term_idf = idf_gather.get(term)
            if term_idf is None:
                term_idf = idf(term)
                idf_gather[term] = term_idf
            weights[term] = dampened * term_idf
        rows.append(SparseVector(weights))
    return rows

"""Single-pass text substrate: HTML scanner, term interner, batch tf*idf.

The document analyzer (paper section 2.2) is the crawl's hot path:
the per-stage breakdown once put the convert stage at three quarters
of total pipeline time.  This module is the repo's one analyzer --
every path from markup or plain text to stems goes through it:

* :func:`scan_html` -- ONE traversal of the raw HTML that strips
  comments and script/style blocks, extracts the title, collects links
  and anchor-text terms, and emits stemmed body terms.  Python-level
  work is paid per markup construct and per page, not per word: the
  regex matches markup only, the words of the text between two markup
  matches come out of C-level string calls, and the page's body words
  are resolved through the interner's word table in one ``map``;
* :func:`text_stems` -- the same word filter and stem memo over plain
  text (queries, anchor texts);
* :class:`TermInterner` -- a memoized ``raw word -> (surface, stem)``
  and ``surface -> stem`` table in front of the Porter stemmer (the
  stemmer is pure, and word frequencies are Zipfian, so one dict hit
  replaces the five-phase algorithm for almost every occurrence);
* :func:`vectorize_batch` -- tf*idf rows for a whole micro-batch,
  :meth:`~repro.text.vectorizer.TfIdfVectorizer.vectorize_counts` per
  document.

A word is ``[a-zA-Z][a-zA-Z0-9']*`` everywhere -- page bodies, anchor
texts, queries -- so a page is found by the words it shows.

Parity contract: on markup without HTML entities, without titles or
anchors inside comments/script blocks, and without unterminated
comments/blocks, :func:`scan_html` reproduces the frozen five-regex
reference (``tests/text/reference.py``) byte for byte -- same text,
title, tokens (stem/surface/position), links, and anchor terms.  The
golden corpus test pins this.  The deliberate divergences are
fixes: known HTML entities are decoded instead of leaking ``amp`` /
``quot`` terms, titles inside comments are ignored, and unterminated
comments/blocks swallow their content instead of leaking it.  On all
markup it equals the per-match scanner kept beside that reference
(``scan_html_reference``), field for field and interner count for
interner count.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from html import unescape
from itertools import chain, repeat
from operator import itemgetter

from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import ANCHOR_STOPWORDS, STOPWORDS
from repro.text.vectorizer import SparseVector, TfIdfVectorizer

__all__ = [
    "TermInterner",
    "ScannedPage",
    "scan_html",
    "text_stems",
    "vectorize_batch",
    "default_interner",
]

#: Markup only.  Every alternative starts with ``<`` or ``&``, so the
#: regex engine's prefix search skips plain text instead of trying an
#: alternative at every character.  Order matters and mirrors the
#: reference pipeline's precedence (comments stripped before blocks
#: before tags): a ``<script`` that opens inside a comment is never
#: seen, and a comment marker inside a script block is never seen.
#: The block open ``<(script|style)[^>]*>`` and the generic tag
#: ``<[^>]*>`` are byte-compatible with the reference regexes
#: (including quirks like ``<scriptx>`` opening a script block).
#: Unterminated comments/blocks run to end-of-input (``\Z``) instead
#: of leaking their content -- a deliberate fix.  Entity names are
#: ASCII, like words: no ``IGNORECASE`` outside the block names.
_MARKUP_RE = re.compile(
    r"<(?:(?P<c>!--.*?(?:-->|\Z))"
    r"|(?P<b>(?i:script|style))[^>]*>.*?(?:</(?i:(?P=b))>|\Z)"
    r"|[^>]*>)"
    r"|&(?P<e>[a-zA-Z][a-zA-Z0-9]*|#[0-9]+|#[xX][0-9a-fA-F]+);",
    re.DOTALL,
)

#: Word shape shared with the reference tokenizer.
_WORD_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9']*")

#: Chars a decoded entity may contribute to a merged word.
_WORDCHARS_RE = re.compile(r"[a-zA-Z0-9']+\Z")

#: What may precede a word's first letter inside a run of word chars.
_LEADING = string.digits + "'"
_LEADING_BYTES = _LEADING.encode()

#: ASCII non-word chars -> space, so ``split`` yields the word runs.
_NON_WORD = bytes(
    c for c in range(128) if chr(c) not in string.ascii_letters + _LEADING
)
_SEPARATE = bytes.maketrans(_NON_WORD, b" " * len(_NON_WORD))

#: Anchor-open shape shared with the reference (``<a`` + whitespace).
_ANCHOR_OPEN_RE = re.compile(r"<a\s", re.IGNORECASE)

#: First href attribute inside an anchor tag; the three alternatives
#: (double-quoted, single-quoted, bare) are copied verbatim from the
#: reference anchor regex so edge cases bracket identically.
_HREF_RE = re.compile(
    r"href\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s>]+))",
    re.IGNORECASE,
)


def _words(text: str) -> list[str]:
    """``_WORD_RE.findall(text)``; ASCII text takes C-level string calls.

    Non-word chars become spaces, ``split`` yields the maximal runs of
    ``[a-zA-Z0-9']``, and a run's word starts at its first letter.
    """
    if not text.isascii():
        return _WORD_RE.findall(text)
    spaced = text.encode().translate(_SEPARATE)
    runs = spaced.decode().split()
    if len(spaced.translate(None, _LEADING_BYTES)) == len(spaced):
        return runs  # no digit or quote: every run is a word
    return list(filter(None, map(str.lstrip, runs, repeat(_LEADING))))


class _WordTable(dict[str, "tuple[str, str] | None"]):
    """``raw word -> (surface, stem)``, or ``None`` if the body filter
    drops the word; looking up a new word computes and stores its
    entry, so the table's growth is the count of new words."""

    __slots__ = ("_stem",)

    def __init__(self, stem: Callable[[str], str]) -> None:
        super().__init__()
        self._stem = stem

    def __missing__(self, word: str) -> tuple[str, str] | None:
        surface = word.lower().strip("'")
        entry = (
            None if len(surface) < 2 or surface in STOPWORDS
            else (surface, self._stem(surface))
        )
        self[word] = entry
        return entry


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
        self._word_table = _WordTable(self.stem)
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
    -- a ``Counter`` equal in content and iteration order to
    ``Counter(stems)``.  ``tokens`` (``(stem, surface, position)``
    tuples) and ``text`` are only populated when the caller asked for
    them (the default term-only pipeline does not).
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


def _anchor_stems(
    words: Iterable[str], stem: Callable[[str], str], into: list[str]
) -> None:
    """Anchor text runs under the extended stopword set at the
    reference's fixed min_length of 2, independent of the body filter."""
    for word in words:
        surface = word.lower().strip("'")
        if len(surface) >= 2 and surface not in ANCHOR_STOPWORDS:
            into.append(stem(surface))


def scan_html(
    html: str,
    interner: TermInterner | None = None,
    *,
    with_tokens: bool = True,
    with_text: bool = True,
) -> ScannedPage:
    """Run the full document analyzer in one traversal of ``html``.

    Markup matches advance the scan; the text gaps between them are
    collected and split into words once per page, then resolved
    through the interner into ``stem_counts`` (and optionally into
    token tuples).  Anchors accumulate links and anchor-text terms
    under the extended stopword set, and the first completed
    ``<title>`` outside comments/blocks is captured as a raw span,
    entity-decoded, and stripped.

    Adjacent words joined by a decoded entity merge into one word
    (``x&#65;y`` -> ``xAy``), so a gap that touches an entity is split
    word by word with offsets; a decoded non-word character acts as a
    separator; an *unknown* entity contributes its bare name as a
    word, matching the reference tokenizer's behaviour on the raw
    ``&name;`` text.
    """
    if interner is None:
        interner = default_interner()
    stem = interner.stem

    body: list[str] = []            # text gaps and entity-joined words
    parts: list[str] | None = [] if with_text else None
    links: list[str] = []
    anchor_terms: dict[str, list[str]] = {}

    title: str | None = None        # first completed title, raw span
    title_start = -1                # capture offset while inside <title>
    anchor_href: str | None = None  # '' consumes without committing
    anchor_list: list[str] | None = None
    pending = ""                    # word run joined by decoded entities
    pending_end = -2                # end offset of the pending run
    last = 0

    def emit(word: str) -> None:
        body.append(word)
        if anchor_list is not None:
            _anchor_stems((word,), stem, anchor_list)

    # A trailing ``None`` closes the text after the last markup match.
    for match in chain(_MARKUP_RE.finditer(html), (None,)):
        if match is None:
            start, kind = len(html), None
        else:
            start, kind = match.start(), match.lastgroup
        if start > last:
            gap = html[last:start]
            if parts is not None:
                parts.append(gap)
            if kind == "e" or pending_end == last:
                # The gap touches an entity: its words keep their
                # offsets so a decoded entity can join them.
                for word_match in _WORD_RE.finditer(html, last, start):
                    word = word_match.group()
                    if word_match.start() == pending_end:
                        pending += word
                    else:
                        if pending:
                            emit(pending)
                        pending = word
                    pending_end = word_match.end()
            else:
                body.append(gap)
                if anchor_list is not None:
                    _anchor_stems(_words(gap), stem, anchor_list)
        if match is None:
            break
        last = match.end()
        if kind == "e":
            entity = match.group()
            decoded = unescape(entity)
            if parts is not None:
                parts.append(decoded)
            joins = _WORDCHARS_RE.match(decoded) is not None
            if joins and start == pending_end:
                pending += decoded
            else:
                if pending:
                    emit(pending)
                pending = decoded if joins and decoded[0].isalpha() else ""
                if decoded == entity:
                    # Unknown entity: the reference tokenizes the bare
                    # name out of the raw "&name;" text.
                    emit(match.group("e"))
            pending_end = last if pending else -2
            continue
        # Any other markup construct separates words.
        if pending:
            emit(pending)
            pending = ""
        pending_end = -2
        if parts is not None:
            parts.append(" ")
        if kind is not None:
            continue  # comments and script/style blocks vanish whole
        tag = match.group()
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
                title = html[title_start:start]
            title_start = -1
        elif tag_lower.startswith("<title") and title is None:
            if title_start < 0:
                title_start = last

    if pending:
        emit(pending)
    # An anchor still open at end-of-input never produced a match in
    # the reference either: its words stay body-only, its href is
    # dropped.

    # Resolve every body word in one pass: the word table's growth is
    # the new words, every other lookup a hit.
    words = _words(" ".join(body))
    word_table = interner._word_table
    size = len(word_table)
    entries = filter(None, map(word_table.__getitem__, words))
    tokens: list[tuple[str, str, int]] | None = None
    if with_tokens:
        kept = list(entries)
        stem_counts = Counter(map(itemgetter(1), kept))
        tokens = [
            (stemmed, surface, position)
            for position, (surface, stemmed) in enumerate(kept)
        ]
    else:
        stem_counts = Counter(map(itemgetter(1), entries))
    new_words = len(word_table) - size
    interner.intern_misses += new_words
    interner.intern_hits += len(words) - new_words

    return ScannedPage(
        title=unescape(title).strip() if title is not None else "",
        links=links,
        anchor_terms=anchor_terms,
        stem_counts=stem_counts,
        tokens=tokens,
        text="".join(parts) if parts is not None else None,
    )


def text_stems(
    text: str,
    interner: TermInterner | None = None,
    *,
    stopwords: frozenset[str] = STOPWORDS,
) -> list[str]:
    """Ordered stems of plain text (queries, anchor texts): the
    lowercased, quote-stripped words of two or more characters that are
    not stopwords -- the reference tokenizer's word shape and order."""
    if interner is None:
        interner = default_interner()
    stem = interner.stem
    stems = []
    for match in _WORD_RE.finditer(text):
        surface = match.group().lower().strip("'")
        if len(surface) >= 2 and surface not in stopwords:
            stems.append(stem(surface))
    return stems


def vectorize_batch(
    vectorizer: TfIdfVectorizer,
    counts_batch: Sequence[Mapping[str, int]],
) -> list[SparseVector]:
    """tf*idf rows for a whole micro-batch: :meth:`~repro.text.
    vectorizer.TfIdfVectorizer.vectorize_counts` per document, so a row
    does not depend on the batch it rode in.  No crawl path calls it
    (the classifier's kernel weights term counts itself); it stays for
    the benchmark tracer, which wraps it as
    ``repro.perf.text.vectorize_batch``."""
    return [vectorizer.vectorize_counts(counts) for counts in counts_batch]

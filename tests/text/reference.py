"""The historical multi-pass tokenizer, frozen as the parity oracle.

This module preserves, verbatim, the regex pipeline the repo shipped
before the single-pass scanner of :mod:`repro.text.scanner` replaced
it: five compiled regexes (anchors, title, comments, script/style blocks, tags) applied
in sequence over intermediate strings, with an unmemoized Porter stem
per word occurrence.

It exists for two reasons:

* **golden parity** -- ``tests/text/test_golden_parity.py`` proves the
  scanner reproduces this implementation token-for-token on the
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
the parity tests) and carries its own output records, so no
production module depends on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.text.stemmer import PorterStemmer
from repro.text.stopwords import ANCHOR_STOPWORDS, STOPWORDS

__all__ = [
    "Token",
    "HtmlDocument",
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

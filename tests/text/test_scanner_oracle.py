"""The bulk scanner against the per-match oracle, field for field.

:func:`repro.text.scanner.scan_html` matches markup only and resolves
a page's words in bulk; ``scan_html_reference`` (``tests/text/
reference.py``) visits every word as its own match and resolves it on
its own.  On any markup the two must agree on every
:class:`~repro.text.scanner.ScannedPage` field -- ``stem_counts``
iteration order included -- in each ``with_tokens`` / ``with_text``
mode, and leave their interners with identical ``stats()``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.handlers import default_registry
from repro.text.scanner import ScannedPage, TermInterner, scan_html
from repro.web import SyntheticWeb

from tests.conftest import small_web_config
from tests.text.reference import scan_html_reference

MODES = [(True, True), (True, False), (False, True), (False, False)]

FRAGMENTS = [
    # words: leading digits and quotes, inner quotes, stopwords
    "alpha", "Beta", "GAMMA", "12abc", "'quoted'", "o'er", "9'x",
    "don't", "x1y", "''", "a", "the", "click", "here", "42",
    # separators and stray markup characters
    " ", "\n", "\t", ".", ",", "-", "<", ">", "&", ";", "#",
    # known entities: decoding to word and non-word characters
    "&amp;", "&quot;", "&lt;", "&nbsp;", "&#65;", "&#x42;", "&#49;",
    "&#39;", "&apos;", "&eacute;", "&fjlig;", "&#1;", "&#0;",
    "&#x110000;",
    # unknown entities, and entity-like text that is none
    "&bogus;", "&foo12;", "&ampfoo;", "&amp", "&#;",
    # anchors with and without href, nested and unterminated
    '<a href="http://x.example/1">', "<a href='http://y.example/'>",
    "<a href=http://z.example/>", '<a name="n">', '<A HREF="u">',
    '<a href="">', "<a\nhref='q'>", '<a data-href="f">', "</a>", "</A>",
    # titles
    "<title>", "</title>", "<TITLE lang=en>", "</TITLE>",
    # comments, possibly unterminated
    "<!--", "-->", "<!-- hidden words -->",
    # script/style blocks, possibly unterminated
    "<script>", "</script>", "<style x>", "</STYLE>", "<scriptx>",
    "<Script>", "</sCRIPT>",
    # ordinary tags
    "<p>", "</p>", "<br/>", "<b>", "<>",
    # non-ASCII letters, the four IGNORECASE folds among them
    "\u212aelvin", "\u017ftop", "\u0130x", "\u0131y", "caf\u00e9",
    "na\u00efve", "\u65e5\u672c",
]

JUNK = st.text(alphabet="ab1'<>&;#x \u212a\u017f\u00e9", max_size=6)

MARKUP = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), JUNK), max_size=40
).map("".join)


def fields(page: ScannedPage) -> tuple:
    return (
        page.title, page.links, page.anchor_terms,
        list(page.stem_counts.items()), page.tokens, page.text,
    )


def assert_scans_agree(
    pages: list[str], with_tokens: bool, with_text: bool
) -> None:
    """Scan ``pages`` in order through one interner per scanner (the
    later pages probe warm tables) and compare every result."""
    fast, slow = TermInterner(), TermInterner()
    for html in pages:
        scanned = scan_html(
            html, fast, with_tokens=with_tokens, with_text=with_text
        )
        oracle = scan_html_reference(
            html, slow, with_tokens=with_tokens, with_text=with_text
        )
        assert fields(scanned) == fields(oracle), html
    assert fast.stats() == slow.stats()


@settings(max_examples=300, deadline=None)
@given(st.lists(MARKUP, min_size=1, max_size=3))
def test_generated_markup_matches_oracle(pages: list[str]) -> None:
    for with_tokens, with_text in MODES:
        assert_scans_agree(pages, with_tokens, with_text)


def test_every_small_web_page_matches_oracle() -> None:
    web = SyntheticWeb.generate(small_web_config(seed=7))
    registry = default_registry()
    pages = []
    for page in web.pages:
        payload = web.renderer.payload(page)
        converted = None if payload is None else registry.convert(
            payload, mime=None
        )
        if converted is not None:
            pages.append(converted.html)
    assert len(pages) > 100
    for with_tokens, with_text in MODES:
        assert_scans_agree(pages, with_tokens, with_text)

"""Tests for plain-text and HTML tokenization, through the one analyzer
(:mod:`repro.text.scanner`).  Tokens are plain ``(stem, surface,
position)`` tuples."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.text.scanner import scan_html, text_stems, tokenize_text


def test_tokenize_basic_pipeline() -> None:
    stems = text_stems("The quick databases are indexing documents")
    # 'the'/'are' are stopwords; remaining words are stemmed.
    assert "the" not in stems
    assert "are" not in stems
    assert "databas" in stems
    assert "index" in stems
    assert "document" in stems


def test_tokenize_positions_are_sequential() -> None:
    tokens = tokenize_text("alpha beta gamma delta")
    assert [position for _, _, position in tokens] == [0, 1, 2, 3]


def test_tokenize_min_length_filter() -> None:
    tokens = tokenize_text("x yz abc", min_length=3)
    assert [surface for _, surface, _ in tokens] == ["abc"]


def test_tokenize_without_stemming() -> None:
    tokens = tokenize_text("mining patterns", stem=False)
    assert [stem for stem, _, _ in tokens] == ["mining", "patterns"]


def test_html_to_text_strips_tags_scripts_comments() -> None:
    html = (
        "<html><head><title>Data Mining</title>"
        "<script>var x = 'junk';</script>"
        "<style>.c { color: red }</style></head>"
        "<body><!-- hidden -->Visible <b>content</b></body></html>"
    )
    page = scan_html(html, with_tokens=False)
    text, title = page.text, page.title
    assert title == "Data Mining"
    assert "Visible" in text
    assert "content" in text
    assert "junk" not in text
    assert "color" not in text
    assert "hidden" not in text


def test_tokenize_html_extracts_links_in_order() -> None:
    html = (
        '<a href="http://a.example/x">first</a> text '
        "<a href='http://b.example/y'>second</a> "
        '<a href=http://c.example/z>third</a>'
    )
    doc = scan_html(html)
    assert doc.links == [
        "http://a.example/x",
        "http://b.example/y",
        "http://c.example/z",
    ]


def test_tokenize_html_anchor_terms_use_extended_stopwords() -> None:
    html = (
        '<a href="http://x.example/paper">click here</a>'
        '<a href="http://x.example/mining">frequent pattern mining</a>'
    )
    doc = scan_html(html)
    # "click here" is pure navigational boilerplate -> no anchor terms.
    assert "http://x.example/paper" not in doc.anchor_terms
    terms = doc.anchor_terms["http://x.example/mining"]
    assert "mine" in terms
    assert "pattern" in terms


def test_tokenize_html_duplicate_links_preserved() -> None:
    html = '<a href="http://x/">a first</a><a href="http://x/">a second</a>'
    doc = scan_html(html)
    assert doc.links == ["http://x/", "http://x/"]
    assert doc.anchor_terms["http://x/"] == ["first", "second"]


def test_tokenize_html_empty_href_skipped() -> None:
    doc = scan_html('<a href="">nothing</a> plain words')
    assert doc.links == []


def test_anchor_with_nested_markup() -> None:
    doc = scan_html('<a href="http://x/p"><b>database</b> systems</a>')
    assert doc.anchor_terms["http://x/p"] == ["databas", "system"]


@given(st.text(max_size=400))
def test_tokenize_never_crashes(text: str) -> None:
    tokens = tokenize_text(text)
    for stem, surface, _ in tokens:
        assert stem
        assert surface
    assert text_stems(text) == [stem for stem, _, _ in tokens]


@given(st.text(max_size=400))
def test_tokenize_html_never_crashes(html: str) -> None:
    doc = scan_html(html)
    assert isinstance(doc.links, list)

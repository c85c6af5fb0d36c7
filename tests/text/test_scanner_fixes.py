"""The scanner's deliberate divergences from the frozen reference.

The golden corpus (``test_golden_parity.py``) pins byte-for-byte parity
on markup the old five-regex pipeline handled correctly.  This module
pins the places where the single-pass scanner *intentionally* behaves
differently -- each one a bug fix, each asserted against both the new
output and the old (wrong) output so the divergence stays documented:

* known HTML entities decode instead of leaking bogus terms
  (``&amp;`` -> ``amp``, ``&quot;`` -> ``quot``);
* numeric references merge with adjacent word characters
  (``x&#65;y`` is one word ``xAy``, not a leaked ``x42``);
* ``<title>`` inside comments or script/style blocks is not extracted;
* anchors inside comments yield no links;
* unterminated comments and script/style blocks swallow their tail
  instead of leaking it into the body text;
* body words are ASCII-shaped like query words: U+212A KELVIN SIGN and
  U+017F LONG S are not letters (the per-match scanner's
  ``IGNORECASE`` alternation took them for ``k`` and ``s``).
"""

from __future__ import annotations

from collections import Counter

from repro.text.scanner import TermInterner, scan_html, text_stems

from tests.text.reference import scan_html_reference, tokenize_html_reference


def surfaces(doc) -> list[str]:
    """Surface forms of a scanned page (plain tuples) or of a reference
    document (``Token`` records)."""
    return [
        t[1] if isinstance(t, tuple) else t.surface for t in doc.tokens
    ]


class TestEntityDecoding:
    def test_named_entities_leak_no_bogus_terms(self) -> None:
        html = (
            "<html><body>AT&amp;T says &quot;hello world&quot;"
            "</body></html>"
        )
        doc = scan_html(html)
        assert surfaces(doc) == ["says", "hello", "world"]
        assert "amp" not in surfaces(doc)
        assert "quot" not in surfaces(doc)
        # the reference leaked both -- that is the bug being fixed
        old = tokenize_html_reference(html)
        assert "amp" in surfaces(old) and "quot" in surfaces(old)

    def test_accented_entity_keeps_word_prefix(self) -> None:
        doc = scan_html("<p>Caf&eacute; menu</p>")
        assert surfaces(doc) == ["caf", "menu"]
        assert "eacute" not in surfaces(doc)

    def test_numeric_references_merge_into_words(self) -> None:
        doc = scan_html("<p>x&#65;y and A&#x42;C</p>")
        assert surfaces(doc) == ["xay", "abc"]
        assert doc.stems == ["xai", "abc"]
        # old pipeline mangled the decimal form into ``x42``
        assert surfaces(tokenize_html_reference(
            "<p>x&#65;y and A&#x42;C</p>")) == ["x42"]

    def test_unterminated_and_unknown_entities_match_reference(self) -> None:
        """No semicolon / unknown name: both pipelines emit the bare
        name, so parity holds (the fix only covers *known* entities)."""
        for html in ("<p>fish &amp chips</p>",
                     "<p>weird &bogusent; thing</p>"):
            assert surfaces(scan_html(html)) \
                == surfaces(tokenize_html_reference(html))

    def test_title_is_entity_decoded(self) -> None:
        doc = scan_html("<title>Tom &amp; Jerry</title>")
        assert doc.title == "Tom & Jerry"


class TestTitlePlacement:
    def test_title_inside_comment_ignored(self) -> None:
        html = (
            "<!-- <title>ghost</title> -->"
            "<title>Real</title><p>body</p>"
        )
        doc = scan_html(html)
        assert doc.title == "Real"
        # the reference grabbed the commented-out one
        assert tokenize_html_reference(html).title == "ghost"

    def test_title_inside_script_block_ignored(self) -> None:
        html = (
            "<script>var t = '<title>ghost</title>';</script>"
            "<title>Real</title>"
        )
        assert scan_html(html).title == "Real"

    def test_first_completed_title_wins(self) -> None:
        html = "<title>One</title><title>Two</title>"
        doc = scan_html(html)
        assert doc.title == "One"
        assert doc.title == tokenize_html_reference(html).title


class TestCommentAndBlockSwallowing:
    def test_anchor_inside_comment_yields_no_link(self) -> None:
        html = (
            '<!-- <a href="http://ghost.example/">ghost</a> -->'
            "<p>seen</p>"
        )
        doc = scan_html(html)
        assert doc.links == []
        assert doc.anchor_terms == {}
        assert surfaces(doc) == ["seen"]
        # the reference ran link extraction on the RAW html, before
        # comment stripping, so it manufactured a ghost link
        assert tokenize_html_reference(html).links \
            == ["http://ghost.example/"]

    def test_unterminated_comment_swallows_tail(self) -> None:
        html = "visible <!-- hidden tail words"
        doc = scan_html(html)
        assert surfaces(doc) == ["visible"]
        assert "hidden" in surfaces(tokenize_html_reference(html))

    def test_unterminated_style_block_swallows_tail(self) -> None:
        html = "<p>shown</p><style>p{} leaked"
        doc = scan_html(html)
        assert surfaces(doc) == ["shown"]
        assert "leaked" in surfaces(tokenize_html_reference(html))


class TestWordShape:
    def test_body_words_are_shaped_like_query_words(self) -> None:
        text = "\u212aelvin \u017ftop <b>Kelvin</b>"
        doc = scan_html(text)
        assert doc.stem_counts == Counter(text_stems(text))
        assert surfaces(doc) == ["elvin", "top", "kelvin"]
        oracle = scan_html_reference(text, TermInterner())
        assert doc.tokens == oracle.tokens
        assert list(doc.stem_counts.items()) \
            == list(oracle.stem_counts.items())
        assert surfaces(doc) == surfaces(tokenize_html_reference(text))

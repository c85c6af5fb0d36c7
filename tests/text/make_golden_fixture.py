"""Regenerate the golden tokenizer-parity corpus.

Usage::

    PYTHONPATH=src python tests/text/make_golden_fixture.py

Writes ``tests/text/golden_corpus.json``: a corpus of HTML pages with
the full analyzer output (title, text, tokens, links, anchor terms) as
produced by ``tests/text/reference.py`` -- the frozen pre-scanner
implementation.  ``tests/text/test_golden_parity.py`` asserts the
single-pass scanner reproduces every expectation byte for byte.

The corpus deliberately EXCLUDES constructs where the scanner diverges
from the reference on purpose (these are covered by targeted regression
tests instead):

* HTML entities (``&amp;`` ...) -- the scanner decodes them, the
  reference leaks ``amp``/``quot`` as terms;
* ``<title>`` inside comments or script/style blocks -- the reference
  extracts it (bug), the scanner does not;
* anchors inside comments/script blocks, and unterminated comments or
  script blocks -- the reference leaks their content;
* ``<scriptx>``-style tag-name prefixes and ``>`` inside quoted
  attribute values, where the reference's regexes misbracket.

Everything else -- including plenty of malformed markup -- is fair
game and must be bit-identical.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from tests.text.reference import tokenize_html_reference  # noqa: E402

FIXTURE = Path(__file__).parent / "golden_corpus.json"

# -- handcrafted pages -------------------------------------------------

WELL_FORMED = [
    # plain page with title, headings, paragraph text
    "<html><head><title>Frequent Itemset Mining</title></head>"
    "<body><h1>Association Rules</h1><p>Mining frequent itemsets over "
    "transactional databases is a classic data mining problem. The "
    "apriori algorithm prunes candidate itemsets aggressively.</p>"
    "</body></html>",
    # title with attributes on the tag
    '<html><head><title id="t" lang="en">Portal Generation</title></head>'
    "<body><p>Generating information portals requires focused crawling "
    "and document classification with support vector machines.</p></body>",
    # links: double-quoted, single-quoted, unquoted hrefs
    '<body><a href="http://a.example/x">support vector machines</a> and '
    "<a href='http://b.example/y'>focused crawler design</a> plus "
    "<a href=http://c.example/z>hyperlink induced topic search</a></body>",
    # duplicate links accumulate anchor terms under one key
    '<p><a href="http://dup.example/">database systems</a> middle text '
    '<a href="http://dup.example/">transaction processing</a></p>',
    # anchor whose text is pure navigational boilerplate (no terms kept)
    '<p><a href="http://nav.example/next">click here</a> for the '
    '<a href="http://nav.example/paper">conference paper archive</a></p>',
    # empty href is skipped entirely
    '<p><a href="">orphaned anchor text</a> trailing words</p>',
    # anchor with nested markup in its text
    '<div><a href="http://x/p"><b>relational</b> <i>query</i> '
    "optimization</a></div>",
    # anchor element without an href attribute
    '<p><a name="s2">section heading anchor</a> ordinary prose</p>',
    # a name= anchor followed by a real href anchor
    '<p><a name="top">jump target</a> then '
    '<a href="http://real.example/">expert web search</a></p>',
    # comments, scripts and styles interleaved with visible text
    "<html><head><title>Hidden Machinery</title>"
    "<script type='text/javascript'>var crawler = 'invisible';</script>"
    "<style>.focus { border: 1px }</style></head><body>"
    "<!-- navigation boilerplate -->Visible crawler "
    "<b>frontier</b> management<!-- trailing note --></body></html>",
    # multi-line script with angle-bracket-free code
    "<body><script>\nfor (i = 0; i < 10; i++) { queue.push(i); }\n"
    "</script>Breadth first ordering beats depth first here.</body>",
    # uppercase tags and mixed-case title
    "<HTML><HEAD><TITLE>Case Insensitive Markup</TITLE></HEAD>"
    "<BODY><P>UPPERCASE tags are still MARKUP.</P></BODY></HTML>",
    # apostrophe words: leading/trailing quotes stripped, inner kept
    "<p>the crawler's frontier isn't 'empty' and won't o'erflow</p>",
    # min-length boundary: single letters dropped, digits inside words kept
    "<p>a b2b x y12 i18n l10n c world wide web consortium</p>",
    # stopword-heavy sentence collapses to few tokens
    "<p>it is the and of to in that was he for on are as with his</p>",
    # numbers never start words; embedded digits survive
    "<p>3 blind mice saw 42 documents in b00m format from mpeg7 layers</p>",
    # whitespace and newline soup between words
    "<p>\n\n  sparse \t vector \r\n normalisation  \n cache </p>",
    # heading hierarchy and lists
    "<h1>Crawler Architecture</h1><h2>Frontier</h2><ul><li>priority "
    "queues</li><li>politeness budget</li></ul><h2>Parser</h2>"
    "<ol><li>tag soup tolerance</li></ol>",
    # long repeated vocabulary (exercises the stem memo hit path)
    "<p>" + " ".join(
        ["classification classifier classifying classified"] * 12
    ) + "</p>",
    # title with inner markup: reference keeps the raw span
    "<head><title>Deep <b>Web</b> Portals</title></head>"
    "<body>surfacing hidden databases</body>",
    # empty body, title only
    "<html><head><title>Just A Title</title></head><body></body></html>",
    # totally empty page and whitespace page
    "",
    "   \n\t  ",
    # no markup at all: plain text passes through
    "focused crawling with hierarchical taxonomies and training data",
]

MALFORMED = [
    # unclosed tag at EOF: '<a href=x' never becomes a tag; words leak
    "<p>visible words then <a href=http://tail.example/unclosed",
    # unclosed anchor: no </a> so no link in either implementation
    '<p><a href="http://never.example/">anchor text that never closes '
    "and body continues with ranking signals</p>",
    # stray angle brackets around plain text
    "<p>comparison a < b and b > c holds</p>",
    # lone '<' at end of document
    "<p>trailing less than <",
    # lone '>' floating in text
    "<p>greater > than floats freely</p>",
    # tag spanning multiple lines
    '<p><a\nhref="http://multi.example/line"\nclass="x">newline '
    "separated attributes</a></p>",
    # nested anchors: reference regex closes at the first </a>
    '<p><a href="http://outer.example/"><a href="http://inner.example/">'
    "nested anchor text</a> outer tail</a></p>",
    # anchor with href appearing after other attributes
    '<p><a class="ext" rel="nofollow" href="http://attr.example/q">'
    "attribute ordering</a></p>",
    # href with surrounding whitespace inside the quotes
    '<p><a href="  http://pad.example/  ">padded target</a></p>',
    # unquoted href terminated by '>' directly
    "<p><a href=http://bare.example/page>bare href termination</a></p>",
    # empty anchor text
    '<p><a href="http://silent.example/"></a> after silent anchor</p>',
    # anchor text that is only markup
    '<p><a href="http://markup.example/"><img src="x.png"></a> tail</p>',
    # self-closing-ish tags and void elements
    '<p>line one<br/>line two<hr>line three<img src="y.png"/></p>',
    # doctype and processing-instruction-ish prologue
    "<!DOCTYPE html><?xml version='1.0'?><html><body>prologue "
    "tolerance</body></html>",
    # comment between words (stripped to a separator in both)
    "<p>alpha<!-- hidden words inside -->beta gamma</p>",
    # NOTE: anchors *inside* comments are deliberately excluded -- the
    # reference extracts them (it scans raw HTML for anchors before
    # stripping comments), the scanner does not.  See
    # tests/text/test_scanner_fixes.py for the divergence tests.
    # script containing a comment marker
    "<body><script>// <!-- not a real comment\nx()</script>real "
    "content</body>",
    # style block with braces and selectors
    "<style>a:hover { color: blue; } .nav > li { float: left }</style>"
    "<p>styled page content</p>",
    # two titles: first one wins in both implementations
    "<title>First Title</title><title>Second Title</title><p>body</p>",
    # unclosed title: no title extracted by either
    "<head><title>Never Closed<body>words after broken head",
    # attribute named data-href must not register as a link
    '<p><a data-href="http://fake.example/">no real href here</a></p>',
    # tag with slash soup
    "<p></////><b>resilient</b> parsing</p>",
    # words glued to tags without whitespace
    "<p>alpha<b>beta</b>gamma<i>delta</i>epsilon</p>",
    # CRLF line endings everywhere
    "<p>carriage\r\nreturn\r\nseparated\r\nwords</p>\r\n",
    # very long single word
    "<p>" + "supercalifragilistic" * 5 + " short tail</p>",
]


def _rendered_pages(count: int = 12) -> list[str]:
    """Deterministic pages from the synthetic web, post content-handler.

    Skips any page whose HTML contains constructs the scanner treats
    differently on purpose (entities, titles inside comments).
    """
    from repro.text.handlers import default_registry
    from repro.web import SyntheticWeb
    from tests.conftest import small_web_config

    web = SyntheticWeb.generate(small_web_config(seed=7))
    registry = default_registry()
    picked: list[str] = []
    for page in web.pages:
        payload = web.renderer.payload(page)
        converted = registry.convert(payload, mime=None)
        if converted is None:
            continue
        html = converted.html
        if "&" in html:
            continue
        if re.search(r"<!--.*?<title", html, re.DOTALL | re.IGNORECASE):
            continue
        picked.append(html)
        if len(picked) >= count:
            break
    return picked


def build_corpus() -> list[dict]:
    pages: list[tuple[str, str]] = []
    for i, html in enumerate(WELL_FORMED):
        pages.append((f"well_formed_{i:02d}", html))
    for i, html in enumerate(MALFORMED):
        pages.append((f"malformed_{i:02d}", html))
    for i, html in enumerate(_rendered_pages()):
        pages.append((f"rendered_{i:02d}", html))

    corpus = []
    for page_id, html in pages:
        doc = tokenize_html_reference(html)
        corpus.append({
            "id": page_id,
            "html": html,
            "title": doc.title,
            "text": doc.text,
            "tokens": [
                [t.stem, t.surface, t.position] for t in doc.tokens
            ],
            "links": doc.links,
            "anchor_terms": doc.anchor_terms,
        })
    return corpus


def main() -> None:
    corpus = build_corpus()
    FIXTURE.write_text(
        json.dumps(corpus, indent=1, sort_keys=True) + "\n"
    )
    n_tokens = sum(len(p["tokens"]) for p in corpus)
    print(f"wrote {FIXTURE}: {len(corpus)} pages, {n_tokens} tokens")


if __name__ == "__main__":
    main()

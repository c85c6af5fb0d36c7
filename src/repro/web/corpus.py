"""Deterministic page rendering: PageSpec -> HTML.

Content is *not* stored with the graph; it is synthesised on each fetch
from a per-page random stream seeded by ``(web_seed, page_id,
revision)``.  Two fetches of the same page at the same revision
therefore return byte-identical HTML, while a hundred-thousand-page Web
costs only metadata until crawled.  The living portal's web evolution
(:mod:`repro.portal.evolution`) bumps ``PageSpec.revision`` to mutate a
page's content deterministically.

The renderer also produces anchor texts for outgoing links: mostly a few
words from the *target* page's topic vocabulary (anchor texts describe
the target, paper section 3.4), with a configurable share of pure
navigational boilerplate ("click here") that the extended anchor
stopword list must remove.
"""

from __future__ import annotations

import numpy as np

from repro.web.model import MimeType, PageRole, PageSpec
from repro.web.vocab import TopicUniverse

__all__ = ["PageRenderer", "BOILERPLATE_ANCHORS"]

BOILERPLATE_ANCHORS = (
    "click here",
    "more info",
    "home page",
    "next page",
    "read more",
    "download here",
    "full text",
)
BOILERPLATE_ANCHOR_RATE = 0.35
"""Share of links to topical pages that still carry a boilerplate anchor."""

#: role-specific share of body tokens drawn from the topic vocabulary,
#: applied when the PageSpec does not override it.
ROLE_SPECIFICITY = {
    PageRole.HOMEPAGE: 0.30,
    PageRole.PUBLICATIONS: 0.40,
    PageRole.PAPER: 0.60,
    PageRole.SLIDES: 0.55,
    PageRole.CV: 0.20,
    PageRole.WELCOME: 0.04,
    PageRole.HUB: 0.25,
    PageRole.BACKGROUND: 0.0,
    PageRole.DIRECTORY: 0.0,
    PageRole.REGISTRY: 0.10,
    PageRole.SEARCH: 0.0,
    PageRole.NEEDLE: 0.55,
    PageRole.TRAP: 0.0,
    PageRole.MEDIA: 0.0,
}


class PageRenderer:
    """Renders page content and anchor texts deterministically."""

    def __init__(
        self,
        universe: TopicUniverse,
        pages: list[PageSpec],
        seed: int,
        stale_link_rate: float = 0.15,
    ) -> None:
        self.universe = universe
        self.pages = pages
        self.seed = seed
        self.stale_link_rate = stale_link_rate

    def _rng(self, page_id: int, revision: int = 0) -> np.random.Generator:
        # revision 0 must seed exactly as the pre-evolution formula did,
        # so a never-evolved web renders byte-identically
        state = (self.seed << 20) ^ (page_id * 2654435761)
        if revision:
            state ^= revision * 0x9E3779B97F4A7C15
        return np.random.default_rng(state)

    def body_terms(self, page: PageSpec) -> list[str]:
        """The page's body token sequence (pre-markup)."""
        rng = self._rng(page.page_id, page.revision)
        primary_length = page.length
        secondary: list[str] = []
        if page.secondary_topic is not None and page.secondary_share > 0:
            n_secondary = int(round(page.length * page.secondary_share))
            primary_length = page.length - n_secondary
            secondary = self.universe.sample_terms(
                rng, n_secondary, page.secondary_topic, page.specificity
            )
        primary = self.universe.sample_terms(
            rng, primary_length, page.topic, page.specificity
        )
        if not secondary:
            return primary
        merged = primary + secondary
        order = rng.permutation(len(merged))
        return [merged[i] for i in order]

    def title_terms(self, page: PageSpec) -> list[str]:
        rng = self._rng(page.page_id + 1_000_003, page.revision)
        count = int(rng.integers(3, 7))
        spec = min(page.specificity + 0.2, 1.0) if page.topic else 0.0
        return self.universe.sample_terms(rng, count, page.topic, spec)

    def anchor_text(self, source: PageSpec, target: PageSpec) -> str:
        """Anchor text the source page uses for a link to the target."""
        rng = self._rng(source.page_id * 31 + target.page_id)
        if rng.random() < BOILERPLATE_ANCHOR_RATE or target.topic is None:
            return BOILERPLATE_ANCHORS[int(rng.integers(len(BOILERPLATE_ANCHORS)))]
        words = self.universe.sample_terms(
            rng, int(rng.integers(1, 4)), target.topic, 0.8
        )
        return " ".join(words)

    def render(self, page: PageSpec) -> str:
        """Produce the page's full HTML (byte-identical across calls)."""
        title = " ".join(self.title_terms(page))
        body = self.body_terms(page)
        anchors = []
        link_rng = self._rng(page.page_id + 55_000_007, page.revision)
        for target_id in page.out_links:
            target = self.pages[target_id]
            text = self.anchor_text(page, target)
            href = target.url
            # Stale bookmarks: some links point at alias/copy URLs, which
            # exercises the crawler's duplicate-detection stages.
            alternates = target.aliases + target.copy_urls
            if alternates and link_rng.random() < self.stale_link_rate:
                href = alternates[int(link_rng.integers(len(alternates)))]
            anchors.append(f'<a href="{href}">{text}</a>')
        # Interleave anchors through the body at deterministic positions.
        rng = self._rng(page.page_id + 77_000_001, page.revision)
        chunks: list[str] = []
        if anchors:
            cut_points = sorted(
                int(rng.integers(0, len(body) + 1)) for _ in anchors
            )
            previous = 0
            for anchor, cut in zip(anchors, cut_points):
                chunks.append(" ".join(body[previous:cut]))
                chunks.append(anchor)
                previous = cut
            chunks.append(" ".join(body[previous:]))
        else:
            chunks.append(" ".join(body))
        content = "\n".join(chunks)
        return (
            f"<html><head><title>{title}</title></head>\n"
            f"<body>\n{content}\n</body></html>"
        )

    # -- non-HTML formats (handled by repro.text.handlers) -----------------

    def _link_lines(self, page: PageSpec) -> list[str]:
        """Links encoded as ``[[url|anchor]]`` markers for text formats."""
        lines = []
        for target_id in page.out_links:
            target = self.pages[target_id]
            text = self.anchor_text(page, target)
            lines.append(f"[[{target.url}|{text}]]")
        return lines

    def _render_pdf(self, page: PageSpec) -> str:
        title = " ".join(self.title_terms(page))
        body = self.body_terms(page)
        # split the body into form-feed-delimited "pages" of ~120 tokens
        chunks = [
            " ".join(body[i : i + 120]) for i in range(0, len(body), 120)
        ]
        chunks.extend(self._link_lines(page))
        return "%SIM-PDF-1.4\n" + f"T:{title}\n" + "\f".join(chunks)

    def _render_word(self, page: PageSpec) -> str:
        body = " ".join(self.body_terms(page))
        links = " ".join(self._link_lines(page))
        return (
            "{\\simrtf1 \\pard "
            + body
            + (" \\par " + links if links else "")
            + "}"
        )

    def _render_powerpoint(self, page: PageSpec) -> str:
        title = " ".join(self.title_terms(page))
        body = self.body_terms(page)
        slides = [title]
        for i in range(0, len(body), 40):
            bullet_words = body[i : i + 40]
            bullets = [
                "- " + " ".join(bullet_words[j : j + 8])
                for j in range(0, len(bullet_words), 8)
            ]
            slides.append(f"slide {i // 40 + 1}\n" + "\n".join(bullets))
        slides.append("links\n" + "\n".join(self._link_lines(page)))
        return "SIM-PPT\n" + "\f".join(slides)

    def _render_archive(self, page: PageSpec) -> str:
        """An archive with an HTML member and a PDF member."""
        html_member = self.render(page)
        pdf_member = self._render_pdf(page)
        return (
            "SIM-ARCHIVE\n"
            + f"--- member: {page.url.rsplit('/', 1)[-1]}.html\n"
            + html_member
            + "\n"
            + f"--- member: {page.url.rsplit('/', 1)[-1]}.pdf\n"
            + pdf_member
        )

    def payload(self, page: PageSpec) -> str | None:
        """The raw bytes the server returns, per format.

        HTML pages return markup directly; PDF/Word/PowerPoint/archive
        pages return their simulated native format, which the document
        analyzer's content handlers (paper section 2.2,
        ``repro.text.handlers``) convert back to HTML.  Media types have
        no text payload.
        """
        if page.mime == MimeType.HTML:
            return self.render(page)
        if page.mime == MimeType.PDF:
            return self._render_pdf(page)
        if page.mime == MimeType.WORD:
            return self._render_word(page)
        if page.mime == MimeType.POWERPOINT:
            return self._render_powerpoint(page)
        if page.mime in (MimeType.ZIP, MimeType.GZIP):
            return self._render_archive(page)
        return None

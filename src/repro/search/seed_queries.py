"""A stand-in for the external search engine used to pick seeds.

For the expert-search experiment (paper section 5.3) the authors issued
Google queries ("aries recovery method") and hand-picked 7 reasonable
documents from the top 10 as crawl seeds (Figure 4).  This module
reproduces that step against the synthetic Web: a plain keyword engine
over page contents -- with *no* focused-crawling smarts -- whose top-k
results are then filtered by a simulated "human inspection" predicate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.text.features import analyze_page
from repro.text.scanner import text_stems
from repro.text.vectorizer import TfIdfVectorizer, cosine_similarity
from repro.web.model import PageRole, PageSpec

__all__ = ["SeedHit", "ExternalSearchEngine"]

#: roles a careful human would accept as crawl seeds (papers, slides,
#: resource hubs, publication lists -- not ads, traps or media files)
REASONABLE_SEED_ROLES = frozenset(
    {
        PageRole.PAPER, PageRole.SLIDES, PageRole.HUB,
        PageRole.PUBLICATIONS, PageRole.HOMEPAGE,
    }
)


@dataclass(frozen=True)
class SeedHit:
    """One external-search result."""

    page: PageSpec
    score: float

    @property
    def url(self) -> str:
        return self.page.url


class ExternalSearchEngine:
    """tf*idf keyword search over the whole synthetic Web.

    Indexes every textual page once (lazily, on first query).  This is
    deliberately an *unfocused* ranking: it has global reach but no topic
    model, mirroring the role Google plays in the paper's workflow.
    """

    def __init__(self, web) -> None:
        self.web = web
        self._vectorizer: TfIdfVectorizer | None = None
        self._vectors: list | None = None
        self._pages: list[PageSpec] | None = None

    def _build_index(self) -> None:
        from repro.text.handlers import default_registry

        handlers = default_registry()
        vectorizer = TfIdfVectorizer()
        pages: list[PageSpec] = []
        counts: list[Counter] = []
        for page in self.web.pages:
            payload = self.web.renderer.payload(page)
            if payload is None:
                continue
            converted = handlers.convert(payload, page.mime)
            if converted is None:
                continue
            term_counts = analyze_page(converted.html)[0]["term"]
            vectorizer.ingest(term_counts.keys())
            pages.append(page)
            counts.append(term_counts)
        vectorizer.refresh()
        self._vectorizer = vectorizer
        self._pages = pages
        self._vectors = [vectorizer.vectorize_counts(c) for c in counts]

    def query(self, text: str, top_k: int = 10) -> list[SeedHit]:
        """The unfocused top-k for a keyword query."""
        if self._vectorizer is None:
            self._build_index()
        assert self._vectorizer and self._pages is not None
        query_vector = self._vectorizer.vectorize(text_stems(text))
        scored = [
            SeedHit(page=page, score=cosine_similarity(query_vector, vector))
            for page, vector in zip(self._pages, self._vectors)
        ]
        scored.sort(key=lambda hit: (-hit.score, hit.page.page_id))
        return scored[:top_k]

    def select_seeds(
        self, text: str, top_k: int = 10, max_seeds: int = 7
    ) -> list[SeedHit]:
        """The paper's human-inspection step, simulated.

        From the top ``top_k`` results keep up to ``max_seeds`` whose
        page role a careful user would accept as a starting point.
        """
        hits = self.query(text, top_k=top_k)
        reasonable = [
            hit for hit in hits if hit.page.role in REASONABLE_SEED_ROLES
        ]
        return reasonable[:max_seeds]

"""Tests for the external search engine that picks expert-query seeds."""

from __future__ import annotations

import pytest

from repro.search.seed_queries import ExternalSearchEngine
from repro.web import PageRole, SyntheticWeb


class TestExternalSearchEngine:
    @pytest.fixture(scope="class")
    def web(self) -> SyntheticWeb:
        return SyntheticWeb.generate_expert(seed=5)

    def test_query_finds_topical_pages(self, web) -> None:
        engine = ExternalSearchEngine(web)
        hits = engine.query("aries recovery", top_k=10)
        assert len(hits) == 10
        on_topic = sum(hit.page.topic == "aries" for hit in hits)
        assert on_topic >= 5

    def test_select_seeds_filters_roles(self, web) -> None:
        engine = ExternalSearchEngine(web)
        seeds = engine.select_seeds("aries recovery algorithm", max_seeds=7)
        assert 1 <= len(seeds) <= 7
        for hit in seeds:
            assert hit.page.role in {
                PageRole.PAPER, PageRole.SLIDES, PageRole.HUB,
                PageRole.PUBLICATIONS, PageRole.HOMEPAGE,
            }

    def test_unfocused_top10_misses_needles(self, web) -> None:
        """The paper's starting point: a direct keyword query does not
        surface the needles in its top ranks."""
        engine = ExternalSearchEngine(web)
        hits = engine.query("aries recovery", top_k=10)
        needle_urls = web.needle_urls()
        assert sum(hit.url in needle_urls for hit in hits) <= 2


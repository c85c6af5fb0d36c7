"""Tests for the HTTP server model and the deterministic renderer."""

from __future__ import annotations

import pytest

from repro.text.scanner import scan_html
from repro.web import (
    FetchStatus,
    MimeType,
    PageRole,
    SyntheticWeb,
    WebGraphConfig,
)


@pytest.fixture(scope="module")
def web() -> SyntheticWeb:
    return SyntheticWeb.generate(
        WebGraphConfig(
            seed=21,
            target_researchers=40,
            other_researchers=10,
            universities=10,
            hubs_per_topic=3,
            background_hosts_per_category=4,
            pages_per_background_host=3,
            directory_pages_per_category=3,
            slow_host_rate=0.0,
            error_host_rate=0.0,
        )
    )


class TestRenderer:
    def test_render_is_deterministic(self, web: SyntheticWeb) -> None:
        page = web.pages[0]
        assert web.renderer.render(page) == web.renderer.render(page)

    def test_rendered_links_resolve_to_out_links(self, web) -> None:
        page = next(p for p in web.pages if p.out_links)
        html = web.renderer.render(page)
        doc = scan_html(html)
        target_ids = set()
        for href in doc.links:
            entry = web.url_map.get(href)
            assert entry is not None, f"dangling href {href}"
            target_ids.add(entry[0])
        assert target_ids == set(page.out_links)

    def test_topic_pages_contain_signature_terms(self, web) -> None:
        paper = next(
            p for p in web.pages
            if p.role == PageRole.PAPER and p.topic == "databases"
        )
        terms = web.renderer.body_terms(paper)
        signature = set(web.universe.spec("databases").signature)
        assert signature & set(terms)

    def test_media_pages_have_no_payload(self, web) -> None:
        media = web.pages_by_role(PageRole.MEDIA)[0]
        assert web.renderer.payload(media) is None

    def test_pdf_pages_serve_native_payload(self, web) -> None:
        """PDF pages serve the simulated native format; the analyzer's
        content handlers convert it to HTML (paper 2.2)."""
        from repro.text.handlers import default_registry

        pdf = next(p for p in web.pages if p.mime == MimeType.PDF)
        payload = web.renderer.payload(pdf)
        assert payload is not None
        assert payload.startswith("%SIM-PDF")
        converted = default_registry().convert(payload, MimeType.PDF)
        assert converted is not None
        assert converted.html.startswith("<html>")


class TestServer:
    def test_ok_fetch(self, web: SyntheticWeb) -> None:
        url = web.seed_homepages(1)[0]
        result = web.server.fetch(url)
        assert result.ok
        assert result.final_url == url
        assert result.mime == MimeType.HTML
        assert result.html
        assert result.latency > 0
        assert result.page_id == web.url_map[url][0]

    def test_unknown_host(self, web: SyntheticWeb) -> None:
        result = web.server.fetch("http://unknown.example.zz/x")
        assert result.status == FetchStatus.NOT_FOUND

    def test_missing_page_on_known_host(self, web: SyntheticWeb) -> None:
        url = web.seed_homepages(1)[0].rsplit("/", 1)[0] + "/missing.html"
        result = web.server.fetch(url)
        assert result.status == FetchStatus.NOT_FOUND
        assert result.ip is not None

    def test_locked_host_refused(self, web: SyntheticWeb) -> None:
        result = web.server.fetch("http://dblp.example.org/index.html")
        assert result.status == FetchStatus.LOCKED

    def test_alias_redirects_to_canonical(self, web: SyntheticWeb) -> None:
        page = next(p for p in web.pages if p.aliases)
        result = web.server.fetch(page.aliases[0])
        assert result.ok
        assert result.final_url == page.url
        assert result.redirect_chain == [page.aliases[0]]
        assert result.page_id == page.page_id

    def test_copy_serves_same_bytes_same_size(self, web: SyntheticWeb) -> None:
        page = next(p for p in web.pages if p.copy_urls)
        canonical = web.server.fetch(page.url)
        copy = web.server.fetch(page.copy_urls[0])
        assert copy.ok
        assert copy.redirect_chain == []  # copies do not redirect
        assert copy.size == canonical.size
        assert copy.ip == canonical.ip
        assert copy.html == canonical.html
        assert copy.final_url == page.copy_urls[0]

    def test_fetch_is_repeatable(self, web: SyntheticWeb) -> None:
        url = web.seed_homepages(1)[0]
        a = web.server.fetch(url)
        b = web.server.fetch(url)
        assert a.html == b.html
        assert a.size == b.size

    def test_timeouts_eventually_succeed_on_retry(self) -> None:
        """A host with 50% timeout rate succeeds within a few attempts."""
        web = SyntheticWeb.generate(
            WebGraphConfig(
                seed=3, target_researchers=10, other_researchers=3,
                universities=3, hubs_per_topic=1,
                background_hosts_per_category=1, pages_per_background_host=1,
                directory_pages_per_category=1,
                slow_host_rate=0.0, error_host_rate=0.0,
            )
        )
        host = next(iter(web.hosts.values()))
        host.timeout_rate = 0.5
        url = next(p.url for p in web.pages if p.host == host.name)
        statuses = {web.server.fetch(url).status for _ in range(12)}
        assert FetchStatus.OK in statuses
        assert FetchStatus.TIMEOUT in statuses

    def test_error_host_returns_http_error(self) -> None:
        web = SyntheticWeb.generate(
            WebGraphConfig(
                seed=4, target_researchers=10, other_researchers=3,
                universities=3, hubs_per_topic=1,
                background_hosts_per_category=1, pages_per_background_host=1,
                directory_pages_per_category=1,
                slow_host_rate=0.0, error_host_rate=0.0,
            )
        )
        host = next(iter(web.hosts.values()))
        host.error_rate = 1.0
        url = next(p.url for p in web.pages if p.host == host.name)
        assert web.server.fetch(url).status == FetchStatus.HTTP_ERROR

"""Tests for content handlers (paper section 2.2)."""

from __future__ import annotations

import pytest

from repro.text.handlers import (
    ArchiveHandler,
    ConversionResult,
    HandlerRegistry,
    HtmlHandler,
    PdfHandler,
    PowerPointHandler,
    WordHandler,
    default_registry,
)
from repro.text.scanner import scan_html
from repro.web.model import MimeType


PDF = "%SIM-PDF-1.4\nT:query optimization\nrelational database text\fmore page text [[http://x.example/p|cited paper]]"
WORD = "{\\simrtf1 \\pard database systems draft [[http://y.example/|home]]}"
PPT = "SIM-PPT\ntalk title\fslide 1\n- indexing structures\n- join processing\flinks\n[[http://z.example/|slides source]]"
ARCHIVE = (
    "SIM-ARCHIVE\n"
    "--- member: readme.html\n<html><head><title>t</title></head><body>member one text</body></html>\n"
    "--- member: paper.pdf\n%SIM-PDF-1.4\nT:inner\nmember two text"
)


class TestIndividualHandlers:
    def test_html_pass_through(self) -> None:
        html = "<html><body>hello</body></html>"
        handler = HtmlHandler()
        assert handler.sniff(html)
        assert handler.convert(html) == html

    def test_pdf_conversion(self) -> None:
        handler = PdfHandler()
        assert handler.sniff(PDF)
        html = handler.convert(PDF)
        doc = scan_html(html)
        assert doc.title == "query optimization"
        assert "databas" in doc.stems
        assert doc.links == ["http://x.example/p"]

    def test_word_conversion(self) -> None:
        handler = WordHandler()
        assert handler.sniff(WORD)
        html = handler.convert(WORD)
        doc = scan_html(html)
        stems = doc.stems
        assert "databas" in stems
        assert "pard" not in stems  # control words stripped
        assert doc.links == ["http://y.example/"]

    def test_powerpoint_conversion(self) -> None:
        handler = PowerPointHandler()
        assert handler.sniff(PPT)
        html = handler.convert(PPT)
        doc = scan_html(html)
        stems = doc.stems
        assert "index" in stems
        assert "join" in stems
        assert doc.links == ["http://z.example/"]

    def test_archive_unpacks_members(self) -> None:
        handler = ArchiveHandler(registry=default_registry())
        assert handler.sniff(ARCHIVE)
        html = handler.convert(ARCHIVE)
        assert "member one text" in html
        assert "member two text" in html

    def test_wrong_payload_rejected(self) -> None:
        with pytest.raises(ValueError):
            PdfHandler().convert("not a pdf")
        with pytest.raises(ValueError):
            WordHandler().convert("plain")
        with pytest.raises(ValueError):
            PowerPointHandler().convert("nope")
        with pytest.raises(ValueError):
            ArchiveHandler().convert("zzz")


class TestRegistry:
    def test_dispatch_by_mime(self) -> None:
        registry = HandlerRegistry()
        result = registry.convert(PDF, MimeType.PDF)
        assert isinstance(result, ConversionResult)
        assert result.source_format == "pdf"

    def test_sniff_fallback_when_mime_lies(self) -> None:
        registry = HandlerRegistry()
        # server claims HTML but serves a PDF payload
        result = registry.convert(PDF, MimeType.HTML)
        assert result is not None
        assert result.source_format == "pdf"

    def test_unknown_payload_returns_none(self) -> None:
        registry = HandlerRegistry()
        assert registry.convert("BINARYJUNK\x00\x01", MimeType.VIDEO) is None

    def test_default_registry_is_shared(self) -> None:
        assert default_registry() is default_registry()


class TestEndToEndWithRenderer:
    @pytest.fixture(scope="class")
    def web(self):
        from repro.web import SyntheticWeb, WebGraphConfig

        return SyntheticWeb.generate(
            WebGraphConfig(
                seed=31, target_researchers=40, other_researchers=10,
                universities=8, hubs_per_topic=2,
                background_hosts_per_category=2, pages_per_background_host=2,
                directory_pages_per_category=2,
            )
        )

    @pytest.mark.parametrize(
        "mime",
        [MimeType.PDF, MimeType.WORD, MimeType.POWERPOINT, MimeType.ZIP],
    )
    def test_every_rendered_format_round_trips(self, web, mime) -> None:
        pages = [p for p in web.pages if p.mime == mime]
        if not pages:
            pytest.skip(f"no {mime} pages in this web")
        page = pages[0]
        payload = web.renderer.payload(page)
        assert payload is not None
        result = default_registry().convert(payload, mime)
        assert result is not None
        doc = scan_html(result.html)
        assert len(doc.tokens) > 20
        # out-links survive the format conversion
        targets = {web.pages[t].url for t in page.out_links}
        if targets:
            assert targets <= set(doc.links) | targets  # sanity
            assert set(doc.links) & targets or not page.out_links

    def test_pdf_links_fully_preserved(self, web) -> None:
        page = next(
            p for p in web.pages
            if p.mime == MimeType.PDF and p.out_links
        )
        payload = web.renderer.payload(page)
        result = default_registry().convert(payload, MimeType.PDF)
        doc = scan_html(result.html)
        expected = {web.pages[t].url for t in page.out_links}
        # every canonical target is reachable via some rendered href
        # (hrefs may point at alias/copy URLs of the same page)
        resolved = set()
        for href in doc.links:
            entry = web.url_map.get(href)
            if entry is not None:
                resolved.add(web.pages[entry[0]].url)
        assert expected <= resolved

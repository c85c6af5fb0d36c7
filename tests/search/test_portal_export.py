"""Tests for static portal generation."""

from __future__ import annotations

from repro.core.ontology import TopicTree
from repro.search.portal_export import PortalExporter

from tests.search.conftest import make_doc


def exporter() -> PortalExporter:
    tree = TopicTree.from_leaves(["databases", "ir"])
    docs = [
        make_doc(0, {"recoveri": 3}, topic="ROOT/databases", confidence=0.9),
        make_doc(1, {"queri": 3}, topic="ROOT/databases", confidence=0.4),
        make_doc(2, {"rank": 2}, topic="ROOT/ir", confidence=0.6),
        make_doc(3, {"sport": 2}, topic="ROOT/OTHERS", confidence=0.1),
    ]
    return PortalExporter(tree, docs)


class TestRender:
    def test_index_plus_one_page_per_leaf(self) -> None:
        pages = exporter().render()
        filenames = [page.filename for page in pages]
        assert filenames[0] == "index.html"
        assert "topic_databases.html" in filenames
        assert "topic_ir.html" in filenames
        assert len(pages) == 3

    def test_index_links_topics_with_counts(self) -> None:
        index = exporter().render()[0]
        assert 'href="topic_databases.html"' in index.html
        assert "(2 documents)" in index.html
        assert "(1 documents)" in index.html

    def test_topic_page_ranked_by_confidence(self) -> None:
        pages = exporter().render()
        databases = next(
            p for p in pages if p.filename == "topic_databases.html"
        )
        first = databases.html.find("site0.example")
        second = databases.html.find("site1.example")
        assert 0 < first < second  # doc 0 (0.9) before doc 1 (0.4)

    def test_others_documents_excluded(self) -> None:
        pages = exporter().render()
        combined = "".join(page.html for page in pages)
        assert "site3.example" not in combined

    def test_html_escaping(self) -> None:
        from tests.search.conftest import make_doc as md

        doc = md(9, {"x": 1}, topic="ROOT/databases")
        object.__setattr__  # noqa: B018 - documents are plain dataclasses
        doc.title = "<script>alert(1)</script>"
        tree = TopicTree.from_leaves(["databases"])
        page = PortalExporter(tree, [doc]).render()[1]
        assert "<script>alert" not in page.html
        assert "&lt;script&gt;" in page.html


class TestExport:
    def test_writes_files(self, tmp_path) -> None:
        paths = exporter().export(tmp_path / "portal")
        assert len(paths) == 3
        for path in paths:
            assert path.exists()
            assert path.read_text().startswith("<html>")

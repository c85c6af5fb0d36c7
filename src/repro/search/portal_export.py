"""Static portal generation from crawl results.

BINGO!'s first use case is "a largely automated information portal
generator" (paper 1.2).  This module renders the crawl result as a
Yahoo-style static portal: one index page listing the topic tree, one
page per topic with its documents ranked by classification confidence.
Output is plain HTML written to a directory, so a downstream user can
serve it as-is.
"""

from __future__ import annotations

import html
import pathlib
from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.records import CrawledDocument
from repro.core.ontology import TopicTree

__all__ = ["PortalPage", "PortalExporter"]

MAX_DOCUMENTS_PER_TOPIC = 100


@dataclass(frozen=True)
class PortalPage:
    """One generated portal page."""

    filename: str
    title: str
    html: str


def _slug(topic: str) -> str:
    return topic.replace("ROOT/", "").replace("/", "_") or "root"


def _escape(text: str) -> str:
    return html.escape(text, quote=True)


class PortalExporter:
    """Renders a topic tree + classified documents into static HTML."""

    def __init__(
        self,
        tree: TopicTree,
        documents: Sequence[CrawledDocument],
        title: str = "BINGO! information portal",
    ) -> None:
        self.tree = tree
        self.documents = list(documents)
        self.title = title

    # ------------------------------------------------------------------

    def _topic_documents(self, topic: str) -> list[CrawledDocument]:
        docs = [d for d in self.documents if d.topic == topic]
        docs.sort(key=lambda d: (-d.confidence, d.doc_id))
        return docs[:MAX_DOCUMENTS_PER_TOPIC]

    def _document_list(self, docs: Sequence[CrawledDocument]) -> str:
        items = []
        for doc in docs:
            label = _escape(doc.title or doc.final_url)
            items.append(
                f'<li><a href="{_escape(doc.final_url)}">{label}</a> '
                f"<small>confidence {doc.confidence:.3f}</small></li>"
            )
        return "<ol>\n" + "\n".join(items) + "\n</ol>" if items else "<p>(empty)</p>"

    def _topic_page(self, topic: str) -> PortalPage:
        docs = self._topic_documents(topic)
        label = self.tree.leaf_label(topic)
        body = "\n".join([
            f"<h1>{_escape(label)}</h1>",
            f"<p>{len(docs)} documents, best first.</p>",
            self._document_list(docs),
        ])
        return PortalPage(
            filename=f"topic_{_slug(topic)}.html",
            title=label,
            html=(
                f"<html><head><title>{_escape(label)}</title></head>"
                f"<body>\n{body}\n"
                f'<p><a href="index.html">back to the portal</a></p>'
                f"</body></html>"
            ),
        )

    def _index_page(self, topic_pages: Sequence[PortalPage]) -> PortalPage:
        items = []
        for topic, page in zip(self._topics(), topic_pages):
            count = len(self._topic_documents(topic))
            items.append(
                f'<li><a href="{page.filename}">'
                f"{_escape(self.tree.leaf_label(topic))}</a> "
                f"<small>({count} documents)</small></li>"
            )
        body = (
            f"<h1>{_escape(self.title)}</h1>\n<ul>\n"
            + "\n".join(items)
            + "\n</ul>"
        )
        return PortalPage(
            filename="index.html",
            title=self.title,
            html=(
                f"<html><head><title>{_escape(self.title)}</title></head>"
                f"<body>\n{body}\n</body></html>"
            ),
        )

    def _topics(self) -> list[str]:
        return self.tree.leaves()

    # ------------------------------------------------------------------

    def render(self) -> list[PortalPage]:
        """All portal pages (index first)."""
        topic_pages = [self._topic_page(topic) for topic in self._topics()]
        return [self._index_page(topic_pages), *topic_pages]

    def export(self, directory: str | pathlib.Path) -> list[pathlib.Path]:
        """Write the portal to ``directory``; returns the written paths."""
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for page in self.render():
            path = directory / page.filename
            path.write_text(page.html, encoding="utf-8")
            written.append(path)
        return written

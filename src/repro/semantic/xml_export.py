"""Generate semantically tagged XML from crawl results.

Each crawled document becomes one XML record carrying the semantics the
crawl derived: the topic-tree assignment with its SVM confidence, the
tf*idf-weighted term list per feature space, and the outgoing links.
Uses the standard :mod:`xml.etree.ElementTree` so downstream users can
process the output with any XML tooling.
"""

from __future__ import annotations

import pathlib
from collections import Counter
from collections.abc import Iterable, Sequence
from xml.etree import ElementTree as ET

from repro.core.records import CrawledDocument
from repro.text.vectorizer import TfIdfVectorizer

__all__ = ["document_to_xml", "XmlExporter"]


def document_to_xml(
    document: CrawledDocument,
    vectorizer: TfIdfVectorizer | None = None,
    max_terms: int = 50,
) -> ET.Element:
    """One crawled document as a semantically tagged XML element.

    When a ``vectorizer`` is supplied, term weights are tf*idf under its
    snapshot; otherwise raw term frequencies are emitted.
    """
    root = ET.Element("document", {
        "id": str(document.doc_id),
        "url": document.final_url,
        "host": document.host,
        "mime": document.mime,
        "depth": str(document.depth),
    })
    title = ET.SubElement(root, "title")
    title.text = document.title

    classification = ET.SubElement(root, "classification")
    ET.SubElement(classification, "topic", {
        "path": document.topic,
        "confidence": f"{document.confidence:.6f}",
    })

    counts = document.counts.get("term", Counter())
    if vectorizer is not None:
        weights = dict(vectorizer.vectorize_counts(counts))
    else:
        weights = {term: float(tf) for term, tf in counts.items()}
    terms_element = ET.SubElement(root, "terms")
    top = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:max_terms]
    for term, weight in top:
        ET.SubElement(terms_element, "term", {
            "stem": term,
            "tf": str(int(counts.get(term, 0))),
            "weight": f"{weight:.6f}",
        })

    links_element = ET.SubElement(root, "links")
    for href in document.out_urls:
        ET.SubElement(links_element, "link", {"href": href})
    return root


class XmlExporter:
    """Exports a whole crawl result as one ``<crawl>`` XML collection."""

    def __init__(self, documents: Sequence[CrawledDocument]) -> None:
        self.documents = list(documents)
        self.vectorizer = TfIdfVectorizer()
        for document in self.documents:
            self.vectorizer.ingest(
                document.counts.get("term", Counter()).keys()
            )
        self.vectorizer.refresh()

    def to_element(
        self,
        topics: Iterable[str] | None = None,
        max_terms: int = 50,
    ) -> ET.Element:
        """The collection element, optionally filtered to ``topics``."""
        wanted = set(topics) if topics is not None else None
        root = ET.Element("crawl", {"documents": "0"})
        count = 0
        for document in self.documents:
            if wanted is not None and document.topic not in wanted:
                continue
            root.append(
                document_to_xml(
                    document, vectorizer=self.vectorizer,
                    max_terms=max_terms,
                )
            )
            count += 1
        root.set("documents", str(count))
        return root

    def write(
        self,
        path: str | pathlib.Path,
        topics: Iterable[str] | None = None,
        max_terms: int = 50,
    ) -> pathlib.Path:
        """Serialise the collection to ``path``; returns the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        element = self.to_element(topics=topics, max_terms=max_terms)
        ET.indent(element)
        tree = ET.ElementTree(element)
        tree.write(path, encoding="unicode", xml_declaration=True)
        return path

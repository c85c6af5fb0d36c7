"""From-scratch derivations of the crawl context's document indexes.

:class:`~repro.pipeline.context.CrawlContext` keeps a final-URL map, a
per-topic doc-id list and an in-link index as pages are stored,
restored and revisited; the engine's retraining point reads them
instead of scanning every stored page.  These are the scans they
replaced, kept as oracles: no production module calls them.
"""

from __future__ import annotations

from repro.analysis.graph import LinkGraph

__all__ = [
    "context_indexes",
    "context_indexes_reference",
    "link_graph_reference",
]


def context_indexes_reference(documents) -> tuple[dict, dict, dict]:
    """``(url_to_doc, topic_docs, in_links)`` derived from the store."""
    url_to_doc: dict[str, int] = {}
    topic_docs: dict[str, list[int]] = {}
    in_links: dict[str, list[int]] = {}
    for doc in documents:
        url_to_doc[doc.final_url] = doc.doc_id
        topic_docs.setdefault(doc.topic, []).append(doc.doc_id)
        for url in sorted(set(doc.out_urls)):
            in_links.setdefault(url, []).append(doc.doc_id)
    return url_to_doc, topic_docs, in_links


def context_indexes(ctx) -> tuple[dict, dict, dict]:
    """The indexes a context keeps, in the oracle's shape."""
    return ctx.url_to_doc, ctx.topic_docs, ctx.in_links


def link_graph_reference(documents, docs) -> LinkGraph:
    """The base set of ``docs`` plus its successors and predecessors
    among ``documents``, found by scanning every stored page."""
    graph = LinkGraph()
    url_to_doc = {doc.final_url: doc for doc in documents}
    base_ids = {doc.doc_id for doc in docs}
    members = set(base_ids)
    # successors: out-links resolving to crawled documents
    for doc in docs:
        for url in doc.out_urls:
            target = url_to_doc.get(url)
            if target is not None:
                members.add(target.doc_id)
    # predecessors: crawled documents linking into the base set
    base_urls = {doc.final_url for doc in docs}
    for doc in documents:
        if doc.doc_id in members:
            continue
        if any(url in base_urls for url in doc.out_urls):
            members.add(doc.doc_id)
    for doc_id in sorted(members):
        doc = documents[doc_id]
        graph.add_node(doc_id, host=doc.host)
    for doc_id in sorted(members):
        doc = documents[doc_id]
        for url in doc.out_urls:
            target = url_to_doc.get(url)
            if target is not None and target.doc_id in members:
                graph.add_edge(doc_id, target.doc_id)
    return graph

"""The eager page-row writer, kept as the deferred loader's oracle.

Before the bulk loader queued stored pages, the persist stage built a
page's rows as it stored the page and handed them straight to the
loader: one ``add`` for the ``documents`` row, one ``add_many`` each for
``terms``, ``links`` and ``anchor_texts``.  :class:`EagerLoader` keeps
that behaviour.  A crawl run with it holds, at every point, the rows a
deferred crawl must hold when it is read; no production module calls
it.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat

from repro.storage.bulkloader import BulkLoader


def store_rows_reference(
    loader: BulkLoader, workspace: int, document, anchor_terms: dict,
) -> None:
    """Build ``document``'s rows and buffer them in ``workspace`` now."""
    doc_id = document.doc_id
    # rows are tuples in each relation's column order
    loader.add(workspace, "documents", (
        doc_id, document.url, document.host, document.mime,
        document.size, document.title, document.topic,
        document.confidence, document.depth, document.fetched_at,
        document.page_id,
    ))
    term_counts = document.counts.get("term", Counter())
    loader.add_many(workspace, "terms", zip(
        repeat(doc_id), term_counts, map(int, term_counts.values())
    ))
    seen_targets: set[str] = set()
    link_rows = []
    for position, dst in enumerate(document.out_urls):
        link_rows.append((
            doc_id,
            f"{dst}#{position}" if dst in seen_targets else dst,
            None,
        ))
        seen_targets.add(dst)
    loader.add_many(workspace, "links", link_rows)
    loader.add_many(workspace, "anchor_texts", [
        (doc_id, href, term, int(tf))
        for href, terms in anchor_terms.items()
        for term, tf in Counter(terms).items()
    ])


class EagerLoader(BulkLoader):
    """A bulk loader that writes each stored page's rows at once."""

    def defer(self, thread_id: int, document, anchor_terms: dict) -> None:
        store_rows_reference(self, thread_id, document, anchor_terms)

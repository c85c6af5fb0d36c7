"""The page-row oracle: one stored page's rows, written out by hand.

The page relations (``documents``, ``terms``, ``links``,
``anchor_texts``) are a view of the stored pages, built by
:func:`repro.storage.schema.page_rows` when a dump or a checkpoint
writes them.  :func:`store_rows_reference` is the row builder the
persist stage once ran for each page as it stored it; no production
module calls it.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat


def store_rows_reference(document, anchor_terms: dict) -> dict[str, list]:
    """``document``'s rows per page relation, tuples in column order."""
    doc_id = document.doc_id
    rows: dict[str, list] = {"documents": [(
        doc_id, document.url, document.host, document.mime,
        document.size, document.title, document.topic,
        document.confidence, document.depth, document.fetched_at,
        document.page_id,
    )]}
    term_counts = document.counts.get("term", Counter())
    rows["terms"] = list(zip(
        repeat(doc_id), term_counts, map(int, term_counts.values())
    ))
    seen_targets: set[str] = set()
    rows["links"] = []
    for position, dst in enumerate(document.out_urls):
        rows["links"].append((
            doc_id,
            f"{dst}#{position}" if dst in seen_targets else dst,
            None,
        ))
        seen_targets.add(dst)
    rows["anchor_texts"] = [
        (doc_id, href, term, int(tf))
        for href, terms in anchor_terms.items()
        for term, tf in Counter(terms).items()
    ]
    return rows

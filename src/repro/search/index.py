"""The inverted index behind the query-serving tier (paper section 3.6).

BINGO!'s portal serves "expert Web search" over the crawled corpus; the
paper stores documents and terms in flat relations (section 4.1) and
queries them through secondary indexes.  This module is the in-process
equivalent of the term index: one :class:`Postings` run per term over
the corpus, with

* **delta/varint-compressed doc-id runs** (the classic inverted-file
  layout; encoded via :func:`repro.perf.topk.encode_doc_ids`) beside
  the packed tf*idf weights -- all a run stores, so building one is two
  encodes;
* **lazily decoded impact arrays** -- the first query that touches a
  term turns its run into two numpy arrays, corpus rows and normalised
  impacts ``weight / |doc|`` (:meth:`InvertedIndex.impacts`), which
  :func:`repro.perf.topk.verified_topk` accumulates.  Rows number the
  documents of *one* index in doc-id order, so the arrays are kept on
  the index, never on the run: a run carried into the next index by
  :meth:`InvertedIndex.apply_update` is decoded again under the new
  numbering;
* an explicit **idf-snapshot version**: the index is valid only for the
  tf*idf snapshot it was built under, mirroring the
  :class:`~repro.perf.cache.VectorCache` invalidation contract.

:class:`QueryCache` is the serving tier's result cache: entries are
keyed on the engine's :class:`~repro.search.epoch.Epoch`, so a
retraining (idf refresh), an archetype promotion, or a living-portal
recrawl delta (``advance(reason)``) invalidates every cached result
without an explicit flush.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SearchError
from repro.perf.topk import decode_doc_ids, encode_doc_ids
from repro.search.epoch import Epoch

if TYPE_CHECKING:
    from repro.text.vectorizer import SparseVector

__all__ = ["Postings", "InvertedIndex", "QueryCache"]


class Postings:
    """One term's compressed posting run.

    Doc ids are stored delta/varint-compressed, the parallel tf*idf
    weights packed as doubles.  The ids decode on first access and stay
    decoded (the serving tier touches a small, hot subset of the
    vocabulary); the weights are read in place.
    """

    __slots__ = ("encoded_ids", "encoded_weights", "count", "_doc_ids")

    def __init__(self, doc_ids: list[int], weights: list[float]) -> None:
        if len(doc_ids) != len(weights) or not doc_ids:
            raise SearchError("postings need parallel, non-empty runs")
        self.encoded_ids = encode_doc_ids(doc_ids)
        self.encoded_weights = array("d", weights).tobytes()
        self.count = len(doc_ids)
        self._doc_ids: np.ndarray | None = None

    @property
    def compressed_bytes(self) -> int:
        return len(self.encoded_ids) + len(self.encoded_weights)

    def doc_ids(self) -> np.ndarray:
        """The sorted doc-id run (decoded once, then memoized)."""
        decoded = self._doc_ids
        if decoded is None:
            decoded = np.array(
                decode_doc_ids(self.encoded_ids), dtype=np.int64
            )
            self._doc_ids = decoded
        return decoded

    def weights(self) -> np.ndarray:
        """The tf*idf weights parallel to :meth:`doc_ids`."""
        return np.frombuffer(self.encoded_weights, dtype=np.float64)


class InvertedIndex:
    """Sorted, compressed postings over one idf snapshot of the corpus.

    Built from the in-memory document vectors the search engine
    already holds (:meth:`build`).
    """

    def __init__(
        self, epoch: Epoch, vectors: Mapping[int, "SparseVector"]
    ) -> None:
        self.epoch = epoch
        """The :class:`~repro.search.epoch.Epoch` this index serves.
        The index is valid only while the engine's epoch carries the
        same idf ``snapshot_version``."""
        ordered = sorted(vectors)
        self.doc_count = len(ordered)
        self.postings_total = 0
        self.reused_postings = 0
        """Posting runs carried over unchanged by the last
        :meth:`apply_update` (0 for a from-scratch build)."""
        self._terms: dict[str, Postings] = {}
        self._doc_ids = np.array(ordered, dtype=np.int64)
        """Row -> doc id, ascending: this index's row numbering."""
        self._norms = np.array(
            [vectors[doc_id].norm for doc_id in ordered], dtype=np.float64
        )
        self._impacts: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def snapshot_version(self) -> int:
        """The idf snapshot component of :attr:`epoch`."""
        return self.epoch.snapshot_version

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        vectors: Mapping[int, "SparseVector"],
        epoch: Epoch,
    ) -> "InvertedIndex":
        """Index ``doc_id -> tf*idf vector`` under one epoch."""
        index = cls(epoch, vectors)
        runs: dict[str, tuple[list[int], list[float]]] = {}
        for doc_id in sorted(vectors):
            for term, weight in sorted(vectors[doc_id].weights.items()):
                ids, weights = runs.setdefault(term, ([], []))
                ids.append(doc_id)
                weights.append(weight)
        for term in sorted(runs):
            ids, weights = runs[term]
            index._terms[term] = Postings(ids, weights)
            index.postings_total += len(ids)
        return index

    def apply_update(
        self,
        vectors: Mapping[int, "SparseVector"],
        dirty_terms: Iterable[str],
        epoch: Epoch,
    ) -> "InvertedIndex":
        """A new index folding a document delta into this one.

        ``vectors`` is the *post-delta* corpus; ``dirty_terms`` is every
        term whose posting run may differ from this index -- any term
        occurring in an added, changed, or removed document (under its
        old or new vector), plus any term whose idf changed.  Posting
        runs for clean terms are carried over by reference (their doc
        ids and weights are bitwise what a from-scratch :meth:`build`
        would recompute); dirty runs are rebuilt from ``vectors``
        through the same code path as :meth:`build`, so the result is
        bit-identical to a full rebuild -- the parity pinned by
        ``tests/portal/test_incremental_parity``.  Only the *runs* are
        carried: a delta that adds one document and removes another
        shifts every row after the removed id, so the new index decodes
        its own impact arrays.
        """
        index = InvertedIndex(epoch, vectors)
        dirty = frozenset(dirty_terms)
        runs: dict[str, tuple[list[int], list[float]]] = {}
        for doc_id in sorted(vectors):
            weights = vectors[doc_id].weights
            for term in sorted(weights):
                if term not in dirty:
                    continue
                ids, run_weights = runs.setdefault(term, ([], []))
                ids.append(doc_id)
                run_weights.append(weights[term])
        carried = sorted(
            term for term in self._terms
            if term not in dirty and term not in runs
        )
        rebuilt = sorted(runs)
        for term in sorted([*carried, *rebuilt]):
            if term in runs:
                ids, run_weights = runs[term]
                index._terms[term] = Postings(ids, run_weights)
            else:
                index._terms[term] = self._terms[term]
                index.reused_postings += 1
            index.postings_total += index._terms[term].count
        return index

    # -- access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        return term in self._terms

    def terms(self) -> list[str]:
        return sorted(self._terms)

    def postings(self, term: str) -> Postings | None:
        """The term's posting run, or None for unindexed vocabulary."""
        return self._terms.get(term)

    def rows(self, doc_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """The rows of ``doc_ids`` (ascending, all indexed)."""
        return np.searchsorted(self._doc_ids, doc_ids)

    def impacts(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The term's ``(rows, weight / |doc|)`` arrays under this
        index's numbering, or None for unindexed vocabulary -- the one
        decode site, memoized per index."""
        decoded = self._impacts.get(term)
        if decoded is None:
            run = self._terms.get(term)
            if run is None:
                return None
            rows = self.rows(run.doc_ids())
            norms = self._norms[rows]
            decoded = self._impacts[term] = (
                rows,
                np.divide(
                    run.weights(), norms,
                    out=np.zeros(run.count), where=norms > 0.0,
                ),
            )
        return decoded

    # -- observability ----------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Index counters (:class:`repro.obs.api.Instrumented`)."""
        return {
            "index_terms": float(len(self._terms)),
            "index_documents": float(self.doc_count),
            "index_postings": float(self.postings_total),
            "index_compressed_bytes": float(
                sum(
                    self._terms[term].compressed_bytes
                    for term in sorted(self._terms)
                )
            ),
            "index_decoded_terms": float(len(self._impacts)),
            "index_reused_postings": float(self.reused_postings),
            "index_snapshot_version": float(self.snapshot_version),
            "index_epoch_ordinal": float(self.epoch.ordinal),
        }


class QueryCache:
    """Bounded LRU of ranked results keyed on the engine's epoch.

    Every entry is stored under ``(epoch, key)``: an epoch advance --
    retraining, archetype promotion, ``rebuild()``, a recrawl delta --
    makes every previous entry unreachable; the LRU bound then ages the
    stale entries out without an explicit flush.  ``invalidate()``
    drops everything eagerly.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = max(int(maxsize), 0)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, epoch: Epoch, key: Hashable) -> object | None:
        if self.maxsize == 0:
            self.misses += 1
            return None
        entry = self._entries.get((epoch, key))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end((epoch, key))
        return entry

    def put(self, epoch: Epoch, key: Hashable, value: object) -> None:
        if self.maxsize == 0:
            return
        self._entries[(epoch, key)] = value
        self._entries.move_to_end((epoch, key))
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Eagerly drop every entry (retrain/promotion hook)."""
        self.invalidations += 1
        self._entries.clear()

    def stats(self) -> dict[str, float]:
        """Cache counters (:class:`repro.obs.api.Instrumented`)."""
        return {
            "query_cache_hits": float(self.hits),
            "query_cache_misses": float(self.misses),
            "query_cache_entries": float(len(self._entries)),
            "query_cache_invalidations": float(self.invalidations),
        }

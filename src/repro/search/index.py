"""The inverted index behind the query-serving tier (paper section 3.6).

BINGO!'s portal serves "expert Web search" over the crawled corpus; the
paper stores documents and terms in flat relations (section 4.1) and
queries them through secondary indexes.  This module is the in-process
equivalent of the term index, laid out so that folding a recrawl delta
costs what changed (the paper's vectorizer recomputes idf *lazily*,
section 2.2):

* **what is stored is idf-free** -- one term-major posting matrix of
  tf-side weights ``1 + log tf`` in three parallel numpy arrays
  (document row, term column, weight), sorted by ``(column, row)`` so
  a term's run is a slice.  Nothing in it depends on the corpus
  size, so a delta that moves ``document_count`` touches exactly the
  entries of the documents that left or arrived
  (:meth:`InvertedIndex.apply_update`: mask, append, re-sort);
* **what depends on the corpus is derived per epoch** in a handful of
  O(postings) numpy operations when an index is made: the idf of every
  column, read from the vectorizer's snapshot (the one source the exact
  path reads too), ``|doc|`` per row by ``np.bincount`` over the
  squared ``tfw * idf``, and the normalised impacts ``tfw * idf /
  |doc|`` that :func:`repro.perf.topk.verified_topk` accumulates.  The
  norms come out of numpy in another summation order than
  :attr:`SparseVector.norm <repro.text.vectorizer.SparseVector.norm>`,
  a few ulp apart: they feed the *bound* only, whose 1e-9 verify band
  absorbs that; every returned float is computed from a real
  ``SparseVector`` by the engine;
* **rows** number the documents of *one* index in doc-id order.  A
  document without terms still owns a row (the filter views index by
  row), and a term whose last document left reads as unindexed
  (:meth:`InvertedIndex.impacts` gives ``None``) although its column
  lingers until the next from-scratch :meth:`InvertedIndex.build`.

:class:`QueryCache` is the serving tier's result cache: entries are
keyed on the engine's :class:`~repro.search.epoch.Epoch`, so a
retraining (idf refresh), an archetype promotion, or a living-portal
recrawl delta (``advance(reason)``) invalidates every cached result
without an explicit flush.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from collections.abc import Collection, Hashable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.search.epoch import Epoch

if TYPE_CHECKING:
    from repro.text.vectorizer import CorpusStatistics

__all__ = ["InvertedIndex", "QueryCache"]


class InvertedIndex:
    """The posting matrix plus what one epoch derives from it.

    An index is immutable: :meth:`apply_update` returns the next one
    and leaves this one as it was.
    """

    def __init__(
        self,
        epoch: Epoch,
        statistics: "CorpusStatistics",
        doc_ids: np.ndarray,
        columns: dict[str, int],
        entries: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """An index over ``entries`` -- ``(rows, cols, tfw)`` sorted by
        ``(col, row)`` -- under ``statistics``' idf snapshot.  Callers
        want :meth:`build` or :meth:`apply_update`."""
        self.epoch = epoch
        """The :class:`~repro.search.epoch.Epoch` this index serves.
        The index is valid only while the engine's epoch carries the
        same idf ``snapshot_version``."""
        self._doc_ids = doc_ids
        """Row -> doc id, ascending: this index's row numbering.  A
        document without terms owns a row like any other."""
        self._columns = columns
        """Term -> column, in column order."""
        self._rows, self._cols, self._tfw = entries
        self.doc_count = len(doc_ids)
        self.postings_total = len(self._tfw)

        # -- derived per epoch: O(postings) numpy, O(vocabulary) Python
        self._starts = np.searchsorted(
            self._cols, np.arange(len(columns) + 1)
        )
        """Column ``c``'s run is ``starts[c]:starts[c + 1]``."""
        idf = np.array([statistics.idf(term) for term in columns])
        impacts = idf[self._cols]
        impacts *= self._tfw
        norms = np.sqrt(
            np.bincount(
                self._rows, impacts * impacts, minlength=self.doc_count
            )
        )
        # tfw >= 1 and idf >= log 2, so a row with an entry has a
        # positive norm and a row without one is never divided by
        impacts /= norms[self._rows]
        self._impacts = impacts

    @property
    def snapshot_version(self) -> int:
        """The idf snapshot component of :attr:`epoch`."""
        return self.epoch.snapshot_version

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        documents: Mapping[int, Mapping[str, int]],
        statistics: "CorpusStatistics",
        epoch: Epoch,
    ) -> "InvertedIndex":
        """Index ``doc_id -> term counts`` under one epoch: every
        document folded into an empty index, so a maintained index
        equals a rebuilt one by construction."""
        no_ids = np.empty(0, dtype=np.int32)
        empty = cls(
            epoch, statistics, np.empty(0, dtype=np.int64), {},
            (no_ids, no_ids, np.empty(0)),
        )
        return empty.apply_update(documents, (), statistics, epoch)

    def apply_update(
        self,
        arrived: Mapping[int, Mapping[str, int]],
        left: Collection[int],
        statistics: "CorpusStatistics",
        epoch: Epoch,
    ) -> "InvertedIndex":
        """The next index: this one without the documents in ``left``
        (all indexed here) and with ``arrived`` (``doc_id -> term
        counts``, none indexed once ``left`` is gone; a changed
        document is in both).

        The entries of ``left`` are masked out, those of ``arrived``
        appended -- the only per-posting Python work -- and the matrix
        re-sorted under the new row numbering; everything that depends
        on the corpus size is derived afresh from ``statistics``'
        snapshot, so it makes no difference whether the delta moved
        ``document_count``.
        """
        columns = dict(self._columns)
        lengths: list[int] = []
        new_cols = array("i")
        new_tfs = array("i")
        for counts in arrived.values():
            before = len(new_cols)
            for term, tf in counts.items():
                if tf > 0:
                    new_cols.append(columns.setdefault(term, len(columns)))
                    new_tfs.append(tf)
            lengths.append(len(new_cols) - before)
        gone = np.zeros(self.doc_count, dtype=bool)
        gone[self.rows(np.array(list(left), dtype=np.int64))] = True
        arrived_ids = np.array(list(arrived), dtype=np.int64)
        doc_ids = np.union1d(self._doc_ids[~gone], arrived_ids)
        # old row -> new row (whatever it says for a gone row is masked)
        renumber = np.searchsorted(doc_ids, self._doc_ids).astype(np.int32)
        arrived_rows = np.searchsorted(doc_ids, arrived_ids).astype(np.int32)

        keep = ~gone[self._rows]
        rows = np.concatenate(
            (renumber[self._rows[keep]], np.repeat(arrived_rows, lengths))
        )
        cols = np.concatenate(
            (self._cols[keep], np.frombuffer(new_cols, dtype=np.intc))
        )
        tfw = np.concatenate(
            (self._tfw[keep], np.frombuffer(new_tfs, dtype=np.intc))
        )
        fresh = tfw[len(tfw) - len(new_tfs):]
        np.log(fresh, out=fresh)
        fresh += 1.0
        del keep, new_cols, new_tfs
        # (col, row) pairs are unique; a stable sort is fast on the
        # already-sorted kept part.  Peak memory of a build is this
        # method's transients, hence the in-place arithmetic
        key = cols.astype(np.int64)
        key <<= 32
        key |= rows
        order = np.argsort(key, kind="stable")
        del key
        entries = (rows[order], cols[order], tfw[order])
        del rows, cols, tfw, fresh, order
        return InvertedIndex(epoch, statistics, doc_ids, columns, entries)

    # -- access -----------------------------------------------------------

    def __len__(self) -> int:
        """Live terms: columns whose run is not empty."""
        return int(np.count_nonzero(np.diff(self._starts)))

    def __contains__(self, term: str) -> bool:
        return self.impacts(term) is not None

    def rows(self, doc_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """The rows of ``doc_ids`` (ascending, all indexed)."""
        return np.searchsorted(self._doc_ids, doc_ids)

    def impacts(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The term's ``(rows, weight / |doc|)`` run under this index's
        numbering -- two slices -- or None for vocabulary no indexed
        document holds."""
        column = self._columns.get(term)
        if column is None:
            return None
        start, stop = self._starts[column], self._starts[column + 1]
        if start == stop:
            return None
        return self._rows[start:stop], self._impacts[start:stop]

    # -- observability ----------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Index counters (:class:`repro.obs.api.Instrumented`).

        ``index_compressed_bytes`` keeps the key the benchmark reads; it
        reports the bytes the per-posting arrays hold, stored and
        derived (nothing is compressed any more).
        """
        return {
            "index_terms": float(len(self)),
            "index_documents": float(self.doc_count),
            "index_postings": float(self.postings_total),
            "index_compressed_bytes": float(
                self._rows.nbytes + self._cols.nbytes + self._tfw.nbytes
                + self._impacts.nbytes
            ),
            "index_snapshot_version": float(self.snapshot_version),
            "index_epoch_ordinal": float(self.epoch.ordinal),
        }


class QueryCache:
    """Bounded LRU of ranked results keyed on the engine's epoch.

    Every entry is stored under ``(epoch, key)``: an epoch advance --
    retraining, archetype promotion, a recrawl delta -- makes every
    previous entry unreachable; the LRU bound then ages the stale
    entries out without an explicit flush.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = max(int(maxsize), 0)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

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

    def stats(self) -> dict[str, float]:
        """Cache counters (:class:`repro.obs.api.Instrumented`)."""
        return {
            "query_cache_hits": float(self.hits),
            "query_cache_misses": float(self.misses),
            "query_cache_entries": float(len(self._entries)),
            # an epoch advance invalidates; nothing flushes eagerly, so
            # this reads 0 (benchmarks/e2e reports it as
            # search.cache.invalidations)
            "query_cache_invalidations": 0.0,
        }

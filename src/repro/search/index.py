"""The inverted index behind the query-serving tier (paper section 3.6).

BINGO!'s portal serves "expert Web search" over the crawled corpus; the
paper stores documents and terms in flat relations (section 4.1) and
queries them through secondary indexes.  This module is the in-process
equivalent of the term index, laid out so that folding a recrawl delta
costs what changed (the paper's vectorizer recomputes idf *lazily*,
section 2.2):

* **what is stored is idf-free** -- every document's positive term
  counts as numpy arrays, document-major: its term columns and their
  ``1 + log tf`` weights (read from
  :data:`~repro.text.vectorizer.DAMPENED`) in the document's own counts
  order, documents in row order.  Nothing in it depends on the corpus
  size, so a delta that moves ``document_count`` touches exactly the
  entries of the documents that left or arrived
  (:meth:`InvertedIndex.apply_update`: mask, append, one stable radix
  order by row);
* **what depends on the corpus is derived per epoch** when an index is
  made: the idf of every column, read from the vectorizer's snapshot
  (the one source the query vector reads too); each row's *exact*
  norm (:attr:`InvertedIndex.norms`) -- ``math.sqrt(sum(...))`` over
  ``(tfw * idf) ** 2`` in its counts order, the products and the
  summation of :attr:`SparseVector.norm
  <repro.text.vectorizer.SparseVector.norm>`, hence its float; and the
  term-major runs ``(row, tfw * idf)``, each posting's tf*idf weight
  (the document vector's own float), a stable radix order of the
  entries by column;
* **rows** number the documents of *one* index in doc-id order.  A
  document without terms still owns a row (the filter views index by
  row), and a term whose last document left reads as unindexed
  (:meth:`InvertedIndex.run` gives ``None``) although its column
  lingers until the next from-scratch :meth:`InvertedIndex.build`.

:func:`exact_topk` is the query kernel: every candidate's exact cosine
straight from the query terms' runs (:meth:`InvertedIndex.dots`), the
ranking schemes' linear sum, and the top k, all in arrays.

:class:`QueryCache` is the serving tier's result cache: entries are
keyed on the engine's :class:`~repro.search.epoch.Epoch`, so a
retraining (idf refresh), an archetype promotion, or a living-portal
recrawl delta (``advance(reason)``) invalidates every cached result
without an explicit flush.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Collection, Hashable, Mapping, Sequence
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.search.epoch import Epoch
from repro.text.vectorizer import DAMPENED

if TYPE_CHECKING:
    from repro.text.vectorizer import CorpusStatistics

__all__ = ["InvertedIndex", "QueryCache", "TopK", "exact_topk"]

#: whether this interpreter's ``sum`` of floats is compensated
#: (Neumaier's, from Python 3.12 on) or adds left to right: a property
#: of the running interpreter, probed once
_COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) != 0.0


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """A stable argsort of non-negative integer ``keys``: LSD radix in
    16-bit digits, each pass numpy's stable (counting) sort of uint16."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    for shift in range(16, int(keys.max(initial=0)).bit_length(), 16):
        digits = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digits, kind="stable")]
    return order


def _exact_norms(weights: np.ndarray, lengths: np.ndarray) -> list[float]:
    """Each row's ``SparseVector.norm``: ``weights`` holds the rows'
    tf*idf weights back to back, ``lengths`` how many each row owns.
    Python's own ``sum`` adds each row's squares in order (3.12's is
    compensated, so no numpy reduction stands in for it)."""
    squares = weights * weights
    stops = np.cumsum(lengths).tolist()
    return [
        math.sqrt(sum(squares[start:stop].tolist()))
        for start, stop in zip([0, *stops], stops)
    ]


#: one query term's run and its weight in the query vector:
#: ``(rows, tfw * idf, w_q)``
_QueryRun = tuple[np.ndarray, np.ndarray, float]


def _add_compensated(dots: np.ndarray, runs: Sequence[_QueryRun]) -> None:
    """Add ``weight * weights`` of each run into ``dots`` the way a
    compensated ``sum`` adds its items: Neumaier's step on every row of
    a run at once, the compensation added at the end.  Nothing here is
    negative, so ``|sum| >= |x|`` is ``sum >= x``."""
    compensation = np.zeros(len(dots))
    for rows, weights, weight in runs:
        products = weight * weights
        sums = dots[rows]
        totals = sums + products
        compensation[rows] += np.where(
            sums >= products,
            (sums - totals) + products,
            (products - totals) + sums,
        )
        dots[rows] = totals
    dots += compensation


class InvertedIndex:
    """The document-major term counts plus what one epoch derives from
    them.

    An index is immutable: :meth:`apply_update` returns the next one
    and leaves this one as it was.  Its arrays are read-only, so a
    write into one raises instead of changing an epoch's scores.
    """

    def __init__(
        self,
        epoch: Epoch,
        statistics: "CorpusStatistics",
        doc_ids: np.ndarray,
        columns: dict[str, int],
        terms: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """An index over ``terms`` -- ``(rows, cols, tfw)``, each
        document's positive counts in its counts order, rows ascending
        -- under ``statistics``' idf snapshot.  Callers want
        :meth:`build` or :meth:`apply_update`."""
        self.epoch = epoch
        """The :class:`~repro.search.epoch.Epoch` this index serves.
        The index is valid only while the engine's epoch carries the
        same idf ``snapshot_version``."""
        self._doc_ids = doc_ids
        """Row -> doc id, ascending: this index's row numbering.  A
        document without terms owns a row like any other."""
        self._columns = columns
        """Term -> column, in column order."""
        rows, self._doc_cols, self._doc_tfw = terms
        self._lengths = np.bincount(rows, minlength=len(doc_ids))
        """Row -> its positive terms: the row's slice of ``_doc_cols``
        / ``_doc_tfw``."""
        self.doc_count = len(doc_ids)
        self.postings_total = len(self._doc_tfw)

        # -- derived per epoch: O(postings) numpy, O(vocabulary +
        # documents) Python
        self._idf = np.array([statistics.idf(term) for term in columns])
        """Column -> its idf under the snapshot."""
        weights = self._idf[self._doc_cols]
        weights *= self._doc_tfw
        self.norms = np.array(_exact_norms(weights, self._lengths))
        """Row -> the :attr:`~repro.text.vectorizer.SparseVector.norm`
        of the document's tf*idf vector, the same float (0.0 for a
        document without terms)."""
        self._starts = np.concatenate((
            [0], np.cumsum(np.bincount(self._doc_cols, minlength=len(columns)))
        ))
        """Column ``c``'s run is ``starts[c]:starts[c + 1]``."""
        order = _stable_order(self._doc_cols)
        self._rows = rows[order]
        self._weights = weights[order]
        """The term-major runs: ``(row, tfw * idf)`` sorted by
        ``(column, row)``."""
        for array in (
            self._doc_ids, self._doc_cols, self._doc_tfw, self._lengths,
            self._idf, self.norms, self._starts, self._rows, self._weights,
        ):
            array.flags.writeable = False

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

        The arriving counts are gathered at C level (``chain``,
        ``map``, ``np.fromiter``), the entries of ``left`` masked out
        and the two parts put in row order by one stable radix sort,
        which keeps each document's counts order; everything that
        depends on the corpus size is derived afresh from
        ``statistics``' snapshot, so it makes no difference whether the
        delta moved ``document_count``.
        """
        columns = dict(self._columns)
        counts = list(arrived.values())
        terms = list(chain.from_iterable(counts))
        # a column per listed term; one with no positive count reads
        # as unindexed, like a term whose last document left
        for term in dict.fromkeys(terms):
            columns.setdefault(term, len(columns))
        new_cols = np.fromiter(
            map(columns.__getitem__, terms), dtype=np.int32,
            count=len(terms),
        )
        del terms
        tfs = np.fromiter(
            chain.from_iterable(c.values() for c in counts),
            dtype=np.int64, count=len(new_cols),
        )
        positive = tfs > 0
        new_cols = new_cols[positive]
        tfs = tfs[positive]
        dampened = [DAMPENED[tf] for tf in range(1, tfs.max(initial=0) + 1)]
        new_tfw = np.array([0.0, *dampened])[tfs]
        del tfs

        gone = np.zeros(self.doc_count, dtype=bool)
        gone[self.rows(np.array(list(left), dtype=np.int64))] = True
        arrived_ids = np.fromiter(arrived, dtype=np.int64, count=len(counts))
        kept = ~gone
        doc_ids = np.union1d(self._doc_ids[kept], arrived_ids)
        renumber = np.searchsorted(doc_ids, self._doc_ids[kept])
        arrived_rows = np.searchsorted(doc_ids, arrived_ids)
        lengths = np.fromiter(map(len, counts), dtype=np.int64,
                              count=len(counts))
        rows = np.concatenate((
            np.repeat(renumber.astype(np.int32), self._lengths[kept]),
            np.repeat(arrived_rows.astype(np.int32), lengths)[positive],
        ))
        keep = np.repeat(kept, self._lengths)
        cols = np.concatenate((self._doc_cols[keep], new_cols))
        tfw = np.concatenate((self._doc_tfw[keep], new_tfw))
        del keep, new_cols, new_tfw, positive
        # kept rows are ascending already; each arrival's entries stay
        # in its counts order (the exact norm sums in that order)
        order = _stable_order(rows)
        in_rows = (rows[order], cols[order], tfw[order])
        del rows, cols, tfw, order
        return InvertedIndex(epoch, statistics, doc_ids, columns, in_rows)

    # -- access -----------------------------------------------------------

    def __len__(self) -> int:
        """Live terms: columns whose run is not empty."""
        return int(np.count_nonzero(np.diff(self._starts)))

    def __contains__(self, term: str) -> bool:
        return self.run(term) is not None

    def rows(self, doc_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """The rows of ``doc_ids`` (ascending, all indexed)."""
        return np.searchsorted(self._doc_ids, doc_ids)

    def run(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The term's ``(rows, tfw * idf)`` run under this index's
        numbering -- two slices -- or None for vocabulary no indexed
        document holds."""
        column = self._columns.get(term)
        if column is None:
            return None
        start, stop = self._starts[column], self._starts[column + 1]
        if start == stop:
            return None
        return self._rows[start:stop], self._weights[start:stop]

    def dots(self, query: Mapping[str, float]) -> np.ndarray:
        """Every row's ``q.dot(d)``: the float ``cosine_similarity(q,
        d)`` divides, for the query vector ``q`` (its ``weights``) and
        the row's document vector ``d``.

        ``SparseVector.dot`` sums ``w_q * (tfw * idf)`` over the shared
        terms with the interpreter's ``sum``, in ``q``'s order unless
        ``d`` holds fewer terms.  Each run adds its products into one
        row array in ``q``'s order; where ``sum`` is compensated, the
        array carries Neumaier's compensation too (a row reached by one
        or two runs sums the same either way).  A row with fewer terms
        than ``q`` reached by three or more runs (``q`` has four or
        more terms) is summed again in its counts order by ``sum``
        itself.  A row no run reaches reads 0.0.
        """
        dots = np.zeros(self.doc_count)
        runs: list[_QueryRun] = []
        for term, weight in query.items():
            run = self.run(term)
            if run is not None:
                runs.append((*run, weight))
        if _COMPENSATED_SUM and len(runs) > 2:
            _add_compensated(dots, runs)
        else:
            for rows, weights, weight in runs:
                dots[rows] += weight * weights
        if len(runs) > 2 and len(query) > 3:
            self._sum_in_counts_order(dots, runs, query)
        return dots

    def _sum_in_counts_order(
        self,
        dots: np.ndarray,
        runs: Sequence[_QueryRun],
        query: Mapping[str, float],
    ) -> None:
        """Overwrite the dot of each row that ``SparseVector.dot`` sums
        in the document's order and that three or more terms reach."""
        reached = np.zeros(self.doc_count, dtype=np.int64)
        for rows, _, _ in runs:
            reached[rows] += 1
        swapped = (reached > 2) & (self._lengths < len(query))
        by_column = {
            self._columns[term]: weight for term, weight in query.items()
            if term in self._columns
        }
        stops = np.cumsum(self._lengths)
        for row in np.flatnonzero(swapped).tolist():
            entries = slice(stops[row] - self._lengths[row], stops[row])
            columns = self._doc_cols[entries]
            dots[row] = sum([
                by_column[column] * (tfw * idf)
                for column, tfw, idf in zip(
                    columns.tolist(), self._doc_tfw[entries].tolist(),
                    self._idf[columns].tolist(),
                )
                if column in by_column
            ])

    # -- observability ----------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Index counters (:class:`repro.obs.api.Instrumented`).

        ``index_compressed_bytes`` keeps the key the benchmark reads; it
        reports the bytes the per-posting arrays hold, the stored
        document-major counts and the derived term-major runs (nothing
        is compressed any more).
        """
        return {
            "index_terms": float(len(self)),
            "index_documents": float(self.doc_count),
            "index_postings": float(self.postings_total),
            "index_compressed_bytes": float(
                self._doc_cols.nbytes + self._doc_tfw.nbytes
                + self._rows.nbytes + self._weights.nbytes
            ),
            "index_snapshot_version": float(self.snapshot_version),
            "index_epoch_ordinal": float(self.epoch.ordinal),
        }


class TopK(NamedTuple):
    """The best candidates, best first: parallel lists of Python ints
    and floats (a ``repr`` of a numpy float differs)."""

    positions: list[int]
    scores: list[float]
    cosines: list[float]
    reached: int
    """Candidates the query's runs reached: those holding one of its
    terms."""


def exact_topk(
    index: InvertedIndex,
    query: Mapping[str, float],
    members: np.ndarray | None,
    denominators: np.ndarray,
    cosine_weight: float,
    static: Sequence[tuple[float, np.ndarray]],
    k: int,
) -> TopK:
    """The top ``k`` candidates under ``(-score, position)``, every
    candidate scored exactly.

    ``members`` are the candidates' rows (``None``: every row, in
    order) and ``denominators`` their ``|q| * |d|``, a document
    without terms read as ``|q| * 1.0``: its dot is 0.0, and
    ``cosine_similarity`` gives it 0.0 too.  A candidate's cosine is
    its dot (:meth:`InvertedIndex.dots`) over its denominator, clamped
    to 1.0 (nothing is negative); its score is ``cosine_weight *
    cosine`` plus each ``(weight, component)`` of ``static`` in turn,
    the order of the engine's linear sum -- a skipped zero-weight
    scheme would add 0.0.  The k-th largest score is found by
    ``np.partition``, and the candidates that reach it are sorted by
    ``(-score, position)``.
    """
    dots = index.dots(query)
    if members is not None:
        dots = dots[members]
    reached = int(np.count_nonzero(dots))
    cosines = np.divide(dots, denominators, out=dots)
    np.minimum(cosines, 1.0, out=cosines)
    scores = cosine_weight * cosines
    for weight, component in static:
        scores += weight * component
    keep = min(k, len(scores))
    if keep <= 0:
        return TopK([], [], [], reached)
    kth = np.partition(scores, len(scores) - keep)[len(scores) - keep]
    chosen = np.flatnonzero(scores >= kth)
    # a stable sort of ascending positions breaks ties by position
    chosen = chosen[np.argsort(-scores[chosen], kind="stable")[:keep]]
    return TopK(
        chosen.tolist(), scores[chosen].tolist(),
        cosines[chosen].tolist(), reached,
    )


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

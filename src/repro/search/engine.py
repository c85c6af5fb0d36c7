"""The local search engine over crawl results (paper section 3.6).

Supports "both exact and vague filtering at user-selectable classes of
the topic hierarchy" and three ranking schemes that "can be combined into
a linear sum with appropriate weights":

* **cosine** similarity between the query vector and document vectors;
* **confidence** -- the classifier's SVM confidence in the class
  assignment;
* **authority** -- HITS authority scores over the filtered documents'
  link graph.

Two ranking paths produce bit-identical results:

* the **brute-force** reference (:meth:`LocalSearchEngine.rank_all`)
  builds each candidate's tf*idf vector
  (:meth:`~repro.text.vectorizer.TfIdfVectorizer.vectorize_counts`),
  calls ``cosine_similarity``, and fully sorts;
* the **indexed** top-k path (:func:`repro.search.index.exact_topk`)
  builds no document vector: it adds the query terms' runs from the
  :class:`~repro.search.index.InvertedIndex` into every candidate's
  dot product, divides by the exact norms the index keeps, combines
  with the filter view's confidence and authority arrays and selects
  the top k -- every candidate scored exactly, in arrays, with
  ``cosine_similarity``'s and :func:`_combine`'s operations in their
  order.  The parity suite (``tests/search/test_parity.py``) pins
  equality of documents, scores and order across filters, weights and
  ``top_k`` edge cases.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from repro.analysis.graph import LinkGraph
from repro.analysis.hits import hits
from repro.core.records import CrawledDocument
from repro.errors import SearchError
from repro.search.epoch import Epoch
from repro.search.index import InvertedIndex
# benchmarks/e2e traces the kernel under this module-level name
from repro.search.index import exact_topk as wand_topk
from repro.text.scanner import text_stems
from repro.text.vectorizer import (
    SparseVector,
    TfIdfVectorizer,
    cosine_similarity,
)

__all__ = ["RankingWeights", "RankedHit", "DeltaReport", "LocalSearchEngine"]


@dataclass(frozen=True)
class DeltaReport:
    """What one :meth:`LocalSearchEngine.apply_delta` call did: the
    documents that moved and the posting entries that moved with them
    -- there is one fold, whether or not the corpus size changed."""

    epoch: Epoch
    docs_added: int
    docs_changed: int
    docs_removed: int
    postings_written: int
    """Term entries of the arriving documents (added, and changed in
    their new version)."""
    postings_dropped: int
    """Term entries of the leaving documents (removed, and changed in
    their old version)."""

    def stats(self) -> dict[str, float]:
        """Counters (:class:`repro.obs.api.Instrumented`-shaped)."""
        return {
            "delta_docs_added": float(self.docs_added),
            "delta_docs_changed": float(self.docs_changed),
            "delta_docs_removed": float(self.docs_removed),
            "delta_postings_written": float(self.postings_written),
            "delta_postings_dropped": float(self.postings_dropped),
        }


@dataclass(frozen=True)
class RankingWeights:
    """Linear combination weights for the three ranking schemes."""

    cosine: float = 1.0
    confidence: float = 0.0
    authority: float = 0.0

    def validate(self) -> None:
        if self.cosine < 0 or self.confidence < 0 or self.authority < 0:
            raise SearchError("ranking weights must be non-negative")
        if self.cosine + self.confidence + self.authority <= 0:
            raise SearchError("at least one ranking weight must be positive")


@dataclass(frozen=True)
class RankedHit:
    """One search result with its score decomposition."""

    document: CrawledDocument
    score: float
    cosine: float
    confidence: float
    authority: float

    @property
    def url(self) -> str:
        return self.document.final_url


def _min_max_normalize(values: dict[int, float]) -> dict[int, float]:
    """Min-max normalise scores to [0, 1] over the candidate set.

    The degenerate case (``hi <= lo``, e.g. a single candidate or a
    filter where every document carries the same confidence) maps to
    **0.0**: a scheme that cannot discriminate between the candidates
    must not contribute weight, otherwise a single-candidate filter
    would report full confidence/authority regardless of the
    underlying score.
    """
    if not values:
        return {}
    lo = min(values.values())
    hi = max(values.values())
    if hi <= lo:
        return {k: 0.0 for k in values}
    return {k: (v - lo) / (hi - lo) for k, v in values.items()}


_NO_TERMS: Mapping[str, int] = MappingProxyType({})


def _term_counts(document: CrawledDocument) -> Mapping[str, int]:
    return document.counts.get("term", _NO_TERMS)


def _reject_duplicate_ids(
    documents: Iterable[CrawledDocument], where: str
) -> None:
    """Rows, norms and ``_by_id`` are keyed on the doc id."""
    seen: set[int] = set()
    for document in documents:
        if document.doc_id in seen:
            raise SearchError(
                f"doc {document.doc_id} listed twice in {where}"
            )
        seen.add(document.doc_id)


def _combine(
    weights: RankingWeights, cosine: float, confidence: float,
    authority: float,
) -> float:
    """The weighted linear combination of the brute-force path.

    The indexed kernel (:func:`~repro.search.index.exact_topk`) makes
    the same products and additions, left to right, in arrays, so every
    final score is bit-identical on both paths.
    """
    return (
        weights.cosine * cosine
        + weights.confidence * confidence
        + weights.authority * authority
    )


@dataclass
class _FilterView:
    """What one ``(topic, exact)`` filter derives from the documents
    alone -- never from a query -- and so holds for a whole epoch."""

    candidates: list[CrawledDocument]
    doc_ids: list[int]
    """The candidates' ids, ascending: position ``p`` of every array
    below is document ``doc_ids[p]``."""
    rows: np.ndarray | None = None
    """The candidates' rows in the inverted index, ``None`` when they
    are all of its rows."""
    norms: np.ndarray | None = None
    """The candidates' exact norms, a document without terms read as
    1.0 (see :func:`~repro.search.index.exact_topk`); set with
    :attr:`rows` by the first indexed query (the brute-force path
    builds no index)."""
    confidences: np.ndarray | None = None
    authorities: np.ndarray | None = None
    """The normalised maps of :meth:`LocalSearchEngine._components` as
    arrays parallel to ``doc_ids``, filled the first time a query
    weights the scheme.  Nothing here depends on request-supplied
    weights: a request scales them."""


class LocalSearchEngine:
    """Filter + rank over the crawler's stored documents."""

    def __init__(self, documents: Sequence[CrawledDocument],
                 indexed: bool = True) -> None:
        self.indexed = indexed
        """Serve ``search`` through the inverted index (built lazily on
        the first query).  The brute-force path remains available as
        :meth:`rank_all` and is rank-identical by construction."""
        self.queries = 0
        self.queries_failed = 0
        """Queries rejected with a :class:`~repro.errors.SearchError`
        (invalid weights, negative ``top_k``, no indexable terms).
        Failed queries still count into :attr:`queries`."""
        self.candidates_ranked = 0
        """Sum over queries of the filtered set's size: what a ranking
        has to choose from, identical on the indexed and the
        brute-force path -- not the work done, see below."""
        self.documents_scored = 0
        """Candidates whose cosine is a sum of products: every candidate
        on the brute-force path (each builds its vector), on the
        indexed one those the query's runs reach (the others read
        0.0)."""
        self.authority_runs = 0
        """HITS computations since construction."""
        _reject_duplicate_ids(documents, "the corpus")
        self.documents = list(documents)
        self.vectorizer = TfIdfVectorizer()
        for document in self.documents:
            self.vectorizer.ingest(_term_counts(document).keys())
        self.vectorizer.refresh()
        self._by_id = {d.doc_id: d for d in self.documents}
        self._index: InvertedIndex | None = None
        """Built lazily, by the first indexed query."""
        self._move_epoch(Epoch.initial(self.vectorizer.snapshot_version))

    # -- epoch lifecycle ----------------------------------------------------

    def _move_epoch(self, epoch: Epoch) -> Epoch:
        """The one assignment of the epoch; everything derived per
        epoch and filled lazily (filter views, the url map) is dropped
        with it."""
        self._epoch = epoch
        self._views: dict[tuple[str | None, bool], _FilterView] = {}
        self._url_to_doc: dict[str, int] | None = None
        return epoch

    @property
    def epoch(self) -> Epoch:
        """The engine's current :class:`~repro.search.epoch.Epoch`.

        The one typed token every consumer keys invalidation on: the
        :class:`~repro.search.index.QueryCache` stores entries under it,
        the :class:`~repro.search.index.InvertedIndex` is valid for its
        snapshot component, :class:`~repro.search.serving.QueryServer`
        stamps responses with it.
        If the vectorizer's idf snapshot refreshed underneath the engine
        (a retraining point), the epoch syncs to it here -- mirroring
        how the legacy tuple read the snapshot version live.
        """
        if self._epoch.snapshot_version != self.vectorizer.snapshot_version:
            self._move_epoch(
                self._epoch.synced(self.vectorizer.snapshot_version)
            )
        return self._epoch

    @property
    def generation(self) -> int:
        """The epoch's lifecycle generation (kept for stats parity)."""
        return self._epoch.generation

    def advance_epoch(self, reason: str) -> Epoch:
        """Explicitly move the engine to a new epoch.

        Every epoch-keyed cache entry becomes unreachable and the filter
        views are dropped; the inverted index survives only if the idf
        snapshot is unchanged.  :meth:`apply_delta` funnels through
        here.
        """
        return self._move_epoch(
            self.epoch.advance(
                reason, snapshot_version=self.vectorizer.snapshot_version
            )
        )

    def index(self) -> InvertedIndex:
        """The inverted index over the current corpus (built lazily)."""
        index = self._index
        if index is None or (
            index.snapshot_version != self.vectorizer.snapshot_version
        ):
            index = self._index = InvertedIndex.build(
                {d.doc_id: _term_counts(d) for d in self.documents},
                self.vectorizer.statistics,
                self.epoch,
            )
        return index

    # -- incremental corpus updates -----------------------------------------

    def apply_delta(
        self,
        added: Sequence[CrawledDocument] = (),
        changed: Sequence[CrawledDocument] = (),
        removed: Iterable[int] = (),
        reason: str = "recrawl",
    ) -> DeltaReport:
        """Fold new/changed/deleted documents in without a full rebuild.

        Document frequencies are adjusted by the delta (integer
        bookkeeping -- exact) and the idf snapshot is refreshed; the
        index, if one was built, drops the entries of the documents
        that left and appends those of the documents that arrived
        (:meth:`InvertedIndex.apply_update
        <repro.search.index.InvertedIndex.apply_update>`).  Nothing
        stored holds an idf, so the fold costs the delta whether or not
        the corpus size moved (the next index derives its idf, norms
        and term-major runs afresh), and no vector is built.  The result
        is proven identical to a from-scratch engine -- ids, float
        scores, order -- by ``tests/portal/test_incremental_parity``
        and the delta-sequence property in ``tests/search``.

        ``changed`` documents keep their ``doc_id``; ``removed`` is an
        iterable of doc ids.  An id may appear once per argument and in
        one argument only.  The epoch advances with ``reason`` so every
        epoch-keyed cache invalidates.
        """
        removed_ids = sorted(set(removed))
        _reject_duplicate_ids(added, "added")
        _reject_duplicate_ids(changed, "changed")
        changed_by_id = {d.doc_id: d for d in changed}
        changed_ids = sorted(changed_by_id)
        added_docs = sorted(added, key=lambda d: d.doc_id)
        for doc_id in removed_ids:
            if doc_id not in self._by_id:
                raise SearchError(f"cannot remove unknown doc {doc_id}")
            if doc_id in changed_by_id:
                raise SearchError(f"doc {doc_id} both changed and removed")
        for doc_id in changed_ids:
            if doc_id not in self._by_id:
                raise SearchError(f"cannot change unknown doc {doc_id}")
        for doc in added_docs:
            if doc.doc_id in self._by_id:
                raise SearchError(f"doc {doc.doc_id} already indexed")

        left = [*removed_ids, *changed_ids]
        arrived = {
            doc_id: _term_counts(changed_by_id[doc_id])
            for doc_id in changed_ids
        }
        arrived.update((doc.doc_id, _term_counts(doc)) for doc in added_docs)
        dropped = written = 0
        for doc_id in left:
            terms = _term_counts(self._by_id[doc_id]).keys()
            self.vectorizer.retract(terms)
            dropped += len(terms)
        for counts in arrived.values():
            self.vectorizer.ingest(counts.keys())
            written += len(counts)
        self.vectorizer.refresh()

        removed_set = frozenset(removed_ids)
        documents = [
            changed_by_id.get(doc.doc_id, doc)
            for doc in self.documents
            if doc.doc_id not in removed_set
        ]
        documents.extend(added_docs)
        self.documents = documents
        self._by_id = {d.doc_id: d for d in documents}

        epoch = self.advance_epoch(reason)
        if self._index is not None:
            self._index = self._index.apply_update(
                arrived, left, self.vectorizer.statistics, epoch
            )
        return DeltaReport(
            epoch=epoch,
            docs_added=len(added_docs),
            docs_changed=len(changed_ids),
            docs_removed=len(removed_ids),
            postings_written=written,
            postings_dropped=dropped,
        )

    # -- filtering ----------------------------------------------------------

    def _view(self, topic: str | None, exact: bool) -> _FilterView | None:
        """This epoch's view of one filter, derived on first use: exact
        is the class itself, vague the class's subtree.

        ``None`` when no document matches: topic strings arrive with
        requests, and one that selects nothing must not grow the
        engine."""
        key = (topic, exact or topic is None)
        view = self._views.get(key)
        if view is None:
            if topic is None:
                candidates = list(self.documents)
            elif exact:
                candidates = [d for d in self.documents if d.topic == topic]
            else:
                prefix = topic + "/"
                candidates = [
                    d for d in self.documents
                    if d.topic == topic or d.topic.startswith(prefix)
                ]
            if not candidates:
                return None
            view = self._views[key] = _FilterView(
                candidates, sorted(d.doc_id for d in candidates)
            )
        return view

    def _view_components(
        self, view: _FilterView, weights: RankingWeights
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """:meth:`_components` over the view, each scheme computed the
        first time a query weights it and kept for the epoch; ``None``
        for a scheme the request does not weight."""
        missing = RankingWeights(
            cosine=0.0,
            confidence=0.0 if view.confidences is not None
            else weights.confidence,
            authority=0.0 if view.authorities is not None
            else weights.authority,
        )
        if missing.confidence > 0 or missing.authority > 0:
            confidences, authorities = self._components(
                view.candidates, missing
            )
            if confidences:
                view.confidences = np.array(
                    [confidences.get(d, 0.0) for d in view.doc_ids]
                )
            if authorities:
                view.authorities = np.array(
                    [authorities.get(d, 0.0) for d in view.doc_ids]
                )
        return (
            view.confidences if weights.confidence > 0 else None,
            view.authorities if weights.authority > 0 else None,
        )

    # -- ranking ------------------------------------------------------------

    def _query_vector(self, query: str) -> SparseVector:
        stems = text_stems(query)
        if not stems:
            raise SearchError(f"query {query!r} has no indexable terms")
        return self.vectorizer.vectorize(stems)

    def _authority_scores(
        self, documents: Sequence[CrawledDocument]
    ) -> dict[int, float]:
        # a link row holds the *raw* (pre-redirect) target URL, but a
        # redirected document is stored under its final URL -- index
        # both so edges through redirects reach their target (the
        # final-URL mapping wins on collision, matching dedup's
        # canonical-document choice)
        url_to_doc = self._url_to_doc
        if url_to_doc is None:
            url_to_doc = self._url_to_doc = {
                d.url: d.doc_id for d in self.documents
            }
            for d in self.documents:
                url_to_doc[d.final_url] = d.doc_id
        member_ids = {d.doc_id for d in documents}
        graph = LinkGraph()
        for document in documents:
            graph.add_node(document.doc_id, host=document.host)
            for url in document.out_urls:
                target = url_to_doc.get(url)
                if target is not None and target in member_ids:
                    graph.add_edge(document.doc_id, target)
        self.authority_runs += 1
        return hits(graph).authority

    def _components(
        self,
        candidates: Sequence[CrawledDocument],
        weights: RankingWeights,
    ) -> tuple[dict[int, float], dict[int, float]]:
        """Normalised confidence and authority maps over the filter.

        Zero-weighted schemes return an empty map (every lookup falls
        back to 0.0): the scheme contributes nothing to the score, and
        skipping its normalisation pass keeps the query path O(matched)
        instead of O(candidates).
        """
        confidences = (
            _min_max_normalize(
                {d.doc_id: d.confidence for d in candidates}
            )
            if weights.confidence > 0
            else {}
        )
        authorities = (
            _min_max_normalize(self._authority_scores(candidates))
            if weights.authority > 0
            else {}
        )
        return confidences, authorities

    def rank_all(
        self,
        candidates: Sequence[CrawledDocument],
        query_vector: SparseVector,
        weights: RankingWeights,
    ) -> list[RankedHit]:
        """Brute-force reference: score and sort *every* candidate,
        each through its own tf*idf vector (none is kept)."""
        confidences, authorities = self._components(candidates, weights)
        vectorize = self.vectorizer.vectorize_counts
        cosines = {
            d.doc_id: cosine_similarity(
                query_vector, vectorize(_term_counts(d))
            )
            for d in candidates
        }
        hits_list = [
            RankedHit(
                document=d,
                score=_combine(
                    weights,
                    cosines[d.doc_id],
                    confidences.get(d.doc_id, 0.0),
                    authorities.get(d.doc_id, 0.0),
                ),
                cosine=cosines[d.doc_id],
                confidence=confidences.get(d.doc_id, 0.0),
                authority=authorities.get(d.doc_id, 0.0),
            )
            for d in candidates
        ]
        hits_list.sort(key=lambda hit: (-hit.score, hit.document.doc_id))
        return hits_list

    def _rank_indexed(
        self,
        view: _FilterView,
        query_vector: SparseVector,
        weights: RankingWeights,
        top_k: int,
    ) -> list[RankedHit]:
        """Index-backed top-k, rank-identical to :meth:`rank_all`: the
        kernel scores every candidate from the index's runs and exact
        norms and the view's arrays, in ``cosine_similarity``'s and
        :func:`_combine`'s order, so every returned hit carries the
        brute path's floats."""
        index = self.index()
        confidences, authorities = self._view_components(view, weights)
        if view.norms is None:
            rows = index.rows(view.doc_ids)
            norms = index.norms[rows]
            norms[norms == 0.0] = 1.0
            view.rows = None if len(rows) == index.doc_count else rows
            view.norms = norms
        static = [
            (weight, component)
            for weight, component in (
                (weights.confidence, confidences),
                (weights.authority, authorities),
            )
            if component is not None
        ]
        top = wand_topk(
            index, query_vector.weights, view.rows,
            query_vector.norm * view.norms, weights.cosine, static, top_k,
        )
        self.documents_scored += top.reached
        return [
            RankedHit(
                document=self._by_id[view.doc_ids[position]],
                score=score,
                cosine=cosine,
                confidence=0.0 if confidences is None
                else float(confidences[position]),
                authority=0.0 if authorities is None
                else float(authorities[position]),
            )
            for position, score, cosine in zip(
                top.positions, top.scores, top.cosines
            )
        ]

    def search(
        self,
        query: str,
        topic: str | None = None,
        exact: bool = True,
        weights: RankingWeights | None = None,
        top_k: int = 10,
    ) -> list[RankedHit]:
        """Rank the filtered documents against ``query``.

        Component scores are min-max normalised over the filtered set
        before the weighted linear combination, so weights are comparable
        across schemes.  Counter accounting is consistent on every path:
        failed queries (invalid weights, negative ``top_k``, no
        indexable terms) increment both :attr:`queries` and
        :attr:`queries_failed`.
        """
        weights = weights or RankingWeights()
        self.queries += 1
        try:
            weights.validate()
            if top_k < 0:
                raise SearchError(f"top_k must not be negative: {top_k}")
            view = self._view(topic, exact)
            ranked = 0 if view is None else len(view.candidates)
            self.candidates_ranked += ranked
            if view is None:
                return []
            query_vector = self._query_vector(query)
            if top_k == 0:
                return []
            if self.indexed:
                return self._rank_indexed(view, query_vector, weights, top_k)
            self.documents_scored += ranked
            return self.rank_all(
                view.candidates, query_vector, weights
            )[:top_k]
        except SearchError:
            self.queries_failed += 1
            raise

    # -- observability ------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Query counters (:class:`repro.obs.api.Instrumented`)."""
        stats = {
            "queries": float(self.queries),
            "queries_failed": float(self.queries_failed),
            "candidates_ranked": float(self.candidates_ranked),
            "documents_scored": float(self.documents_scored),
            "documents_indexed": float(len(self.documents)),
            "generation": float(self.generation),
            "filter_views": float(len(self._views)),
            "authority_runs": float(self.authority_runs),
        }
        if self._index is not None:
            stats.update(self._index.stats())
        return stats

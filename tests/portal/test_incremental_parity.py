"""Acceptance gate: incremental folds are bit-identical to rebuilds.

After a batch of evolve + recrawl cycles, the portal's incrementally
maintained search engine (``apply_delta`` folds: integer df bookkeeping,
posting entries masked out and appended) must be indistinguishable --
document frequencies, idf snapshot, every vector weight, and every
ranked result (ids, scores, order) -- from a :class:`LocalSearchEngine`
rebuilt from scratch over the same served documents.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.engine import HARVESTING_DECISION_MODE
from repro.portal import EvolutionConfig, LivingPortal, RecrawlScheduler
from repro.search.engine import LocalSearchEngine, RankingWeights

from tests.portal.conftest import EVOLUTION_SEED, build_engine, build_portal

QUERIES = (
    "database recovery",
    "mining patterns",
    "recovery algorithms source code",
)

FILTERS = (
    (None, True),
    ("ROOT/databases", True),
    ("ROOT/databases", False),
    ("ROOT/datamining", True),
    ("ROOT/nonexistent", True),
)

WEIGHTS = (
    RankingWeights(cosine=1.0),
    RankingWeights(cosine=0.5, confidence=0.5),
    RankingWeights(cosine=0.4, confidence=0.3, authority=0.3),
)


#: ranked after *every* delta: the default, and one that weights HITS
#: authority -- what a view carried over an epoch would get wrong
PER_DELTA_WEIGHTS = (
    RankingWeights(),
    RankingWeights(cosine=0.6, confidence=0.2, authority=0.2),
)


def hit_tuples(hits):
    return [
        (h.document.doc_id, h.score, h.cosine, h.confidence, h.authority)
        for h in hits
    ]


@pytest.fixture(scope="module")
def evolved_portal():
    """A portal that lived through three mutation/recrawl cycles."""
    portal = build_portal()
    # built before the folds, so the index is a maintained one
    portal.search.index()
    folds = 0
    for _ in range(3):
        portal.evolve(3600.0)
        cycle = portal.recrawl(budget=60)
        if cycle.search is not None:
            folds += 1
    # the scenario must actually exercise the incremental path
    assert folds > 0, "evolution produced no delta to fold"
    return portal


@pytest.fixture(scope="module")
def rebuilt(evolved_portal):
    """The from-scratch reference over the identical served corpus."""
    return LocalSearchEngine(evolved_portal.search.documents)


class TestIncrementalEqualsRebuild:
    def test_corpus_and_idf_statistics_match(
        self, evolved_portal, rebuilt
    ) -> None:
        incremental = evolved_portal.search
        assert [d.doc_id for d in incremental.documents] == [
            d.doc_id for d in rebuilt.documents
        ]
        a = incremental.vectorizer.statistics
        b = rebuilt.vectorizer.statistics
        assert a.document_count == b.document_count
        assert dict(a.document_frequency) == dict(b.document_frequency)
        assert a._snapshot_df == b._snapshot_df
        assert a._snapshot_n == b._snapshot_n

    def test_every_vector_is_bit_identical(
        self, evolved_portal, rebuilt
    ) -> None:
        """Every served document's vector under the two snapshots, and
        the exact norm each index scores it with: a norm that survived
        a fold would be caught here."""
        incremental = evolved_portal.search
        ours_index = incremental.index()
        reference_index = rebuilt.index()
        ids = sorted(d.doc_id for d in rebuilt.documents)
        assert ours_index._doc_ids.tolist() == ids
        assert reference_index._doc_ids.tolist() == ids
        for document in rebuilt.documents:
            counts = document.counts.get("term", Counter())
            ours = incremental.vectorizer.vectorize_counts(counts)
            reference = rebuilt.vectorizer.vectorize_counts(counts)
            doc_id = document.doc_id
            assert ours.weights == reference.weights, doc_id
            assert ours.norm == reference.norm, doc_id
            row = ids.index(doc_id)
            assert ours_index.norms[row] == reference_index.norms[row] == (
                reference.norm
            ), doc_id

    def test_term_runs_are_exact_weights(self, evolved_portal) -> None:
        """The index applies the snapshot's idf: its run for a term is
        as long as the snapshot's df, a term no document holds any more
        has no run, and every entry is the document vector's weight for
        the term, bit for bit."""
        engine = evolved_portal.search
        index = engine.index()
        snapshot_df = engine.vectorizer.statistics._snapshot_df
        assert len(index) == len(snapshot_df)
        checked = 0
        for term in sorted(snapshot_df):
            rows, weights = index.run(term)
            assert len(rows) == snapshot_df[term], term
            for doc_id, weight in zip(
                index._doc_ids[rows].tolist(), weights.tolist()
            ):
                vector = engine.vectorizer.vectorize_counts(
                    engine._by_id[doc_id].counts["term"]
                )
                assert weight == vector.weights[term], (term, doc_id)
                checked += 1
        assert checked == index.postings_total
        gone = [term for term in index._columns if term not in snapshot_df]
        assert gone, "three folds retired no term: the case is untested"
        assert all(index.run(term) is None for term in gone)

    def test_ranked_results_match_across_topk_and_filters(
        self, evolved_portal, rebuilt
    ) -> None:
        incremental = evolved_portal.search
        size = len(rebuilt.documents)
        for query in QUERIES:
            for topic, exact in FILTERS:
                for weights in WEIGHTS:
                    for top_k in (1, 3, 10, size + 5):
                        ours = incremental.search(
                            query, topic=topic, exact=exact,
                            weights=weights, top_k=top_k,
                        )
                        reference = rebuilt.search(
                            query, topic=topic, exact=exact,
                            weights=weights, top_k=top_k,
                        )
                        assert hit_tuples(ours) == hit_tuples(reference), (
                            f"query={query!r} topic={topic!r} "
                            f"exact={exact} top_k={top_k}"
                        )

    def test_indexed_path_still_matches_brute_force(
        self, evolved_portal
    ) -> None:
        incremental = evolved_portal.search
        for query in QUERIES:
            query_vector = incremental._query_vector(query)
            brute = incremental.rank_all(
                list(incremental.documents), query_vector, RankingWeights()
            )
            indexed = incremental.search(query, top_k=10)
            assert hit_tuples(indexed) == hit_tuples(brute[:10])

    def test_epoch_advanced_once_per_fold(self, evolved_portal) -> None:
        epoch = evolved_portal.search.epoch
        assert epoch.reason == "recrawl"
        assert epoch.generation >= 1
        assert epoch.ordinal >= epoch.generation


class TestEveryDeltaEqualsRebuild:
    def test_ranked_results_match_after_every_fold(self) -> None:
        """The module fixture only looks once three folds are done; here
        the engine is queried between folds, so each delta lands on an
        engine whose per-epoch state is warm."""
        portal = build_portal()
        folds = 0
        for cycle_number in range(4):
            if cycle_number:
                portal.evolve(3600.0)
                cycle = portal.recrawl(budget=60)
                if cycle.search is None:
                    continue
                folds += 1
            incremental = portal.search
            rebuilt = LocalSearchEngine(incremental.documents)
            for query in QUERIES:
                for topic, exact in FILTERS:
                    for weights in PER_DELTA_WEIGHTS:
                        arguments = dict(
                            topic=topic, exact=exact, weights=weights,
                            top_k=10,
                        )
                        assert hit_tuples(
                            incremental.search(query, **arguments)
                        ) == hit_tuples(
                            rebuilt.search(query, **arguments)
                        ), (
                            f"cycle={cycle_number} query={query!r} "
                            f"topic={topic!r} exact={exact} "
                            f"weights={weights}"
                        )
        assert folds > 1, "evolution produced no sequence of deltas"


class TestNonEvolvingBaseline:
    def test_recrawl_without_evolution_changes_nothing(self) -> None:
        portal = build_portal()
        before = [
            (d.doc_id, d.final_url) for d in portal.search.documents
        ]
        epoch_before = portal.search.epoch
        cycle = portal.recrawl(budget=40)
        assert cycle.search is None  # empty delta: no epoch churn
        assert cycle.recrawl.changed == 0
        assert cycle.recrawl.dead == 0
        assert portal.search.epoch == epoch_before
        assert [
            (d.doc_id, d.final_url) for d in portal.search.documents
        ] == before
        report = portal.freshness()
        assert report.stale_documents == 0
        assert report.dead_indexed == 0
        assert report.lag_max == 0.0

    def test_ticks_over_a_frozen_web_change_nothing(self) -> None:
        """Evolution ticks apply but every rate is zero: three
        evolve + recrawl cycles must still be a strict no-op."""
        portal = LivingPortal(
            build_engine(),
            evolution_config=EvolutionConfig(
                seed=EVOLUTION_SEED,
                mutation_rate=0.0,
                death_rate=0.0,
                birth_rate=0.0,
                link_rot_rate=0.0,
            ),
        ).open()
        before = [
            (d.doc_id, d.final_url, d.topic) for d in portal.ctx.documents
        ]
        epoch_before = portal.search.epoch
        for _ in range(3):
            portal.evolve(3600.0)
            cycle = portal.recrawl(budget=40)
            assert cycle.search is None
            assert cycle.recrawl.changed == 0
        assert portal.evolution.applied_tick > 0
        assert portal.search.epoch == epoch_before
        assert [
            (d.doc_id, d.final_url, d.topic) for d in portal.ctx.documents
        ] == before
        report = portal.freshness()
        assert report.stale_documents + report.dead_indexed == 0


class TestDiscoveredPagesScoreLikeCrawledOnes:
    def test_store_new_confidence_is_the_batch_confidence(self) -> None:
        """The recrawl classifies a discovered page on its own; the
        crawl would have classified it inside a batch.  Both are the
        same descent, so the stored confidence is exactly the one
        ``classify_batch`` gives the page's counts."""
        portal = build_portal()
        portal.evolve(3 * 3600.0)
        # the scheduler alone: nothing is folded, so the classifier
        # still is the one _store_new asked
        portal.scheduler.run(budget=120)
        added = portal.scheduler.pending.added
        assert added, "evolution gave the recrawl nothing to discover"
        # fresh Counter objects: the vector cache keys on identity
        copies = [
            {space: Counter(counts) for space, counts in doc.counts.items()}
            for doc in added
        ]
        classifier = portal.engine.classifier
        batch = classifier.classify_batch(copies, HARVESTING_DECISION_MODE)
        for doc, counts, in_batch in zip(added, copies, batch):
            alone = classifier.classify_batch(
                [counts], HARVESTING_DECISION_MODE
            )[0]
            assert (doc.topic, doc.confidence) == (
                alone.topic, alone.confidence
            ) == (in_batch.topic, in_batch.confidence)


def test_the_recrawl_frontier_has_no_worker_count() -> None:
    # crawl workers shard the crawl; a revisit cycle is one frontier
    with pytest.raises(TypeError):
        LivingPortal(object(), **{"workers": 3})
    with pytest.raises(TypeError):
        RecrawlScheduler(object(), **{"workers": 3})

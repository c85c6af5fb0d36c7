"""Tests for the inverted index: compression, metadata, storage build."""

from __future__ import annotations

import random

import pytest

from repro.errors import SearchError
from repro.perf.topk import (
    PostingCursor,
    decode_doc_ids,
    encode_doc_ids,
    wand_topk,
)
from repro.search.engine import LocalSearchEngine
from repro.search.epoch import Epoch
from repro.search.index import Postings, QueryCache
from repro.storage import Database, sync_term_statistics

from tests.search.conftest import make_doc


class TestVarintCompression:
    def test_round_trip(self) -> None:
        rng = random.Random(7)
        ids = sorted(rng.sample(range(1_000_000), 500))
        assert decode_doc_ids(encode_doc_ids(ids)) == ids

    def test_empty_and_single(self) -> None:
        assert decode_doc_ids(encode_doc_ids([])) == []
        assert decode_doc_ids(encode_doc_ids([0])) == [0]
        assert decode_doc_ids(encode_doc_ids([12345])) == [12345]

    def test_rejects_non_increasing(self) -> None:
        with pytest.raises(ValueError):
            encode_doc_ids([3, 3])
        with pytest.raises(ValueError):
            encode_doc_ids([5, 2])
        with pytest.raises(ValueError):
            encode_doc_ids([-1])

    def test_compresses_dense_runs(self) -> None:
        ids = list(range(50_000, 51_000))
        assert len(encode_doc_ids(ids)) < 8 * len(ids)

    def test_truncated_varint_rejected(self) -> None:
        with pytest.raises(ValueError):
            decode_doc_ids(b"\x80")


class TestPostings:
    def test_lazy_decode_and_metadata(self) -> None:
        norms = {1: 2.0, 5: 1.0, 9: 4.0}
        postings = Postings([1, 5, 9], [1.0, 3.0, 2.0], norms)
        assert postings.count == 3
        assert postings.max_weight == 3.0
        # impacts: 1/2, 3/1, 2/4 -> max 3.0
        assert postings.max_impact == 3.0
        assert postings._doc_ids is None
        assert postings.doc_ids() == [1, 5, 9]
        assert list(postings.weights()) == [1.0, 3.0, 2.0]
        assert postings._doc_ids is not None

    def test_rejects_mismatched_runs(self) -> None:
        with pytest.raises(SearchError):
            Postings([1, 2], [1.0], {1: 1.0, 2: 1.0})
        with pytest.raises(SearchError):
            Postings([], [], {})


class TestWandKernel:
    def test_exhaustive_equivalence(self) -> None:
        """WAND against a brute-force evaluation of the same runs."""
        rng = random.Random(13)
        for trial in range(25):
            doc_count = rng.randint(1, 60)
            term_count = rng.randint(1, 5)
            runs = []
            scores = dict.fromkeys(range(doc_count), 0.0)
            for _ in range(term_count):
                ids = sorted(
                    rng.sample(range(doc_count), rng.randint(1, doc_count))
                )
                weight = rng.uniform(0.1, 2.0)
                for doc_id in ids:
                    scores[doc_id] += weight
                runs.append((ids, weight))
            matched = set()
            for ids, _weight in runs:
                matched.update(ids)
            k = rng.randint(1, doc_count + 2)
            cursors = [PostingCursor(ids, weight) for ids, weight in runs]
            result = wand_topk(
                cursors, k, lambda doc_id: scores[doc_id]
            )
            expected = sorted(
                ((scores[d], d) for d in sorted(matched)),
                key=lambda pair: (-pair[0], pair[1]),
            )[:k]
            assert (
                sorted(result, key=lambda pair: (-pair[0], pair[1]))
                == expected
            ), f"trial {trial}"

    def test_members_filter_and_k_zero(self) -> None:
        cursors = [PostingCursor([0, 1, 2], 1.0)]
        assert wand_topk(cursors, 0, lambda d: 1.0) == []
        cursors = [PostingCursor([0, 1, 2], 1.0)]
        result = wand_topk(cursors, 5, lambda d: float(d), members={1})
        assert result == [(1.0, 1)]


def _corpus():
    return [
        make_doc(0, {"recoveri": 5, "algorithm": 2}, confidence=0.9),
        make_doc(1, {"sourc": 3, "code": 3, "releas": 2}, confidence=0.4),
        make_doc(2, {"recoveri": 1, "log": 4}, confidence=0.7),
        make_doc(3, {"sport": 5, "goal": 3}, topic="ROOT/OTHERS"),
        make_doc(4, {"recoveri": 2, "sourc": 2}, confidence=0.6),
    ]


class TestInvertedIndex:
    def test_build_matches_engine_vectors(self) -> None:
        engine = LocalSearchEngine(_corpus())
        index = engine.index()
        assert len(index) > 0
        postings = index.postings("recoveri")
        assert postings is not None
        assert postings.doc_ids() == [0, 2, 4]
        for doc_id, weight in zip(postings.doc_ids(), postings.weights()):
            assert weight == engine._vectors[doc_id].get("recoveri")
        impacts = [
            engine._vectors[d].get("recoveri") / engine._vectors[d].norm
            for d in (0, 2, 4)
        ]
        assert postings.max_impact == max(impacts)
        assert index.postings("unknown-term") is None

    def test_matching_ids(self) -> None:
        engine = LocalSearchEngine(_corpus())
        index = engine.index()
        assert index.matching_ids(["recoveri", "code"]) == {0, 1, 2, 4}
        assert index.matching_ids(["nope"]) == set()

    def test_stats_are_snake_case_floats(self) -> None:
        engine = LocalSearchEngine(_corpus())
        stats = engine.index().stats()
        assert stats["index_documents"] == 5.0
        assert stats["index_postings"] > 0
        assert stats["index_compressed_bytes"] > 0
        assert all(isinstance(v, float) for v in stats.values())


class TestQueryCache:
    def test_hit_miss_and_lru(self) -> None:
        epoch = Epoch.initial(1)
        cache = QueryCache(maxsize=2)
        assert cache.get(epoch, "a") is None
        cache.put(epoch, "a", 1)
        cache.put(epoch, "b", 2)
        assert cache.get(epoch, "a") == 1
        cache.put(epoch, "c", 3)  # evicts b (least recently used)
        assert cache.get(epoch, "b") is None
        assert cache.get(epoch, "a") == 1
        assert cache.get(epoch, "c") == 3
        assert cache.stats()["query_cache_entries"] == 2.0

    def test_epoch_advance_makes_entries_unreachable(self) -> None:
        epoch = Epoch.initial(1)
        cache = QueryCache(maxsize=4)
        cache.put(epoch, "a", 1)
        advanced = epoch.advance("rebuild")
        assert cache.get(advanced, "a") is None
        assert cache.get(epoch, "a") == 1  # old epoch still addressable

    def test_invalidate(self) -> None:
        epoch = Epoch.initial(1)
        cache = QueryCache()
        cache.put(epoch, "a", 1)
        cache.invalidate()
        assert cache.get(epoch, "a") is None
        assert cache.stats()["query_cache_invalidations"] == 1.0

    def test_zero_capacity(self) -> None:
        epoch = Epoch.initial(1)
        cache = QueryCache(maxsize=0)
        cache.put(epoch, "a", 1)
        assert cache.get(epoch, "a") is None


class TestEpochLifecycle:
    def test_engine_epoch_advances_on_rebuild(self) -> None:
        engine = LocalSearchEngine(_corpus())
        epoch = engine.epoch
        before = [
            (h.document.doc_id, h.score) for h in engine.search("recovery")
        ]
        assert engine.epoch == epoch
        rebuilt = engine.rebuild(reason="retrain")
        assert rebuilt.ordinal > epoch.ordinal
        assert rebuilt.generation == epoch.generation + 1
        assert rebuilt.reason == "retrain"
        # same corpus, fresh index: results are unchanged
        after = [
            (h.document.doc_id, h.score) for h in engine.search("recovery")
        ]
        assert after == before and before

    def test_deprecated_shims_are_gone(self) -> None:
        # the one-release cache_token / refresh() bridges from the
        # Epoch migration were removed; epoch is the only token now
        engine = LocalSearchEngine(_corpus())
        assert not hasattr(engine, "cache_token")
        assert not hasattr(engine, "refresh")
        assert engine.epoch.token == (
            engine.epoch.snapshot_version, engine.epoch.generation
        )


class TestTermStatisticsSync:
    def test_sync_writes_snapshot_rows(self) -> None:
        engine = LocalSearchEngine(_corpus())
        database = Database()
        count = sync_term_statistics(database, engine.vectorizer)
        relation = database.table("term_statistics")
        assert count == len(relation) > 0
        row = relation.get("recoveri")
        assert row["df"] == 3
        assert row["idf"] == engine.vectorizer.statistics.idf("recoveri")
        # re-sync replaces, not duplicates
        assert sync_term_statistics(database, engine.vectorizer) == count
        assert len(relation) == count

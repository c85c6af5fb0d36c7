"""Tests for the inverted index: the posting matrix, the top-k kernel,
the query cache."""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.search.index as index_module
from repro.perf import topk
from repro.perf.topk import verified_topk
from repro.search.engine import LocalSearchEngine
from repro.search.epoch import Epoch
from repro.search.index import QueryCache

from tests.search.conftest import make_doc


class TestWandKernel:
    """The bound-then-verify kernel (the class keeps the name of the
    cursor walk it replaced)."""

    def test_exhaustive_equivalence(self) -> None:
        """The kernel against a brute-force evaluation of the same
        runs, the scorer handing back the same sums in another order."""
        rng = random.Random(13)
        for trial in range(25):
            doc_count = rng.randint(1, 60)
            runs = []
            scores = dict.fromkeys(range(doc_count), 0.0)
            for _ in range(rng.randint(1, 5)):
                ids = sorted(
                    rng.sample(range(doc_count), rng.randint(1, doc_count))
                )
                impacts = [rng.uniform(0.1, 2.0) for _ in ids]
                share = rng.uniform(0.1, 2.0)
                for doc_id, impact in zip(ids, impacts):
                    scores[doc_id] = share * impact + scores[doc_id]
                runs.append((np.array(ids), np.array(impacts), share))
            members = sorted(
                rng.sample(range(doc_count), rng.randint(1, doc_count))
            )
            k = rng.randint(1, doc_count + 2)
            scored: list[int] = []

            def score(position: int) -> float:
                scored.append(position)
                return scores[members[position]]

            result = verified_topk(
                runs, doc_count, np.array(members), None, k, score
            )
            expected = sorted(
                (
                    (scores[doc_id], position)
                    for position, doc_id in enumerate(members)
                ),
                key=lambda pair: (-pair[0], pair[1]),
            )[:k]
            assert result == expected, f"trial {trial}"
            assert len(scored) == len(set(scored)) == len(expected), (
                f"trial {trial}: uniform floats do not tie"
            )

    def test_members_filter_and_k_zero(self) -> None:
        runs = [(np.array([0, 1, 2]), np.array([1.0, 1.0, 1.0]), 1.0)]
        everyone = np.arange(3)
        assert verified_topk(runs, 3, everyone, None, 0, float) == []
        assert verified_topk(runs, 3, np.array([1]), None, 5, float) == [
            (0.0, 0)
        ]
        # the static component alone decides between equal impacts ...
        static = np.array([0.0, 0.5, 0.25])
        top = verified_topk(
            runs, 3, everyone, static, 2, lambda p: 1.0 + static[p]
        )
        assert top == [(1.5, 1), (1.25, 2)]
        # ... and members nothing matched fill up in position order
        assert verified_topk([], 3, everyone, None, 2, lambda p: 0.0) == [
            (0.0, 0), (0.0, 1)
        ]


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
        assert len(index) == 8
        assert "recoveri" in index
        rows, impacts = index.impacts("recoveri")
        assert rows.tolist() == [0, 2, 4]
        vectors = {
            d.doc_id: engine.vectorizer.vectorize_counts(d.counts["term"])
            for d in engine.documents
        }
        assert impacts.tolist() == pytest.approx(
            [
                vectors[d].weights["recoveri"] / vectors[d].norm
                for d in (0, 2, 4)
            ],
            rel=1e-12,
        )
        assert index.exact_norms == {
            d: (len(vector), vector.norm) for d, vector in vectors.items()
        }
        assert "unknown-term" not in index
        assert index.impacts("unknown-term") is None

    def test_a_document_without_terms_owns_a_row(self) -> None:
        documents = [make_doc(0, {}), *_corpus()[1:], make_doc(7, {})]
        engine = LocalSearchEngine(documents)
        index = engine.index()
        assert index.doc_count == 6
        assert index.rows([0, 1, 7]).tolist() == [0, 1, 5]
        rows, _ = index.impacts("recoveri")
        assert rows.tolist() == [2, 4]
        assert [h.document.doc_id for h in engine.search("sport")] == [
            3, 0, 1, 2, 4, 7
        ]

    def test_a_term_whose_last_document_left_reads_as_unindexed(self) -> None:
        engine = LocalSearchEngine(_corpus())
        engine.index()
        engine.apply_delta(removed=[3])
        index = engine.index()
        assert "sport" not in index and index.impacts("sport") is None
        assert index.stats()["index_terms"] == float(len(index)) == 6.0
        assert index.stats()["index_postings"] == 9.0
        # ... and is indexed again when a document brings it back
        engine.apply_delta(added=[make_doc(9, {"sport": 1, "log": 1})])
        rows, _ = engine.index().impacts("sport")
        assert rows.tolist() == [4]
        assert engine.index().stats()["index_terms"] == 7.0

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
        """The epoch is the invalidation: nothing is dropped eagerly."""
        epoch = Epoch.initial(1)
        cache = QueryCache()
        cache.put(epoch, "a", 1)
        assert cache.get(epoch.advance("retrain"), "a") is None
        assert len(cache) == 1
        assert cache.stats()["query_cache_invalidations"] == 0.0

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
        # an empty fold re-derives the idf snapshot and advances
        rebuilt = engine.apply_delta(reason="retrain").epoch
        assert rebuilt.ordinal > epoch.ordinal
        assert rebuilt.generation == epoch.generation + 1
        assert rebuilt.reason == "retrain"
        # same corpus, fresh snapshot: results are unchanged
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
        # the per-epoch document-vector memo and its counter
        assert not hasattr(engine, "vector")
        assert "vectors_built" not in engine.stats()
        # the cursor walk, and the compressed runs with their codec
        for name in (
            "PostingCursor", "BOUND_INFLATION", "wand_topk",
            "encode_doc_ids", "decode_doc_ids",
        ):
            assert not hasattr(topk, name)
        assert not hasattr(index_module, "Postings")
        for name in ("matching_ids", "postings", "terms"):
            assert not hasattr(engine.index(), name)


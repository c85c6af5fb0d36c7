"""Tests for the inverted index: the posting matrix, the top-k kernel,
the query cache."""

from __future__ import annotations

import importlib
import random

import numpy as np
import pytest

import repro.search.engine as engine_module
import repro.search.index as index_module
from repro.search.engine import LocalSearchEngine
from repro.search.epoch import Epoch
from repro.search.index import QueryCache, exact_topk
from repro.text.vectorizer import cosine_similarity

from tests.search.conftest import make_doc

_STEMS = ["recoveri", "algorithm", "sourc", "code", "log", "index"]


def _kernel_inputs(engine: LocalSearchEngine, text: str):
    """The kernel's query weights and every row's ``|q| * |d|`` (a
    zero norm read as 1.0), the way the engine hands them over."""
    index = engine.index()
    query_vector = engine._query_vector(text)
    norms = np.where(index.norms == 0.0, 1.0, index.norms)
    return (
        index, query_vector, query_vector.weights, query_vector.norm * norms
    )


class TestWandKernel:
    """The exact top-k kernel (the class keeps the name the engine
    binds it under, ``wand_topk``)."""

    def test_exhaustive_equivalence(self) -> None:
        """The kernel against ``cosine_similarity`` over every member's
        vector, combined in the engine's order and fully sorted, with
        static components on a coarse grid so that scores tie."""
        rng = random.Random(13)
        for trial in range(25):
            doc_count = rng.randint(1, 30)
            documents = [
                make_doc(doc_id, {
                    stem: rng.randint(1, 5)
                    for stem in rng.sample(_STEMS, rng.randint(0, 4))
                })
                for doc_id in range(doc_count)
            ]
            engine = LocalSearchEngine(documents)
            text = " ".join(rng.sample(
                ["recovery", "algorithm", "source", "code", "log"],
                rng.randint(1, 3),
            ))
            index, query_vector, query, denominators = _kernel_inputs(
                engine, text
            )
            rows = sorted(
                rng.sample(range(doc_count), rng.randint(1, doc_count))
            )
            members = np.array(rows)
            static = [
                (rng.choice([0.5, 1.0]),
                 np.array([rng.choice([0.0, 0.25]) for _ in rows]))
                for _ in range(rng.randint(0, 2))
            ]
            cosine_weight = rng.choice([0.0, 1.0, 2.0])
            k = rng.randint(1, doc_count + 2)
            top = exact_topk(
                index, query, members, denominators[members],
                cosine_weight, static, k,
            )
            expected = []
            for position, row in enumerate(rows):
                cosine = cosine_similarity(
                    query_vector,
                    engine.vectorizer.vectorize_counts(
                        documents[row].counts["term"]
                    ),
                )
                score = cosine_weight * cosine
                for weight, component in static:
                    score = score + weight * float(component[position])
                expected.append((-score, position, score, cosine))
            expected.sort()
            expected = expected[:k]
            assert top.positions == [e[1] for e in expected], trial
            assert top.scores == [e[2] for e in expected], trial
            assert top.cosines == [e[3] for e in expected], trial
            assert all(type(x) is float for x in top.scores + top.cosines)
            assert top.reached == sum(
                1 for row in rows
                if any(t in documents[row].counts["term"] for t in query)
            ), trial

    def test_members_filter_and_k_zero(self) -> None:
        documents = [
            make_doc(0, {"recoveri": 1}),
            make_doc(1, {"recoveri": 1}),
            make_doc(2, {"recoveri": 1}),
            make_doc(3, {"log": 2}),
            make_doc(4, {}),
        ]
        engine = LocalSearchEngine(documents)
        index, _, query, denominators = _kernel_inputs(engine, "recovery")
        top = exact_topk(index, query, None, denominators, 1.0, [], 0)
        assert top == ([], [], [], 3)
        top = exact_topk(
            index, query, np.array([1, 3]), denominators[[1, 3]], 1.0, [], 5
        )
        assert (top.positions, top.scores, top.reached) == (
            [0, 1], [1.0, 0.0], 1
        )
        # the static component alone decides between equal cosines ...
        static = [(1.0, np.array([0.0, 0.5, 0.25, 0.0, 0.0]))]
        top = exact_topk(index, query, None, denominators, 1.0, static, 2)
        assert (top.positions, top.scores) == ([1, 2], [1.5, 1.25])
        # ... and members nothing reached fill up in position order,
        # the document without terms (norm 0.0) at cosine 0.0
        top = exact_topk(index, query, None, denominators, 1.0, [], 5)
        assert top.positions == [0, 1, 2, 3, 4]
        assert top.cosines == [1.0, 1.0, 1.0, 0.0, 0.0]


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
        rows, weights = index.run("recoveri")
        assert rows.tolist() == [0, 2, 4]
        vectors = {
            d.doc_id: engine.vectorizer.vectorize_counts(d.counts["term"])
            for d in engine.documents
        }
        assert weights.tolist() == [
            vectors[d].weights["recoveri"] for d in (0, 2, 4)
        ]
        assert index.norms.tolist() == [
            vectors[d].norm for d in sorted(vectors)
        ]
        assert "unknown-term" not in index
        assert index.run("unknown-term") is None

    def test_a_document_without_terms_owns_a_row(self) -> None:
        documents = [make_doc(0, {}), *_corpus()[1:], make_doc(7, {})]
        engine = LocalSearchEngine(documents)
        index = engine.index()
        assert index.doc_count == 6
        assert index.rows([0, 1, 7]).tolist() == [0, 1, 5]
        rows, _ = index.run("recoveri")
        assert rows.tolist() == [2, 4]
        assert [h.document.doc_id for h in engine.search("sport")] == [
            3, 0, 1, 2, 4, 7
        ]

    def test_a_term_whose_last_document_left_reads_as_unindexed(self) -> None:
        engine = LocalSearchEngine(_corpus())
        engine.index()
        engine.apply_delta(removed=[3])
        index = engine.index()
        assert "sport" not in index and index.run("sport") is None
        assert index.stats()["index_terms"] == float(len(index)) == 6.0
        assert index.stats()["index_postings"] == 9.0
        # ... and is indexed again when a document brings it back
        engine.apply_delta(added=[make_doc(9, {"sport": 1, "log": 1})])
        rows, _ = engine.index().run("sport")
        assert rows.tolist() == [4]
        assert engine.index().stats()["index_terms"] == 7.0

    def test_an_index_is_read_only(self) -> None:
        """A write into an index's arrays raises: serving reads them and
        a fold makes the next index, so the old one stays as it was."""
        engine = LocalSearchEngine(_corpus())
        index = engine.index()
        names = (
            "_doc_ids", "_doc_cols", "_doc_tfw", "_lengths", "_idf",
            "norms", "_starts", "_rows", "_weights",
        )
        before = {name: getattr(index, name).copy() for name in names}
        for name in names:
            array = getattr(index, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        _, weights = index.run("recoveri")
        with pytest.raises(ValueError, match="read-only"):
            weights *= 2.0
        # the whole corpus, a topic and a fold: none writes into it
        assert engine.search("recovery algorithm")
        assert engine.search("source code", topic="ROOT/OTHERS")
        engine.apply_delta(
            added=[make_doc(9, {"recoveri": 1})], removed=[3]
        )
        assert engine.index() is not index
        for name in names:
            assert np.array_equal(getattr(index, name), before[name]), name

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
        # the cursor walk, the compressed runs with their codec, and
        # bound-then-verify with its per-document exact scorer
        with pytest.raises(ImportError):
            importlib.import_module("repro.perf.topk")
        for name in ("_indexed_cosine", "VERIFY_SLACK", "verified_topk"):
            assert not hasattr(engine_module, name)
        assert not hasattr(index_module, "Postings")
        for name in (
            "matching_ids", "postings", "terms", "impacts", "exact_norms",
        ):
            assert not hasattr(engine.index(), name)

"""Indexed-vs-brute rank parity: bit-identical results, not approx.

The serving tier's entire correctness story is that the WAND-backed
indexed path returns *exactly* what the brute-force reference returns:
same documents, same floating-point scores, same order.  This suite
sweeps topics (including exact/vague filters and a missing topic),
weight combinations, ``top_k`` edge cases and seeded random corpora,
comparing full ``(doc_id, score, cosine, confidence, authority)``
tuples with ``==``.
"""

from __future__ import annotations

import random

from repro.search.engine import LocalSearchEngine, RankingWeights
from repro.text.scanner import text_stems

from tests.search.conftest import make_doc

WORDS = [
    "recovery", "algorithm", "source", "code", "release", "log",
    "database", "transaction", "index", "portal", "crawler", "sport",
]

TOPICS = (
    "ROOT/databases",
    "ROOT/databases/subtopic",
    "ROOT/OTHERS",
)

WEIGHTS = [
    RankingWeights(cosine=1.0),
    RankingWeights(cosine=0.0, confidence=1.0),
    RankingWeights(cosine=0.0, authority=1.0),
    RankingWeights(cosine=0.5, confidence=0.5),
    RankingWeights(cosine=0.4, confidence=0.3, authority=0.3),
    RankingWeights(cosine=1.0, authority=1.0),
]

FILTERS = [
    (None, True),
    ("ROOT/databases", True),
    ("ROOT/databases", False),
    ("ROOT/nonexistent", True),
]

QUERIES = [
    "recovery",
    "source code release",
    "database transaction log recovery",
    "recovery zyzzyx",  # one matching + one unindexed term
]


def _stems() -> dict[str, str]:
    return {word: text_stems(word)[0] for word in WORDS}


def random_corpus(seed: int, size: int) -> list:
    """A seeded corpus whose terms are the stems of the query words."""
    rng = random.Random(seed)
    stems = sorted(_stems().values())
    documents = []
    for doc_id in range(size):
        terms = {
            term: rng.randint(1, 5)
            for term in rng.sample(stems, rng.randint(1, 6))
        }
        redirected = rng.random() < 0.3
        url = f"http://site{doc_id}.example/r{doc_id}.html"
        final_url = (
            f"http://site{doc_id}.example/p{doc_id}.html"
            if redirected
            else url
        )
        # link at *pre-redirect* urls so the redirect-aware authority
        # mapping is exercised, and at final urls for direct edges
        out_urls = []
        for _ in range(rng.randint(0, 3)):
            target = rng.randrange(size)
            attribute = "r" if rng.random() < 0.5 else "p"
            out_urls.append(
                f"http://site{target}.example/{attribute}{target}.html"
            )
        documents.append(
            make_doc(
                doc_id,
                terms,
                topic=rng.choice(TOPICS),
                confidence=round(rng.random(), 3),
                url=url,
                final_url=final_url,
                out_urls=tuple(out_urls),
            )
        )
    return documents


def hit_tuples(hits) -> list[tuple[int, float, float, float, float]]:
    return [
        (h.document.doc_id, h.score, h.cosine, h.confidence, h.authority)
        for h in hits
    ]


def assert_parity(engine: LocalSearchEngine, corpus_size: int) -> None:
    """Every ``(filter, weights)`` combination twice, interleaved: the
    first pass over a filter derives its view, every later one is
    served from it, and each is held against the uncached ``rank_all``
    -- a stale or cross-wired view has nowhere to hide."""
    top_ks = [0, 1, 3, 10, corpus_size + 5]
    combinations = [
        (filter_, weights) for filter_ in FILTERS for weights in WEIGHTS
    ]
    for query in QUERIES:
        query_vector = engine._query_vector(query)
        for (topic, exact), weights in combinations + combinations[::-1]:
            candidates = engine.filter(topic, exact=exact)
            brute = None
            for top_k in top_ks:
                indexed = engine.search(
                    query, topic=topic, exact=exact,
                    weights=weights, top_k=top_k,
                )
                if not candidates:
                    assert indexed == []
                    continue
                if brute is None:
                    brute = engine.rank_all(
                        candidates, query_vector, weights
                    )
                assert hit_tuples(indexed) == hit_tuples(
                    brute[:top_k]
                ), (
                    f"query={query!r} topic={topic!r} exact={exact} "
                    f"weights={weights} top_k={top_k}"
                )


class TestRankParity:
    def test_fixture_corpus(self, corpus) -> None:
        assert_parity(LocalSearchEngine(corpus), len(corpus))

    def test_random_corpora(self) -> None:
        for seed, size in ((1, 7), (2, 23), (3, 40)):
            engine = LocalSearchEngine(random_corpus(seed, size))
            assert_parity(engine, size)

    def test_unindexed_flag_matches_indexed(self, corpus) -> None:
        indexed = LocalSearchEngine(corpus, indexed=True)
        brute = LocalSearchEngine(corpus, indexed=False)
        for weights in WEIGHTS:
            for top_k in (1, 3, 10):
                assert hit_tuples(
                    indexed.search("recovery", weights=weights, top_k=top_k)
                ) == hit_tuples(
                    brute.search("recovery", weights=weights, top_k=top_k)
                )

    def test_parity_survives_rebuild(self) -> None:
        documents = random_corpus(5, 15)
        engine = LocalSearchEngine(documents[:10])
        assert_parity(engine, 10)
        engine.rebuild(documents, reason="growth")
        assert_parity(engine, 15)

"""Indexed-vs-brute rank parity: bit-identical results, not approx.

The serving tier's entire correctness story is that the bound-then-verify
indexed path returns *exactly* what the brute-force reference returns:
same documents, same floating-point scores, same order.  This suite
sweeps topics (including exact/vague filters and a missing topic),
weight combinations, ``top_k`` edge cases and seeded random corpora,
comparing full ``(doc_id, score, cosine, confidence, authority)``
tuples with ``==``.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_parity_survives_a_size_preserving_delta(self) -> None:
        """One document in, one out: ``scope="local"``, so clean posting
        runs are carried by reference -- while every row after the
        removed id shifts.  Impact arrays decoded under the old
        numbering must not serve the new index."""
        documents = random_corpus(9, 30)
        documents[3] = make_doc(3, {"orphan": 2}, topic="ROOT/OTHERS")
        engine = LocalSearchEngine(documents)
        assert_parity(engine, 30)  # decodes every query term's run
        old_index = engine.index()
        assert old_index.stats()["index_decoded_terms"] > 0

        report = engine.apply_delta(
            added=[make_doc(30, {"newcom": 1}, confidence=0.35)],
            removed=[3],
        )
        assert report.scope == "local"
        carried = [
            term
            for query in QUERIES
            for term in engine._query_vector(query).weights
            if term in old_index
        ]
        assert carried and all(
            engine.index().postings(term) is old_index.postings(term)
            for term in carried
        )

        assert_parity(engine, 30)
        scratch = LocalSearchEngine(engine.documents)
        brute = LocalSearchEngine(engine.documents, indexed=False)
        for query in QUERIES:
            for topic, exact in FILTERS:
                for weights in WEIGHTS:
                    for top_k in (1, 3, 10, 35):
                        arguments = dict(
                            topic=topic, exact=exact,
                            weights=weights, top_k=top_k,
                        )
                        ours = hit_tuples(engine.search(query, **arguments))
                        assert ours == hit_tuples(
                            scratch.search(query, **arguments)
                        ), arguments
                        assert ours == hit_tuples(
                            brute.search(query, **arguments)
                        ), arguments


#: one document of a generated corpus: term counts over a six-stem
#: vocabulary (possibly none: a zero-norm vector), a confidence from a
#: small set (static ties) and whether it sits in the shared topic
_DOCUMENT = st.tuples(
    st.dictionaries(
        st.sampled_from(sorted(_stems().values())[:6]),
        st.integers(1, 3),
        max_size=4,
    ),
    st.sampled_from([0.2, 0.5, 0.5, 0.9]),
    st.booleans(),
)


@given(
    specs=st.lists(_DOCUMENT, min_size=1, max_size=10),
    copies=st.lists(st.integers(0, 9), max_size=6),
    query=st.lists(st.sampled_from(WORDS[:7]), min_size=1, max_size=3),
    weights=st.sampled_from(WEIGHTS),
)
@settings(max_examples=150, deadline=None)
def test_indexed_equals_brute_force_and_scores_only_the_top(
    specs, copies, query, weights
) -> None:
    """Random corpora with what breaks a pruned top-k: duplicated
    documents (exact score ties across the k-th place), documents
    without terms (zero norm), a filter of one document, a zero cosine
    weight, and ``top_k`` around the filtered set's size."""
    specs = specs + [specs[index % len(specs)] for index in copies]
    documents = []
    for doc_id, (terms, confidence, shared) in enumerate(specs):
        target = (doc_id * 7 + 1) % len(specs)
        documents.append(
            make_doc(
                doc_id,
                dict(sorted(terms.items())),
                topic=(
                    "ROOT/solo" if doc_id == 0
                    else "ROOT/shared" if shared
                    else "ROOT/shared/leaf"
                ),
                confidence=confidence,
                out_urls=(f"http://site{target}.example/p{target}.html",),
            )
        )
    engine = LocalSearchEngine(documents)
    text = " ".join(query)
    query_vector = engine._query_vector(text)
    for topic, exact in (
        (None, True), ("ROOT/solo", True),
        ("ROOT/shared", True), ("ROOT/shared", False),
    ):
        candidates = engine.filter(topic, exact=exact)
        if not candidates:
            continue
        brute = engine.rank_all(candidates, query_vector, weights)
        size = len(candidates)
        for top_k in (1, size - 1, size, size + 5):
            before = engine.stats()["documents_scored"]
            hits = engine.search(
                text, topic=topic, exact=exact, weights=weights, top_k=top_k
            )
            assert hit_tuples(hits) == hit_tuples(brute[:top_k])
            if not hits:
                continue
            # "tied": inside the band the kernel verifies below the k-th
            last = hits[-1].score
            tied = sum(
                1 for hit in brute[len(hits):]
                if last > 0.0 and hit.score >= last * (1.0 - 2e-9)
            )
            scored = engine.stats()["documents_scored"] - before
            assert scored <= len(hits) + tied

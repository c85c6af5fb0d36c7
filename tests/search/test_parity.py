"""Indexed-vs-brute rank parity: bit-identical results, not approx.

The serving tier's entire correctness story is that the indexed path
(every candidate scored from the query's runs) returns *exactly* what
the brute-force reference returns: same documents, same floating-point
scores, same order.  This suite
sweeps topics (including exact/vague filters and a missing topic),
weight combinations, ``top_k`` edge cases and seeded random corpora,
comparing full ``(doc_id, score, cosine, confidence, authority)``
tuples with ``==``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SearchError
from repro.search.engine import LocalSearchEngine, RankingWeights
from repro.text.scanner import text_stems

from tests.search.conftest import filter_reference, make_doc

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
            candidates = filter_reference(engine.documents, topic, exact)
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
        assert_parity(LocalSearchEngine(documents[:10]), 10)
        # a rebuild is a fresh engine over the grown corpus
        assert_parity(LocalSearchEngine(documents), 15)

    def test_parity_survives_a_size_preserving_delta(self) -> None:
        """One document in, one out: the corpus size and most document
        frequencies stand still -- while every row after the removed
        id shifts.  Rows derived under the old numbering must not
        serve the new index."""
        documents = random_corpus(9, 30)
        documents[3] = make_doc(3, {"orphan": 2}, topic="ROOT/OTHERS")
        engine = LocalSearchEngine(documents)
        assert_parity(engine, 30)
        old_index = engine.index()

        report = engine.apply_delta(
            added=[make_doc(30, {"newcom": 1}, confidence=0.35)],
            removed=[3],
        )
        assert (report.postings_written, report.postings_dropped) == (1, 1)
        assert engine.index() is not old_index
        assert "orphan" in old_index and "orphan" not in engine.index()

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
    query=st.lists(st.sampled_from(WORDS[:7]), min_size=1, max_size=5),
    weights=st.sampled_from(WEIGHTS),
)
@settings(max_examples=150, deadline=None)
def test_indexed_equals_brute_force_and_scores_only_the_reached(
    specs, copies, query, weights
) -> None:
    """Random corpora with what breaks a top-k: duplicated documents
    (exact score ties across the k-th place), documents without terms
    (zero norm), a filter of one document, a zero cosine weight, and
    ``top_k`` around the filtered set's size.  The indexed path sums
    products only for the candidates holding a query term: those with a
    positive cosine."""
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
        candidates = filter_reference(engine.documents, topic, exact)
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
            scored = engine.stats()["documents_scored"] - before
            reached = sum(1 for hit in brute if hit.cosine > 0.0)
            assert scored == (reached if top_k else 0)


def _spec_doc(doc_id: int, spec):
    terms, confidence, shared = spec
    target = (doc_id * 7 + 1) % 11  # links into and past the corpus
    return make_doc(
        doc_id,
        dict(sorted(terms.items())),
        topic="ROOT/shared" if shared else "ROOT/shared/leaf",
        confidence=confidence,
        out_urls=(f"http://site{target}.example/p{target}.html",),
    )


#: one ``apply_delta`` call: the documents that arrive, and picks
#: (resolved against the ids alive at that step) of the documents that
#: change -- to a new spec -- and leave; an arriving document takes the
#: id of one that left earlier when ``reuse`` says so
_DELTA = st.tuples(
    st.lists(_DOCUMENT, max_size=3),
    st.lists(st.tuples(st.integers(0, 50), _DOCUMENT), max_size=2),
    st.lists(st.integers(0, 50), max_size=3),
    st.booleans(),
)

_LOG = ({"log": 2}, 0.5, True)
_CODE = ({"code": 1}, 0.2, False)
_EMPTY = ({}, 0.9, True)


@given(
    specs=st.lists(_DOCUMENT, min_size=1, max_size=8),
    deltas=st.lists(_DELTA, min_size=1, max_size=6),
    query=st.lists(st.sampled_from(WORDS[:7]), min_size=1, max_size=3),
    cold=st.booleans(),
)
# "log" leaves with its only document and returns under the id that
# left, beside documents without terms; the first delta meets an engine
# that never built an index, the later ones a queried one
@example(
    specs=[_LOG, _CODE, _EMPTY],
    deltas=[
        ([], [], [0], False),
        ([_EMPTY], [(1, _EMPTY)], [], False),
        ([_LOG], [], [], True),
        ([_CODE], [(0, _LOG)], [2], False),
    ],
    query=["log", "code"],
    cold=True,
)
@settings(max_examples=60, deadline=None)
def test_every_delta_sequence_equals_a_rebuild_and_brute_force(
    specs, deltas, query, cold
) -> None:
    """After every ``apply_delta`` of a random sequence -- adds,
    changes and removals that do and do not preserve the corpus size
    -- the maintained engine ranks exactly like an engine constructed
    from the documents it now holds and like the brute-force path."""
    text = " ".join(query)
    engine = LocalSearchEngine(
        [_spec_doc(doc_id, spec) for doc_id, spec in enumerate(specs)]
    )
    next_id = len(specs)
    graveyard: list[int] = []

    def check() -> None:
        documents = engine.documents
        scratch = LocalSearchEngine(documents)
        brute = LocalSearchEngine(documents, indexed=False)
        assert engine.index().stats()["index_postings"] == (
            scratch.index().stats()["index_postings"]
        )
        size = len(documents)
        for topic, exact in (
            (None, True), ("ROOT/shared", True), ("ROOT/shared", False),
        ):
            for weights in WEIGHTS:
                for top_k in (1, 3, size, size + 5):
                    arguments = dict(
                        topic=topic, exact=exact, weights=weights,
                        top_k=top_k,
                    )
                    ours = hit_tuples(engine.search(text, **arguments))
                    assert ours == hit_tuples(
                        scratch.search(text, **arguments)
                    ), arguments
                    assert ours == hit_tuples(
                        brute.search(text, **arguments)
                    ), arguments

    if not cold:
        check()
    for arriving, changes, leaving, reuse in deltas:
        alive = sorted(d.doc_id for d in engine.documents)
        removed = sorted({alive[pick % len(alive)] for pick in leaving})
        if len(removed) == len(alive):
            removed = removed[1:]  # the engine keeps a document to rank
        changed = {
            alive[pick % len(alive)]: spec for pick, spec in changes
        }
        added = []
        for spec in arriving:
            if reuse and graveyard:
                doc_id = graveyard.pop()
            else:
                doc_id, next_id = next_id, next_id + 1
            added.append(_spec_doc(doc_id, spec))
        engine.apply_delta(
            added=added,
            changed=[
                _spec_doc(doc_id, spec)
                for doc_id, spec in sorted(changed.items())
                if doc_id not in removed
            ],
            removed=removed,
        )
        graveyard.extend(removed)
        check()


class TestDuplicateIdsAreRejected:
    """Rows, vectors and the id map are keyed on the doc id: an id
    listed twice must fail before any statistic moves."""

    def test_apply_delta_rejects_an_id_listed_twice(self) -> None:
        engine = LocalSearchEngine(random_corpus(9, 5))
        engine.index()
        before = (
            engine.epoch,
            engine.vectorizer.statistics.document_count,
            dict(engine.vectorizer.statistics.document_frequency),
            engine.stats(),
        )
        newcomer = make_doc(99, {"recoveri": 2})
        with pytest.raises(SearchError, match="99 listed twice in added"):
            engine.apply_delta(added=[newcomer, newcomer])
        with pytest.raises(SearchError, match="2 listed twice in changed"):
            engine.apply_delta(
                changed=[make_doc(2, {"log": 1}), make_doc(2, {"code": 1})]
            )
        assert before == (
            engine.epoch,
            engine.vectorizer.statistics.document_count,
            dict(engine.vectorizer.statistics.document_frequency),
            engine.stats(),
        )
        engine.apply_delta(added=[newcomer])
        assert [h.document.doc_id for h in engine.search("recovery")].count(
            99
        ) == 1
        assert engine.stats()["documents_indexed"] == 6.0 == (
            engine.index().stats()["index_documents"]
        )

    def test_constructor_and_rebuild_reject_them_too(self) -> None:
        documents = random_corpus(9, 5)
        with pytest.raises(SearchError, match="3 listed twice"):
            LocalSearchEngine([*documents, documents[3]])
        # a rebuild is a second construction: same check, same message
        with pytest.raises(SearchError, match="0 listed twice"):
            LocalSearchEngine([documents[0], *documents])

"""The indexed path's exact cosine is the oracle's float.

A document the bound-then-verify kernel verifies is scored without a
document vector: from the index's exact norm and the document's counts
of the query's terms.  These properties hold every such score to
``cosine_similarity(q, vectorize_counts(counts))`` bit for bit, and the
norm under it to ``SparseVector.norm``, over generated corpora and
random ``apply_delta`` sequences.  The counts come in any order (not
column order), with empty documents, ``tf <= 0`` entries and documents
holding fewer positive terms than the query.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.search.engine as engine_module
from repro.search.engine import LocalSearchEngine
from repro.text.scanner import text_stems
from repro.text.vectorizer import cosine_similarity

from tests.search.conftest import make_doc

WORDS = [
    "recovery", "algorithm", "source", "code", "release", "log",
    "database", "transaction", "index", "portal",
]
STEMS = [text_stems(word)[0] for word in WORDS]

#: one document's term counts, in generated order
_COUNTS = st.lists(
    st.tuples(st.sampled_from(STEMS), st.integers(-1, 6)),
    unique_by=lambda entry: entry[0],
    max_size=8,
).map(dict)

#: one ``apply_delta``: arriving counts, ``(pick, counts)`` changes and
#: leaving picks, picks resolved against the ids alive at that step
_DELTA = st.tuples(
    st.lists(_COUNTS, max_size=3),
    st.lists(st.tuples(st.integers(0, 50), _COUNTS), max_size=2),
    st.lists(st.integers(0, 50), max_size=3),
)

_QUERY = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3)


def _counts(document):
    return document.counts["term"]


def assert_exact_scores_are_the_oracles(
    engine: LocalSearchEngine, text: str
) -> None:
    """Every document's exact norm, then every score a search verifies,
    against the oracle under the engine's current snapshot."""
    oracle = engine.vectorizer.vectorize_counts
    exact_norms = engine.index().exact_norms
    assert exact_norms.keys() == {d.doc_id for d in engine.documents}
    for document in engine.documents:
        vector = oracle(_counts(document))
        assert exact_norms[document.doc_id] == (len(vector), vector.norm)

    query_vector = engine._query_vector(text)
    scored: list[tuple[object, float]] = []
    real = engine_module._indexed_cosine

    def spy(query, query_norm, counts, size, norm):
        cosine = real(query, query_norm, counts, size, norm)
        scored.append((counts, cosine))
        return cosine

    with mock.patch.object(engine_module, "_indexed_cosine", spy):
        for top_k in (1, 3, len(engine.documents)):
            for hit in engine.search(text, top_k=top_k):
                assert hit.cosine == cosine_similarity(
                    query_vector, oracle(_counts(hit.document))
                )
    # top_k = the corpus verifies every document
    assert len(scored) >= len(engine.documents)
    for counts, cosine in scored:
        assert cosine == cosine_similarity(query_vector, oracle(counts))


@given(corpus=st.lists(_COUNTS, min_size=1, max_size=12), query=_QUERY)
# a three-term query over: no terms, only tf <= 0 terms, one and two
# matching terms (fewer than the query's), and a long document whose
# counts order is not its column order
@example(
    corpus=[
        {},
        {"log": 0, "code": -1},
        {"log": 2},
        {"code": 1, "recoveri": 3},
        {"portal": 5, "algorithm": 1, "log": 3, "index": 2, "code": 4},
        {"index": 1, "recoveri": 2, "code": 6, "log": 1},
    ],
    query=["recovery", "log", "code"],
)
@settings(max_examples=150, deadline=None)
def test_every_verified_score_is_the_oracles(corpus, query) -> None:
    engine = LocalSearchEngine(
        [make_doc(doc_id, counts) for doc_id, counts in enumerate(corpus)]
    )
    assert_exact_scores_are_the_oracles(engine, " ".join(query))


@given(
    corpus=st.lists(_COUNTS, min_size=1, max_size=8),
    deltas=st.lists(_DELTA, min_size=1, max_size=5),
    query=_QUERY,
)
@settings(max_examples=60, deadline=None)
def test_every_verified_score_after_every_delta_is_the_oracles(
    corpus, deltas, query
) -> None:
    text = " ".join(query)
    engine = LocalSearchEngine(
        [make_doc(doc_id, counts) for doc_id, counts in enumerate(corpus)]
    )
    assert_exact_scores_are_the_oracles(engine, text)
    next_id = len(corpus)
    for arriving, changes, leaving in deltas:
        alive = sorted(d.doc_id for d in engine.documents)
        removed = sorted({alive[pick % len(alive)] for pick in leaving})
        if len(removed) == len(alive):
            removed = removed[1:]  # the engine keeps a document to rank
        changed = {}
        for pick, counts in changes:
            doc_id = alive[pick % len(alive)]
            if doc_id not in removed:
                changed[doc_id] = make_doc(doc_id, counts)
        added = []
        for counts in arriving:
            added.append(make_doc(next_id, counts))
            next_id += 1
        engine.apply_delta(
            added=added, changed=list(changed.values()), removed=removed
        )
        assert_exact_scores_are_the_oracles(engine, text)

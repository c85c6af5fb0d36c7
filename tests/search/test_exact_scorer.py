"""The indexed path's every score is the oracle's float.

The kernel scores every candidate without a document vector: from the
query terms' runs and the exact norms the index keeps.  These
properties hold every returned hit's ``cosine`` to
``cosine_similarity(q, vectorize_counts(counts))`` and its ``score`` to
that cosine through ``_combine``, bit for bit, and the norm under them
to ``SparseVector.norm``, over generated corpora and random
``apply_delta`` sequences.  The counts come in any order (not column
order), with empty documents, ``tf <= 0`` entries and documents holding
fewer positive terms than the query.

``sum`` is compensated from Python 3.12 on, and the kernel adds like
the running interpreter does; so each property runs once more with
``builtins.sum`` replaced by a compensated sum written here and the
kernel's probe flipped, on every interpreter.
"""

from __future__ import annotations

import builtins
import math
from collections.abc import Iterable
from contextlib import contextmanager
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.search.index as index_module
from repro.search.engine import LocalSearchEngine, RankingWeights, _combine
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

_QUERY = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5)

_WEIGHTS = st.sampled_from([
    RankingWeights(),
    RankingWeights(cosine=0.6, confidence=0.4),
    RankingWeights(cosine=0.5, confidence=0.3, authority=0.2),
])


def compensated_sum(values: Iterable, start=0):
    """Python 3.12's ``sum``: Neumaier's compensated summation, the
    compensation added at the end when it is a non-zero finite float."""
    total = start
    compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        return total + compensation
    return total


def test_the_probe_reads_the_interpreter() -> None:
    assert compensated_sum([0.1, 0.2, 0.3]) == 0.6
    assert index_module._COMPENSATED_SUM == (sum([0.1, 0.2, 0.3]) == 0.6)


@contextmanager
def compensated_summation():
    """``builtins.sum`` is :func:`compensated_sum`, and the kernel is
    told so."""
    with mock.patch.object(builtins, "sum", compensated_sum), \
            mock.patch.object(index_module, "_COMPENSATED_SUM", True):
        yield


def _counts(document):
    return document.counts["term"]


def assert_every_score_is_the_oracles(
    engine: LocalSearchEngine, text: str, weights: RankingWeights
) -> None:
    """Every row's exact norm, then every hit a search returns -- the
    whole corpus at the largest ``top_k`` -- against the oracle under
    the engine's current snapshot."""
    oracle = engine.vectorizer.vectorize_counts
    index = engine.index()
    by_row = sorted(engine.documents, key=lambda d: d.doc_id)
    assert index.norms.tolist() == [
        oracle(_counts(document)).norm for document in by_row
    ]

    query_vector = engine._query_vector(text)
    for top_k in (1, 3, len(engine.documents)):
        hits = engine.search(text, weights=weights, top_k=top_k)
        assert len(hits) == min(top_k, len(engine.documents))
        for hit in hits:
            cosine = cosine_similarity(
                query_vector, oracle(_counts(hit.document))
            )
            assert hit.cosine == cosine
            assert hit.score == _combine(
                weights, cosine, hit.confidence, hit.authority
            )
            assert type(hit.score) is float and type(hit.cosine) is float


#: the cases that tell the summation orders apart
_ORDER_CASES = [
    # a three-term query over: no terms, only tf <= 0 terms, one and
    # two matching terms (fewer than the query's), and a long document
    # whose counts order is not its column order
    example(
        corpus=[
            {},
            {"log": 0, "code": -1},
            {"log": 2},
            {"code": 1, "recoveri": 3},
            {"portal": 5, "algorithm": 1, "log": 3, "index": 2, "code": 4},
            {"index": 1, "recoveri": 2, "code": 6, "log": 1},
        ],
        query=["recovery", "log", "code"],
        weights=RankingWeights(),
    ),
    # three matching terms whose left-to-right sum is not the
    # compensated one
    example(
        corpus=[
            {"sourc": 4, "algorithm": 6, "releas": 4},
            {"code": 1},
            {"algorithm": 2, "transact": 1},
        ],
        query=["source", "algorithm", "release"],
        weights=RankingWeights(),
    ),
    # a four-term query against a document holding three of its terms,
    # whose sum in the document's counts order differs from the sum in
    # the query's
    example(
        corpus=[
            {"algorithm": 6, "databas": 6, "index": 5},
            {"databas": 1},
            {"index": 2, "code": 1},
        ],
        query=["database", "index", "algorithm", "transaction"],
        weights=RankingWeights(),
    ),
]


def corpus_cases(test):
    """Generated corpora and queries, plus :data:`_ORDER_CASES`."""
    test = settings(max_examples=150, deadline=None)(test)
    for case in _ORDER_CASES:
        test = case(test)
    return given(
        corpus=st.lists(_COUNTS, min_size=1, max_size=12),
        query=_QUERY,
        weights=_WEIGHTS,
    )(test)


def delta_cases(test):
    """Generated corpora, ``apply_delta`` sequences and queries."""
    return given(
        corpus=st.lists(_COUNTS, min_size=1, max_size=8),
        deltas=st.lists(_DELTA, min_size=1, max_size=5),
        query=_QUERY,
        weights=_WEIGHTS,
    )(settings(max_examples=60, deadline=None)(test))


def check_corpus(corpus, query, weights) -> None:
    engine = LocalSearchEngine(
        [make_doc(doc_id, counts) for doc_id, counts in enumerate(corpus)]
    )
    assert_every_score_is_the_oracles(engine, " ".join(query), weights)


def check_deltas(corpus, deltas, query, weights) -> None:
    text = " ".join(query)
    engine = LocalSearchEngine(
        [make_doc(doc_id, counts) for doc_id, counts in enumerate(corpus)]
    )
    assert_every_score_is_the_oracles(engine, text, weights)
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
        assert_every_score_is_the_oracles(engine, text, weights)


@corpus_cases
def test_every_verified_score_is_the_oracles(corpus, query, weights) -> None:
    check_corpus(corpus, query, weights)


@corpus_cases
def test_every_score_under_a_compensated_sum_is_the_oracles(
    corpus, query, weights
) -> None:
    with compensated_summation():
        check_corpus(corpus, query, weights)


@delta_cases
def test_every_verified_score_after_every_delta_is_the_oracles(
    corpus, deltas, query, weights
) -> None:
    check_deltas(corpus, deltas, query, weights)


@delta_cases
def test_every_score_after_every_delta_under_a_compensated_sum(
    corpus, deltas, query, weights
) -> None:
    with compensated_summation():
        check_deltas(corpus, deltas, query, weights)

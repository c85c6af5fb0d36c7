"""Training counts kept across retraining points rank exactly as counting
from scratch does.

The engine keeps one :class:`~repro.core.feature_selection.TermCounts`
per training topic and space, updated wherever a record is stored or
deleted.  A maintained counter's insertion order is not the order of
first appearance over the current positives, which is how
``Counter.most_common`` breaks the ties at the ``tf_preselection`` cut
when everything is counted afresh; :func:`rank_features` takes that
order from the positives themselves.  The oracle is
``select_features_reference`` (``tests/core/reference.py``).
"""

from __future__ import annotations

import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BingoConfig, BingoEngine, HierarchicalClassifier
from repro.core.feature_selection import (
    TermCounts,
    rank_features,
    select_features,
)

from tests.conftest import nested_tree
from tests.core.conftest import fast_engine_config
from tests.core.reference import select_features_reference

VOCABULARY = [f"t{i}" for i in range(12)]

#: bags over a small vocabulary with counts of 1-2, so tf ties are the
#: rule; the empty bag counts for neither side
bags = st.dictionaries(
    st.sampled_from(VOCABULARY), st.integers(1, 2), max_size=6
).map(Counter)
#: a competing document outside the vocabulary: without one, every
#: term's MI is 0 whenever the competing side is empty, and nothing ranks
OUTSIDE = Counter(zz=1)
ANCHOR = TermCounts([OUTSIDE])
edits = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.booleans(), bags),
        st.tuples(st.just("remove"), st.booleans(), st.integers(0, 50)),
        st.tuples(st.just("replace"), st.booleans(), st.integers(0, 50),
                  bags),
    ),
    max_size=40,
)


def counted(bag_list) -> tuple:
    rebuilt = TermCounts(bag_list)
    return rebuilt.documents, dict(rebuilt.df), dict(rebuilt.tf)


def kept(counts: TermCounts) -> tuple:
    return counts.documents, dict(counts.df), dict(counts.tf)


@given(
    edits=edits,
    tf_preselection=st.integers(1, 8),
    selected=st.integers(1, 12),
)
@settings(max_examples=300, deadline=None)
def test_kept_counts_rank_as_counting_from_scratch(
    edits, tf_preselection, selected
) -> None:
    """Records are added, removed and replaced in place (a fold's
    swap keeps the record's position) on the topic's side and the
    competing side; after every edit the kept counts equal a fold over
    the current bags, and rank the features exactly as the oracle."""
    sides = {True: [], False: []}
    counts = {True: TermCounts(), False: TermCounts()}
    for edit in edits:
        side = sides[edit[1]]
        kept_side = counts[edit[1]]
        if edit[0] == "add":
            side.append(edit[2])
            kept_side.add(edit[2])
        elif side:
            at = edit[2] % len(side)
            kept_side.remove(side[at])
            if edit[0] == "remove":
                del side[at]
            else:
                side[at] = edit[3]
                kept_side.add(edit[3])
        for flag in (True, False):
            assert kept(counts[flag]) == counted(sides[flag])
        ranked = rank_features(
            sides[True], counts[True], [counts[False], ANCHOR],
            tf_preselection=tf_preselection, selected_features=selected,
        )
        topic_documents = {
            "topic": sides[True], "rest": sides[False], "anchor": [OUTSIDE],
        }
        assert ranked == select_features_reference(
            topic_documents, "topic", tf_preselection, selected
        )
        assert ranked == select_features(
            topic_documents, "topic", tf_preselection, selected
        )


def test_a_tie_at_the_cut_keeps_first_appearance_order() -> None:
    """Kept counts met ``t2`` first (then lost the bag that held it
    first); the positives meet ``t1`` first, so ``t1`` takes the one
    pre-selection slot, as ``most_common`` over a fresh count would."""
    counts = TermCounts()
    gone = Counter(t2=1)
    counts.add(gone)
    positives = [Counter(t1=1), Counter(t2=1)]
    for bag in positives:
        counts.add(bag)
    counts.remove(gone)
    assert list(counts.tf) == ["t2", "t1"]
    ranked = rank_features(
        positives, counts, [TermCounts([Counter(t3=1)])],
        tf_preselection=1, selected_features=5,
    )
    assert [score.feature for score in ranked] == ["t1"]


def test_nested_topics_train_alike_with_kept_counts() -> None:
    """A child with descendants sums its subtree's kept counts."""
    tree = nested_tree({"a": {"a1": {}, "a2": {}}, "b": {}})
    config = BingoConfig(tf_preselection=6, selected_features=8)
    rng = np.random.default_rng(3)
    training = {}
    for topic in ("ROOT/a", "ROOT/a/a1", "ROOT/a/a2", "ROOT/b",
                  "ROOT/OTHERS", "ROOT/a/OTHERS"):
        training[topic] = [
            {"term": Counter({
                f"w{int(rng.integers(14))}": int(rng.integers(1, 3))
                for _ in range(5)
            })}
            for _ in range(4)
        ]
    training["ROOT/a"].append({"term": Counter()})
    counts = {
        topic: {"term": TermCounts(doc["term"] for doc in docs)}
        for topic, docs in training.items()
    }
    fresh = HierarchicalClassifier(tree, config)
    for docs in training.values():
        for doc in docs:
            fresh.ingest(doc)
    with_counts = copy.deepcopy(fresh)
    fresh.train(training)
    with_counts.train(training, counts)
    assert_same_models(fresh, with_counts)


def assert_same_models(a: HierarchicalClassifier, b: HierarchicalClassifier):
    assert list(a.models) == list(b.models)
    for topic, model in a.models.items():
        other = b.models[topic]
        for member, twin in zip(model.members, other.members, strict=True):
            assert member.features == twin.features
            assert member.svm.export_linear() == twin.svm.export_linear()


@pytest.fixture(scope="module")
def crawled(small_web) -> BingoEngine:
    engine = BingoEngine.for_portal(small_web, config=fast_engine_config())
    engine.run(harvesting_fetch_budget=200)
    return engine


class TestTheEnginesKeptCounts:
    def test_every_bucket_equals_a_fold_over_its_records(
        self, crawled
    ) -> None:
        assert crawled.archetypes_added > 0
        for records in crawled.training.values():
            for space, counts in records.counts.items():
                assert kept(counts) == counted(
                    record.counts.get(space, {})
                    for record in records.values()
                )

    def test_training_with_kept_counts_is_training_from_scratch(
        self, crawled
    ) -> None:
        training, counts = crawled._training_sets()
        fresh = copy.deepcopy(crawled.classifier)
        with_counts = copy.deepcopy(crawled.classifier)
        fresh.train(training)
        with_counts.train(training, counts)
        assert_same_models(fresh, with_counts)

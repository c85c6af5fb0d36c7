"""Content digests and the delta container's merge semantics."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.portal import DigestStore, DocumentDelta, content_digest

from tests.search.conftest import make_doc


class TestContentDigest:
    def test_stable_and_discriminating(self) -> None:
        assert content_digest("body") == content_digest("body")
        assert content_digest("body") != content_digest("other")
        assert len(content_digest("body")) == 32

    def test_none_equals_empty_payload(self) -> None:
        assert content_digest(None) == content_digest("")


def row_of(store: DigestStore, url: str) -> dict | None:
    """``url``'s digest row as a checkpoint stores it, or None."""
    return next(
        (row for row in store.snapshot()["rows"] if row["url"] == url), None
    )


class TestDigestStore:
    def test_new_changed_unchanged_transitions(self) -> None:
        store = DigestStore()
        url = "http://a.example/p.html"
        assert store.record(url, "d1", at=1.0, page_id=4) == DigestStore.NEW
        assert store.record(url, "d1", at=2.0) == DigestStore.UNCHANGED
        assert store.record(url, "d2", at=3.0) == DigestStore.CHANGED
        row = row_of(store, url)
        assert row["digest"] == "d2"
        assert row["page_id"] == 4
        assert row["fetched_at"] == 3.0
        assert row["check_count"] == 3
        assert row["change_count"] == 1
        assert store.digest_of(url) == "d2"
        assert url in store and len(store) == 1

    def test_forget_drops_dead_urls(self) -> None:
        store = DigestStore()
        store.record("http://a.example/p.html", "d1", at=1.0)
        assert store.forget("http://a.example/p.html")
        assert not store.forget("http://a.example/p.html")
        assert store.digest_of("http://a.example/p.html") is None
        assert len(store) == 0

    def test_stats_are_snake_case_floats(self) -> None:
        store = DigestStore()
        store.record("http://a.example/p.html", "d1", at=1.0)
        store.record("http://a.example/p.html", "d2", at=2.0)
        stats = store.stats()
        assert stats["digests_stored"] == 1.0
        assert stats["digests_recorded"] == 2.0
        assert stats["digest_changes_detected"] == 1.0
        assert all(isinstance(v, float) for v in stats.values())

    def test_snapshot_restore_round_trips_through_json(self) -> None:
        store = DigestStore()
        store.record("http://a.example/p.html", "d1", at=1.0, page_id=1)
        store.record("http://b.example/q.html", "d2", at=2.0, page_id=2)
        store.record("http://a.example/p.html", "d3", at=3.0)
        state = json.loads(json.dumps(store.snapshot()))

        restored = DigestStore()
        restored.restore(state)
        assert restored.stats() == store.stats()
        for url in ("http://a.example/p.html", "http://b.example/q.html"):
            assert row_of(restored, url) == row_of(store, url)
        # restored store keeps detecting changes with full history
        assert (
            restored.record("http://a.example/p.html", "d3", at=4.0)
            == DigestStore.UNCHANGED
        )


_URLS = st.sampled_from(
    ["http://a.example/", "http://b.example/", "http://c.example/"]
)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"), _URLS, st.sampled_from(["d1", "d2", "d3"]),
            st.floats(0, 1e6, allow_nan=False),
            st.one_of(st.none(), st.integers(0, 9)),
        ),
        st.tuples(st.just("forget"), _URLS),
    ),
    max_size=40,
)


class TestDigestStoreModel:
    """Random ``record`` / ``forget`` sequences against a plain dict."""

    @settings(max_examples=150, deadline=None)
    @given(_OPS)
    def test_store_behaves_like_a_dict_of_rows(self, ops: list) -> None:
        store = DigestStore()
        model: dict[str, dict] = {}
        recorded = changed = unchanged = 0
        for op in ops:
            if op[0] == "forget":
                url = op[1]
                assert store.forget(url) == (model.pop(url, None) is not None)
                continue
            _, url, digest, at, page_id = op
            recorded += 1
            row = model.get(url)
            if row is None:
                model[url] = {
                    "url": url, "digest": digest, "page_id": page_id,
                    "fetched_at": at, "check_count": 1, "change_count": 0,
                }
                expected = DigestStore.NEW
            elif row["digest"] == digest:
                row.update(fetched_at=at, check_count=row["check_count"] + 1)
                unchanged += 1
                expected = DigestStore.UNCHANGED
            else:
                row.update(
                    digest=digest,
                    page_id=row["page_id"] if page_id is None else page_id,
                    fetched_at=at,
                    check_count=row["check_count"] + 1,
                    change_count=row["change_count"] + 1,
                )
                changed += 1
                expected = DigestStore.CHANGED
            assert store.record(url, digest, at, page_id=page_id) == expected
        for url in ("http://a.example/", "http://b.example/",
                    "http://c.example/"):
            assert row_of(store, url) == model.get(url)
            assert (url in store) == (url in model)
            assert store.digest_of(url) == (
                model[url]["digest"] if url in model else None
            )
        assert len(store) == len(model)
        assert store.stats() == {
            "digests_stored": float(len(model)),
            "digests_recorded": float(recorded),
            "digest_changes_detected": float(changed),
            "digest_unchanged_hits": float(unchanged),
        }
        snapshot = store.snapshot()
        assert snapshot["rows"] == [model[url] for url in sorted(model)]
        restored = DigestStore()
        restored.restore(json.loads(json.dumps(snapshot, sort_keys=True)))
        assert json.dumps(restored.snapshot()) == json.dumps(snapshot)


class TestDocumentDeltaMerge:
    """One delta spans many fetches; repeats must collapse."""

    def test_change_of_an_added_doc_updates_the_addition(self) -> None:
        delta = DocumentDelta()
        v1 = make_doc(7, {"a": 1})
        v2 = make_doc(7, {"a": 2})
        delta.record_added(v1)
        delta.record_changed(v1, v2)
        assert delta.added == [v2]
        assert delta.changed == [] and delta.previous == {}

    def test_repeat_changes_collapse_to_oldest_previous(self) -> None:
        delta = DocumentDelta()
        v1, v2, v3 = (make_doc(7, {"a": n}) for n in (1, 2, 3))
        delta.record_changed(v1, v2)
        delta.record_changed(v2, v3)
        assert delta.changed == [v3]
        assert delta.previous == {7: v1}

    def test_removal_of_an_added_doc_vanishes(self) -> None:
        delta = DocumentDelta()
        doc = make_doc(7, {"a": 1})
        delta.record_added(doc)
        assert delta.record_removed(doc) is False
        assert delta.empty

    def test_removal_of_a_changed_doc_keeps_oldest_previous(self) -> None:
        delta = DocumentDelta()
        v1, v2 = make_doc(7, {"a": 1}), make_doc(7, {"a": 2})
        delta.record_changed(v1, v2)
        assert delta.record_removed(v2) is True
        assert delta.changed == []
        assert delta.removed == [7]
        assert delta.previous == {7: v1}

    def test_stats_and_empty(self) -> None:
        delta = DocumentDelta()
        assert delta.empty
        delta.record_added(make_doc(1, {"a": 1}))
        delta.record_changed(make_doc(2, {"b": 1}), make_doc(2, {"b": 2}))
        delta.record_removed(make_doc(3, {"c": 1}))
        assert not delta.empty
        assert (len(delta.added), len(delta.changed), len(delta.removed)) == (
            1, 1, 1,
        )

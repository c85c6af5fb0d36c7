"""A checkpoint save is atomic: kill it anywhere and the previous
checkpoint still restores bit-identically; damage a published one --
any file of any segment of its chain -- and the restore raises: it
never resumes on half a state.

The kill is injected into the real ``save_checkpoint``: every file it
opens for writing, every rename and every ``rmtree`` is a write
boundary, and the save is re-run once per boundary, dying just before
it (and once more with the file written last torn in half, for a kill
in mid-write).  Nothing here knows the order of the writes -- which
side of the publishing rename a kill fell on is read off the operations
that ran, so a save that published before its rows were complete would
fail these tests rather than match them.

A save writes one segment, what changed since the save it extends; a
restore replays the chain and rebuilds the stored pages from their
records, so every image here holds the pages too.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import shutil
from collections import Counter

import pytest

from repro.core import FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.errors import StorageError
from repro.robust import checkpoint
from repro.robust.checkpoint import (
    Checkpointer,
    restore_context,
    save_checkpoint,
    snapshot_context,
)
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.storage.persistence import dump_database
from repro.storage.schema import page_rows
from repro.web import SyntheticWeb

from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier


def settings(budget: int) -> PhaseSettings:
    return PhaseSettings(name="t", focus=SOFT, fetch_budget=budget)


class Rig:
    """One Web and trained classifier; crawlers over them on demand.

    A restore overwrites everything a crawl left on the Web's server, so
    restore targets can share one rig -- but not with a crawl that is
    still to be saved.
    """

    def __init__(self, workers: int = 1) -> None:
        self.web = SyntheticWeb.generate(small_web_config())
        sharding = (
            {"crawl_workers": workers, "crawler_threads": 2}
            if workers > 1 else {}
        )
        self.config = fast_engine_config(max_retries=2, **sharding)
        self.classifier = make_trained_classifier(self.web, self.config)

    def crawler(self) -> tuple[FocusedCrawler, Database]:
        database = Database()
        crawler = FocusedCrawler(
            self.web, self.classifier, self.config,
            loader=BulkLoader(database, batch_size=10),
        )
        return crawler, database


def typed(value):
    """``value`` with the type of every scalar in it and the order of
    every mapping's keys (``==`` alone lets ``True`` pass for ``1`` and
    ignores a ``Counter``'s order)."""
    if isinstance(value, dict):
        return [(key, typed(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [typed(item) for item in value]
    return type(value).__name__, value


def image(ctx, stats, database: Database) -> tuple[str, dict, list]:
    """Everything a restore must bring back, comparably: the runtime
    state as canonical JSON, every relation's rows -- the page
    relations as the view of the stored pages -- and every stored page,
    with their value types."""
    state = json.dumps(snapshot_context(ctx, stats), sort_keys=True)
    view = page_rows(ctx.documents, ctx.anchor_terms)
    rows = {
        name: [
            typed(dict(zip(relation.schema.column_names, row)))
            for row in view.get(name, relation.rows())
        ]
        for name, relation in database.relations.items()
    }
    pages = [typed(document.to_dict()) for document in ctx.documents]
    return state, rows, pages


class _Killed(Exception):
    pass


def killed_save(monkeypatch, crawler, stats, directory, kill_at: int):
    """``save_checkpoint`` dying just before write operation ``kill_at``;
    returns the ``(kind, path)`` operations that did run."""
    ran: list[tuple[str, pathlib.Path]] = []

    def boundary(kind: str, path) -> None:
        if len(ran) == kill_at:
            raise _Killed
        ran.append((kind, pathlib.Path(path)))

    real_open = pathlib.Path.open
    real_replace = pathlib.Path.replace
    real_rmtree = shutil.rmtree

    def open_(self, mode="r", *args, **kwargs):
        if "w" in mode:
            boundary("write", self)
        return real_open(self, mode, *args, **kwargs)

    def replace(self, target):
        boundary("rename", target)
        return real_replace(self, target)

    def rmtree(path, *args, **kwargs):
        boundary("rmtree", path)
        return real_rmtree(path, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(pathlib.Path, "open", open_)
        patch.setattr(pathlib.Path, "replace", replace)
        patch.setattr(checkpoint.shutil, "rmtree", rmtree)
        with contextlib.suppress(_Killed):
            save_checkpoint(crawler.ctx, stats, directory)
    return ran


@pytest.fixture(scope="module")
def two_saves(tmp_path_factory):
    """A crawl checkpointed twice: the directory after save 1, the
    images both saves captured, and the live crawler at save 2."""
    live, rig = Rig(), Rig()
    crawler, database = live.crawler()
    crawler.seed(
        live.web.seed_homepages(3), topic="ROOT/databases", priority=10.0
    )
    after_first = tmp_path_factory.mktemp("after-first-save")
    stats = crawler.crawl(settings(25))
    save_checkpoint(crawler.ctx, stats, after_first)
    first = image(crawler.ctx, stats, database)
    stats = crawler.crawl(settings(50), resume=stats)
    crawler.ctx.loader.flush_all()
    second = image(crawler.ctx, stats, database)
    assert first != second
    return rig, after_first, first, second, crawler, stats


def restored_image(rig: Rig, directory) -> tuple[str, dict, list]:
    crawler, database = rig.crawler()
    stats = restore_context(crawler.ctx, directory)
    return image(crawler.ctx, stats, database)


class TestKilledSave:
    def test_every_write_boundary_leaves_a_whole_checkpoint(
        self, two_saves, tmp_path, monkeypatch
    ) -> None:
        rig, after_first, first, second, crawler, stats = two_saves
        complete = killed_save(
            monkeypatch, crawler, stats,
            shutil.copytree(after_first, tmp_path / "complete"), -1,
        )
        kinds = [kind for kind, _ in complete]
        # 6 boundaries: the segment's 2 relation files (crawl_log,
        # archetypes), manifest and page file, the blob's temp file, one
        # publishing rename; the segment extends save 1, so nothing is
        # superseded
        assert kinds == ["write"] * 5 + ["rename"]
        assert restored_image(rig, tmp_path / "complete") == second

        for kill_at in range(len(complete)):
            directory = shutil.copytree(
                after_first, tmp_path / f"killed-{kill_at}"
            )
            ran = killed_save(monkeypatch, crawler, stats, directory, kill_at)
            assert ran == [
                (kind, directory / path.relative_to(tmp_path / "complete"))
                for kind, path in complete[:kill_at]
            ]
            published = ("rename", directory / "crawl.json") in ran
            expected = second if published else first
            assert restored_image(rig, directory) == expected, kill_at
            if ran and ran[-1][0] == "write":
                # the same kill a moment earlier, inside that write
                torn = ran[-1][1]
                torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
                assert restored_image(rig, directory) == first, kill_at

    def test_next_save_clears_the_debris_of_a_killed_one(
        self, two_saves, tmp_path, monkeypatch
    ) -> None:
        rig, after_first, _, second, crawler, stats = two_saves
        directory = shutil.copytree(after_first, tmp_path / "checkpoint")
        ran = killed_save(monkeypatch, crawler, stats, directory, 5)
        assert ("rename", directory / "crawl.json") not in ran
        assert (directory / "database-2").exists()
        save_checkpoint(crawler.ctx, stats, directory)
        assert sorted(path.name for path in directory.iterdir()) == [
            "crawl.json", "database-1", "database-3",
        ]
        assert restored_image(rig, directory) == second

    def test_a_new_chain_supersedes_the_old_one(
        self, two_saves, tmp_path, monkeypatch
    ) -> None:
        """A save into a directory whose published save this context
        neither wrote nor restored writes a whole segment, and removes
        the chain it replaced only after publishing."""
        rig, after_first, _, second, _, _ = two_saves
        other, database = rig.crawler()
        other.seed(
            rig.web.seed_homepages(2), topic="ROOT/databases", priority=5.0
        )
        stats = other.crawl(settings(15))
        directory = shutil.copytree(after_first, tmp_path / "checkpoint")
        ran = killed_save(monkeypatch, other, stats, directory, -1)
        assert [kind for kind, _ in ran] == (
            ["write"] * 5 + ["rename", "rmtree"]
        )
        assert ran[-1] == ("rmtree", directory / "database-1")
        assert sorted(path.name for path in directory.iterdir()) == [
            "crawl.json", "database-2",
        ]
        manifest = json.loads(
            (directory / "database-2" / "manifest.json").read_text()
        )
        assert manifest["after"] is None
        starts = {info["start"] for info in manifest["relations"].values()}
        assert starts == {0}
        assert restored_image(Rig(), directory) == image(
            other.ctx, stats, database
        )


def _float_counts(page: dict) -> None:
    terms = page["counts"]["term"]
    terms.update((term, float(tf)) for term, tf in terms.items())


#: one damage each to a page record of a published chain
PAGE_DAMAGE = {
    "size is a str": lambda page: page.update(size="big"),
    "a tf is a float": _float_counts,
    "an out-link is not a str": lambda page: page["out_urls"].append(7),
    "an anchor term is not a str": lambda page: page["anchor_terms"]
    .setdefault("http://a.example/", []).append(None),
    "a field is missing": lambda page: page.pop("title"),
    "a doc id is out of sequence": lambda page: page.update(
        doc_id=page["doc_id"] + 1
    ),
}


def assert_refused(rig: Rig, directory, match: str | None = None) -> None:
    crawler, database = rig.crawler()
    with pytest.raises(StorageError, match=match):
        restore_context(crawler.ctx, directory)
    assert crawler.ctx.documents == [] and crawler.ctx.anchor_terms == []
    assert not any(map(len, database.relations.values()))
    assert crawler.ctx.clock.now == 0.0


class TestDamagedCheckpoint:
    @pytest.fixture()
    def published(self, two_saves, tmp_path):
        _, after_first, _, _, crawler, stats = two_saves
        directory = shutil.copytree(after_first, tmp_path / "checkpoint")
        save_checkpoint(crawler.ctx, stats, directory)
        return directory

    def test_truncated_or_missing_file_never_resumes_wrong(
        self, two_saves, published
    ) -> None:
        rig, _, _, second, _, _ = two_saves
        files = sorted(p for p in published.rglob("*") if p.is_file())
        # the blob, and per segment of the chain [1, 2] its page file,
        # manifest and 2 relation files (crawl_log, archetypes)
        assert len(files) == 1 + 2 * 4
        assert {p.parent.name for p in files} == {
            "checkpoint", "database-1", "database-2",
        }
        written = sum(1 for p in files if p.stat().st_size)
        refused = 0
        for path in files:
            content = path.read_bytes()
            for damaged in (content[: len(content) // 2], None):
                if damaged is None:
                    path.unlink()
                else:
                    path.write_bytes(damaged)
                crawler, database = rig.crawler()
                try:
                    stats = restore_context(crawler.ctx, published)
                except StorageError:
                    refused += 1
                    # refused before anything was taken
                    assert not any(map(len, database.relations.values()))
                    assert crawler.ctx.documents == []
                    assert crawler.ctx.clock.now == 0.0
                else:
                    # only a relation without rows can go unnoticed
                    assert content == b""
                    assert image(crawler.ctx, stats, database) == second
                path.write_bytes(content)
        # every file that holds anything, in either segment, both ways
        assert refused == 2 * written

    def test_blob_and_database_of_different_saves_refused(
        self, two_saves, published, tmp_path
    ) -> None:
        rig, after_first, _, _, _, _ = two_saves
        shutil.rmtree(published / "database-2")
        shutil.copytree(
            after_first / "database-1", published / "database-2"
        )
        crawler, _ = rig.crawler()
        with pytest.raises(StorageError, match="stamped 1, expected 2"):
            restore_context(crawler.ctx, published)

    def test_segments_out_of_order_refused(
        self, two_saves, published
    ) -> None:
        rig = two_saves[0]
        blob = json.loads((published / "crawl.json").read_text())
        blob["state"]["database"]["segments"] = [2, 1]
        (published / "crawl.json").write_text(json.dumps(blob))
        crawler, database = rig.crawler()
        with pytest.raises(StorageError):
            restore_context(crawler.ctx, published)
        assert not any(map(len, database.relations.values()))
        assert crawler.ctx.documents == []

    def test_checkpoint_without_ordinal_refused(
        self, two_saves, published
    ) -> None:
        """A blob that names no chain (the layout before segments kept
        the pages in the blob) must be retaken."""
        rig = two_saves[0]
        blob = json.loads((published / "crawl.json").read_text())
        del blob["state"]["database"]
        (published / "crawl.json").write_text(json.dumps(blob))
        crawler, _ = rig.crawler()
        with pytest.raises(StorageError, match="no database chain"):
            restore_context(crawler.ctx, published)

    def test_pre_composite_frontier_image_refused(
        self, two_saves, published
    ) -> None:
        """A checkpoint taken before the one-store format (format 2:
        one store per worker under ``shards``) must be retaken."""
        rig = two_saves[0]
        blob = json.loads((published / "crawl.json").read_text())
        image = blob["state"]["frontier"]
        head = ("format", "sequence", "topics")
        blob["state"]["frontier"] = {
            "format": 2,
            "sequence": image["sequence"],
            "topics": image["topics"],
            "shards": [
                {k: v for k, v in image.items() if k not in head}
            ],
        }
        (published / "crawl.json").write_text(json.dumps(blob))
        crawler, database = rig.crawler()
        with pytest.raises(StorageError, match="must be retaken"):
            restore_context(crawler.ctx, published)
        # refused before anything was taken
        assert not any(map(len, database.relations.values()))
        assert crawler.ctx.documents == []
        assert crawler.ctx.clock.now == 0.0


    @pytest.mark.parametrize("damage", sorted(PAGE_DAMAGE))
    def test_a_bad_page_record_refused(
        self, two_saves, published, damage
    ) -> None:
        """The type checks the page rows got from the schema, now on
        the page records: restore refuses before it takes anything."""
        rig = two_saves[0]
        path = published / "database-2" / "pages.json"
        data = json.loads(path.read_text())
        PAGE_DAMAGE[damage](data["pages"][len(data["pages"]) // 2])
        path.write_text(json.dumps(data))
        assert_refused(rig, published)

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_a_page_count_the_blob_does_not_name_refused(
        self, two_saves, published, offset
    ) -> None:
        rig = two_saves[0]
        blob = json.loads((published / "crawl.json").read_text())
        blob["state"]["database"]["pages"] += offset
        (published / "crawl.json").write_text(json.dumps(blob))
        assert_refused(rig, published, match="page records")



class _ImagingCheckpointer(Checkpointer):
    """Keeps the image of what the latest save captured."""

    latest: tuple[str, dict, list] | None = None

    def save(self, ctx, stats) -> None:
        super().save(ctx, stats)
        self.latest = image(ctx, stats, ctx.loader.database)


@pytest.mark.parametrize("workers", [1, 3])
def test_restore_equals_the_saved_database_row_for_row(
    workers: int, tmp_path
) -> None:
    live, rig = Rig(workers), Rig(workers)
    crawler, _ = live.crawler()
    crawler.seed(
        live.web.seed_homepages(3), topic="ROOT/databases", priority=10.0
    )
    checkpointer = _ImagingCheckpointer(tmp_path, every=20)
    crawler.crawl(settings(70), checkpointer=checkpointer)
    assert checkpointer.saves == 3
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "crawl.json", "database-1", "database-2", "database-3",
    ]
    saved_state, saved_rows, saved_pages = checkpointer.latest
    assert sum(map(len, saved_rows.values())) > 1000
    assert restored_image(rig, tmp_path) == (
        saved_state, saved_rows, saved_pages
    )
    # the segments hold no garbage: their rows sum to the crawl_log and
    # archetypes rows, and their page records to the stored pages
    written = Counter()
    pages = 0
    for segment in ("database-1", "database-2", "database-3"):
        manifest = json.loads(
            (tmp_path / segment / "manifest.json").read_text()
        )
        written.update({
            name: info["rows"] for name, info in manifest["relations"].items()
        })
        pages += len(json.loads(
            (tmp_path / segment / "pages.json").read_text()
        )["pages"])
    assert written == {
        name: len(saved_rows[name]) for name in ("crawl_log", "archetypes")
    }
    assert pages == len(saved_pages) == len(saved_rows["documents"])


#: sha256 of each relation file of a full dump of the three-worker
#: checkpoint below.  ``crawl_log`` and ``archetypes`` hold the bytes
#: the store wrote when it kept one dict per row and a save re-dumped
#: every row; the page relations hold the view of the restored pages,
#: whose rows come in doc-id order
_RELATION_FILES = {
    "anchor_texts": (
        "1372bca5818f794d5d1cdd27ef29dd4b1682866722287df5fcc78350f8a76b0b"
    ),
    "archetypes": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    ),
    "crawl_log": (
        "01d94bbc6b90d952f116155b66192b3165e3a885e019c3d1edf4c143d72fa3c3"
    ),
    "documents": (
        "eadbfa879b1e2e3ef5e0ec58ae437e356b031add60128013cd26528563fe7b8f"
    ),
    "links": (
        "c0cadedc99c3ec9f7582f5295e40ddbdab47295dd4a81511286a4994073f062d"
    ),
    "terms": (
        "649f0fd9d7b22f84ec205b11b6e2d5dffd850c752599e421c4c58e7425349976"
    ),
}


def test_relation_files_keep_their_bytes(tmp_path) -> None:
    rig = Rig(3)
    crawler, _ = rig.crawler()
    crawler.seed(
        rig.web.seed_homepages(3), topic="ROOT/databases", priority=10.0
    )
    crawler.crawl(settings(70), checkpointer=Checkpointer(tmp_path, every=20))
    restored, database = Rig(3).crawler()
    restore_context(restored.ctx, tmp_path)
    dump_database(
        database, tmp_path / "full",
        pages=page_rows(restored.ctx.documents, restored.ctx.anchor_terms),
    )
    written = {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "full").glob("*.jsonl"))
    }
    assert written == _RELATION_FILES


class TestChains:
    def test_crawls_saving_alternately_restore_as_the_last_saver(
        self, tmp_path
    ) -> None:
        """Neither crawl appends to the other's chain: each save into a
        directory whose published save is foreign starts a new one."""
        first, second = Rig(), Rig()
        crawls = []
        for rig, seeds in ((first, 3), (second, 2)):
            crawler, database = rig.crawler()
            crawler.seed(
                rig.web.seed_homepages(seeds), topic="ROOT/databases",
                priority=10.0,
            )
            crawls.append((crawler, database))
        stats = [None, None]
        images = []
        for budget in (20, 30, 40):
            for side, (crawler, database) in enumerate(crawls):
                stats[side] = crawler.crawl(
                    settings(budget), resume=stats[side]
                )
                save_checkpoint(crawler.ctx, stats[side], tmp_path)
                images.append(image(crawler.ctx, stats[side], database))
                # one chain of one whole segment each time
                [segment] = [p for p in tmp_path.iterdir() if p.is_dir()]
                manifest = json.loads((segment / "manifest.json").read_text())
                assert manifest["after"] is None
        assert images[-1] != images[-2]
        assert restored_image(Rig(), tmp_path) == images[-1]

    def test_a_restored_crawl_extends_the_chain_it_restored(
        self, tmp_path
    ) -> None:
        live = Rig()
        crawler, _ = live.crawler()
        crawler.seed(
            live.web.seed_homepages(3), topic="ROOT/databases", priority=10.0
        )
        crawler.crawl(settings(25), checkpointer=Checkpointer(tmp_path, 10))
        resumed_rig = Rig()
        resumed, database = resumed_rig.crawler()
        stats = restore_context(resumed.ctx, tmp_path)
        stats = resumed.crawl(settings(45), resume=stats)
        save_checkpoint(resumed.ctx, stats, tmp_path)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "crawl.json", "database-1", "database-2", "database-3",
        ]
        assert json.loads(
            (tmp_path / "database-3" / "manifest.json").read_text()
        )["after"] == 2
        assert restored_image(Rig(), tmp_path) == image(
            resumed.ctx, stats, database
        )

    def test_an_overwritten_relation_is_written_whole_and_replaces_its_copy(
        self, tmp_path
    ) -> None:
        rig = Rig()
        crawler, database = rig.crawler()
        crawler.seed(
            rig.web.seed_homepages(3), topic="ROOT/databases", priority=10.0
        )
        archetypes = database["archetypes"]
        stats = crawler.crawl(settings(10))
        archetypes.upsert(("ROOT/databases", 0, "seed", 0.5, 0))
        archetypes.upsert(("ROOT/databases", 1, "seed", 0.6, 0))
        save_checkpoint(crawler.ctx, stats, tmp_path)
        stats = crawler.crawl(settings(20), resume=stats)
        # a keyed overwrite: the row moves to the end with a new score
        archetypes.upsert(("ROOT/databases", 0, "seed", 0.9, 0))
        archetypes.upsert(("ROOT/databases", 2, "seed", 0.7, 0))
        save_checkpoint(crawler.ctx, stats, tmp_path)
        relations = json.loads(
            (tmp_path / "database-2" / "manifest.json").read_text()
        )["relations"]
        assert relations["archetypes"] == {
            "columns": list(archetypes.schema.column_names),
            "rows": 3, "start": 0,
        }
        # the segment carries only the pages the crawl gained
        assert json.loads(
            (tmp_path / "database-2" / "pages.json").read_text()
        )["start"] == 10
        restored, restored_database = Rig().crawler()
        restore_context(restored.ctx, tmp_path)
        assert restored_database["archetypes"].rows() == archetypes.rows()
        assert [row[3] for row in archetypes.rows()] == [0.6, 0.9, 0.7]
        assert restored_image(Rig(), tmp_path) == image(
            crawler.ctx, stats, database
        )

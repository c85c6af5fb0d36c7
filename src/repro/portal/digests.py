"""Content digests: the recrawl scheduler's change detection.

Every stored page gets a BLAKE2b digest of its raw payload.  A revisit
fetch recomputes the digest and compares: equal digests mean the page
is unchanged and the expensive re-analysis (convert, tokenize, feature
extraction, classification, index fold) is skipped entirely.

Digests live in their own relation through the :mod:`repro.storage`
relational layer.  ``BINGO_SCHEMA`` holds the relations the crawl
writes, so the digest relation is declared in a private
:class:`~repro.storage.database.Database` rather than grafted onto it.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter

from repro.storage.database import Database
from repro.storage.schema import Column, RelationSchema

__all__ = ["content_digest", "DigestStore"]


def content_digest(payload: str | None) -> str:
    """Stable hex digest of a fetched payload (empty payload included)."""
    data = (payload or "").encode("utf-8", errors="replace")
    return hashlib.blake2b(data, digest_size=16).hexdigest()


#: the digest relation, kept outside the crawl's schema
DIGEST_SCHEMA = RelationSchema(
    name="content_digests",
    columns=(
        Column("url", str),
        Column("digest", str),
        Column("page_id", int, nullable=True),
        Column("fetched_at", float),
        Column("check_count", int),
        Column("change_count", int),
    ),
    primary_key=("url",),
    indexes=(("digest",),),
)


class DigestStore:
    """Per-URL content digests with change counters, relationally stored."""

    NEW = "new"
    CHANGED = "changed"
    UNCHANGED = "unchanged"

    def __init__(self) -> None:
        self.database = Database(
            schemas={DIGEST_SCHEMA.name: DIGEST_SCHEMA}
        )
        self.relation = self.database[DIGEST_SCHEMA.name]
        self.recorded = 0
        self.changes_detected = 0
        self.unchanged_hits = 0

    def record(
        self,
        url: str,
        digest: str,
        at: float,
        page_id: int | None = None,
    ) -> str:
        """Store a fetch's digest; returns ``new``/``changed``/``unchanged``."""
        self.recorded += 1
        row = self.relation.get(url)
        if row is None:
            self.relation.insert((url, digest, page_id, at, 1, 0))
            return self.NEW
        if row["digest"] == digest:
            self.unchanged_hits += 1
            self.relation.update(
                (url,),
                fetched_at=at,
                check_count=row["check_count"] + 1,
            )
            return self.UNCHANGED
        self.changes_detected += 1
        self.relation.update(
            (url,),
            digest=digest,
            page_id=page_id if page_id is not None else row["page_id"],
            fetched_at=at,
            check_count=row["check_count"] + 1,
            change_count=row["change_count"] + 1,
        )
        return self.CHANGED

    def get(self, url: str) -> dict | None:
        """The stored digest row for ``url``, or None."""
        return self.relation.get(url)

    def digest_of(self, url: str) -> str | None:
        row = self.relation.get(url)
        return row["digest"] if row is not None else None

    def forget(self, url: str) -> bool:
        """Drop a dead URL's digest; True if a row was removed."""
        return self.relation.delete(url=url) > 0

    def __len__(self) -> int:
        return len(self.relation)

    def __contains__(self, url: str) -> bool:
        return self.relation.get(url) is not None

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Digest counters (:class:`repro.obs.api.Instrumented`-shaped)."""
        return {
            "digests_stored": float(len(self.relation)),
            "digests_recorded": float(self.recorded),
            "digest_changes_detected": float(self.changes_detected),
            "digest_unchanged_hits": float(self.unchanged_hits),
        }

    # -- checkpoint ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Serializable image: every row plus the counters."""
        return {
            "rows": sorted(self.relation.scan(), key=itemgetter("url")),
            "recorded": self.recorded,
            "changes_detected": self.changes_detected,
            "unchanged_hits": self.unchanged_hits,
        }

    def restore(self, state: dict) -> None:
        """Rebuild the store from a :meth:`snapshot` image."""
        self.database = Database(
            schemas={DIGEST_SCHEMA.name: DIGEST_SCHEMA}
        )
        self.relation = self.database[DIGEST_SCHEMA.name]
        self.relation.bulk_insert(
            map(itemgetter(*DIGEST_SCHEMA.column_names), state["rows"])
        )
        self.recorded = state["recorded"]
        self.changes_detected = state["changes_detected"]
        self.unchanged_hits = state["unchanged_hits"]

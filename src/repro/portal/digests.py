"""Content digests: the recrawl scheduler's change detection.

Every stored page gets a BLAKE2b digest of its raw payload.  A revisit
fetch recomputes the digest and compares: equal digests mean the page
is unchanged and the expensive re-analysis (convert, tokenize, feature
extraction, classification, index fold) is skipped entirely.

The store is a URL-keyed map of digest rows.  Nothing asks it anything
but "what is this URL's row", so it is a dict, not a relation.
"""

from __future__ import annotations

import hashlib

__all__ = ["content_digest", "DigestStore"]

def content_digest(payload: str | None) -> str:
    """Stable hex digest of a fetched payload (empty payload included)."""
    data = (payload or "").encode("utf-8", errors="replace")
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class DigestStore:
    """Per-URL content digests with change counters."""

    NEW = "new"
    CHANGED = "changed"
    UNCHANGED = "unchanged"

    def __init__(self) -> None:
        self._rows: dict[str, dict] = {}
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
        row = self._rows.get(url)
        if row is None:
            self._rows[url] = {
                "url": url, "digest": digest, "page_id": page_id,
                "fetched_at": at, "check_count": 1, "change_count": 0,
            }
            return self.NEW
        row["fetched_at"] = at
        row["check_count"] += 1
        if row["digest"] == digest:
            self.unchanged_hits += 1
            return self.UNCHANGED
        self.changes_detected += 1
        row["digest"] = digest
        if page_id is not None:
            row["page_id"] = page_id
        row["change_count"] += 1
        return self.CHANGED

    def digest_of(self, url: str) -> str | None:
        row = self._rows.get(url)
        return row["digest"] if row is not None else None

    def forget(self, url: str) -> bool:
        """Drop a dead URL's digest; True if a row was removed."""
        return self._rows.pop(url, None) is not None

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, url: str) -> bool:
        return url in self._rows

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Digest counters (:class:`repro.obs.api.Instrumented`-shaped)."""
        return {
            "digests_stored": float(len(self._rows)),
            "digests_recorded": float(self.recorded),
            "digest_changes_detected": float(self.changes_detected),
            "digest_unchanged_hits": float(self.unchanged_hits),
        }

"""Content digests: the recrawl scheduler's change detection.

Every stored page gets a BLAKE2b digest of its raw payload.  A revisit
fetch recomputes the digest and compares: equal digests mean the page
is unchanged and the expensive re-analysis (convert, tokenize, feature
extraction, classification, index fold) is skipped entirely.

The store is a ``url -> digest`` dict: nothing asks it anything but
"what is this URL's digest".
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
        self._digests: dict[str, str] = {}
        self.recorded = 0
        self.changes_detected = 0
        self.unchanged_hits = 0

    def record(self, url: str, digest: str) -> str:
        """Store a fetch's digest: ``new``, ``changed`` or ``unchanged``."""
        self.recorded += 1
        stored = self._digests.get(url)
        if stored == digest:
            self.unchanged_hits += 1
            return self.UNCHANGED
        self._digests[url] = digest
        if stored is None:
            return self.NEW
        self.changes_detected += 1
        return self.CHANGED

    def digest_of(self, url: str) -> str | None:
        return self._digests.get(url)

    def forget(self, url: str) -> bool:
        """Drop a dead URL's digest; True if one was stored."""
        return self._digests.pop(url, None) is not None

    def __len__(self) -> int:
        return len(self._digests)

    def __contains__(self, url: str) -> bool:
        return url in self._digests

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Digest counters (:class:`repro.obs.api.Instrumented`-shaped)."""
        return {
            "digests_stored": float(len(self._digests)),
            "digests_recorded": float(self.recorded),
            "digest_changes_detected": float(self.changes_detected),
            "digest_unchanged_hits": float(self.unchanged_hits),
        }

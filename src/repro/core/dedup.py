"""Three-stage duplicate detection (paper section 4.2).

"Since a document may be accessed through different path aliases on the
same host, the crawler uses several fingerprints to recognize duplicates":

1. **URL hash** -- compare the hash code of the visited URL (cheap, with
   a small risk of falsely dismissing a new document on collision);
2. **IP + path** -- the combination of resolved IP address and resource
   path catches hostname aliases of the same server;
3. **IP + filesize** -- "we assume that the filesize is a unique value
   within the same host": an identical (ip, size) pair marks a copy even
   under a different path.

Stages 1-2 run *before* the download; stage 3 runs once the size is
known.  Each stage keeps hit statistics for the crawl-management bench.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.web.urls import parse_url, url_hash

__all__ = ["DuplicateDetector", "DedupStats"]


@dataclass
class DedupStats:
    checked: int = 0
    url_hash_hits: int = 0
    ip_path_hits: int = 0
    ip_size_hits: int = 0


class DuplicateDetector:
    """Stateful fingerprint store over one crawl."""

    def __init__(self) -> None:
        self._url_hashes: set[int] = set()
        self._ip_paths: set[tuple[str, str]] = set()
        self._ip_sizes: set[tuple[str, int]] = set()
        self.stats = DedupStats()

    # -- stage 1: before DNS ------------------------------------------------

    def is_known_url(self, url: str) -> bool:
        """Stage 1: URL-hash check; records the URL as seen."""
        self.stats.checked += 1
        fingerprint = url_hash(url)
        if fingerprint in self._url_hashes:
            self.stats.url_hash_hits += 1
            return True
        self._url_hashes.add(fingerprint)
        return False

    # -- stage 2: after DNS resolution ----------------------------------------

    def is_known_ip_path(self, ip: str, url: str) -> bool:
        """Stage 2: (resolved IP, resource path) check."""
        parsed = parse_url(url)
        path = parsed.path if parsed is not None else url
        key = (ip, path)
        if key in self._ip_paths:
            self.stats.ip_path_hits += 1
            return True
        self._ip_paths.add(key)
        return False

    def forget_ip_path(self, ip: str, url: str) -> None:
        """Drop a stage-2 fingerprint (a failed fetch will be retried)."""
        parsed = parse_url(url)
        path = parsed.path if parsed is not None else url
        self._ip_paths.discard((ip, path))

    # -- stage 3: once the size is known ----------------------------------------

    def is_known_ip_size(self, ip: str, size: int) -> bool:
        """Stage 3: (IP, filesize) check on the downloading document."""
        key = (ip, size)
        if key in self._ip_sizes:
            self.stats.ip_size_hits += 1
            return True
        self._ip_sizes.add(key)
        return False

    # -- checkpoint ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Serializable image of all three fingerprint tables."""
        return {
            "url_hashes": sorted(self._url_hashes),
            "ip_paths": sorted(list(pair) for pair in self._ip_paths),
            "ip_sizes": sorted(list(pair) for pair in self._ip_sizes),
            "stats": {
                "checked": self.stats.checked,
                "url_hash_hits": self.stats.url_hash_hits,
                "ip_path_hits": self.stats.ip_path_hits,
                "ip_size_hits": self.stats.ip_size_hits,
            },
        }

    def restore(self, state: dict) -> None:
        self._url_hashes = set(state["url_hashes"])
        self._ip_paths = {(ip, path) for ip, path in state["ip_paths"]}
        self._ip_sizes = {(ip, size) for ip, size in state["ip_sizes"]}
        self.stats = DedupStats(**state["stats"])

    def register_redirect_target(self, url: str) -> bool:
        """Mark a redirect's final URL as seen; True if it already was.

        Redirect handling (paper 4.2) applies "a similar procedure": the
        final URL of a redirect chain goes through the URL-hash stage so
        the same target reached via several aliases is fetched once.
        """
        return self.is_known_url(url)

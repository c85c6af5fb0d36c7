"""The simulated HTTP layer.

:class:`SimulatedServer` answers ``GET`` requests for a synthetic Web:
it resolves redirects (alias URLs 302 to canonical ones, chains capped),
draws per-host timeouts and 5xx errors from deterministic random streams
(so retries can genuinely succeed or keep failing), charges realistic
latencies, and returns MIME type + declared size so the crawler's
document-type management (paper section 4.2) has something to filter.

Fetch attempts are deterministic given ``(seed, url, attempt_number)``;
the attempt counter is per-URL so a retry after a timeout re-rolls.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.web.model import Host, PageSpec

__all__ = ["FetchStatus", "FetchResult", "SimulatedServer"]

BANDWIDTH_BYTES_PER_SECOND = 40_000.0


class FetchStatus:
    """Terminal states of one fetch."""

    OK = "ok"
    TIMEOUT = "timeout"
    HTTP_ERROR = "http_error"
    NOT_FOUND = "not_found"
    TOO_MANY_REDIRECTS = "too_many_redirects"
    LOCKED = "locked"


@dataclass
class FetchResult:
    """Everything the crawler learns from one GET."""

    url: str
    status: str
    final_url: str | None = None
    page_id: int | None = None
    ip: str | None = None
    mime: str | None = None
    size: int = 0
    html: str | None = None
    latency: float = 0.0
    redirect_chain: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == FetchStatus.OK


class SimulatedServer:
    """Serves a generated Web deterministically.

    Parameters
    ----------
    pages:
        All page specs; ``pages[i].page_id == i``.
    hosts:
        Host profiles by hostname.
    url_map:
        Maps every canonical URL, redirect alias, and copy URL to
        ``(page_id, kind)`` where kind is ``"canonical"``, ``"alias"`` or
        ``"copy"``.
    renderer:
        Produces page payloads on demand.
    """

    def __init__(
        self,
        pages: list[PageSpec],
        hosts: dict[str, Host],
        url_map: dict[str, tuple[int, str]],
        renderer,
        seed: int = 0,
    ) -> None:
        self.pages = pages
        self.hosts = hosts
        self.url_map = url_map
        self.renderer = renderer
        self.seed = seed
        self.max_redirects = 25
        self.fetch_counts: Counter = Counter()
        self._attempts: Counter = Counter()
        self.faults = None
        """Optional :class:`repro.robust.faults.FaultInjector`; attached
        by the crawler when fault windows are configured."""

    # ------------------------------------------------------------------

    def host_of(self, url: str) -> Host | None:
        sep = url.find("://")
        if sep < 0:
            return None
        rest = url[sep + 3 :]
        slash = rest.find("/")
        hostname = rest if slash < 0 else rest[:slash]
        return self.hosts.get(hostname.lower())

    def _roll(self, url: str, attempt: int) -> np.random.Generator:
        # Stable across processes (Python's str hash is salted per run).
        digest = hashlib.blake2b(
            f"{self.seed}|{url}|{attempt}".encode(), digest_size=8
        ).digest()
        return np.random.default_rng(int.from_bytes(digest, "big"))

    def _latency(self, host: Host, size: int, rng: np.random.Generator) -> float:
        transfer = size / BANDWIDTH_BYTES_PER_SECOND
        return float(host.mean_latency * rng.exponential(1.0) + transfer)

    # ------------------------------------------------------------------

    def fetch(self, url: str) -> FetchResult:
        """Simulate ``GET url`` following redirects; never raises."""
        chain: list[str] = []
        latency = 0.0
        current = url
        for _hop in range(self.max_redirects + 1):
            host = self.host_of(current)
            if host is None:
                return FetchResult(
                    url=url, status=FetchStatus.NOT_FOUND,
                    latency=latency, redirect_chain=chain,
                )
            if host.locked:
                return FetchResult(
                    url=url, status=FetchStatus.LOCKED,
                    latency=latency, redirect_chain=chain,
                )
            entry = self.url_map.get(current)
            if entry is None:
                return FetchResult(
                    url=url, status=FetchStatus.NOT_FOUND, ip=host.ip,
                    latency=latency + host.mean_latency,
                    redirect_chain=chain,
                )
            page_id, kind = entry
            page = self.pages[page_id]
            self._attempts[current] += 1
            rng = self._roll(current, self._attempts[current])
            forced = (
                self.faults.fetch_fault(
                    host.name, current, self._attempts[current]
                )
                if self.faults is not None
                else None
            )
            if forced == "timeout":
                return FetchResult(
                    url=url, status=FetchStatus.TIMEOUT, ip=host.ip,
                    latency=latency + host.mean_latency * 4,
                    redirect_chain=chain,
                )
            if forced == "http_error":
                return FetchResult(
                    url=url, status=FetchStatus.HTTP_ERROR, ip=host.ip,
                    latency=latency + host.mean_latency,
                    redirect_chain=chain,
                )
            if host.timeout_rate > 0 and rng.random() < host.timeout_rate:
                return FetchResult(
                    url=url, status=FetchStatus.TIMEOUT, ip=host.ip,
                    latency=latency + host.mean_latency * 4,
                    redirect_chain=chain,
                )
            if host.error_rate > 0 and rng.random() < host.error_rate:
                return FetchResult(
                    url=url, status=FetchStatus.HTTP_ERROR, ip=host.ip,
                    latency=latency + host.mean_latency,
                    redirect_chain=chain,
                )
            if kind == "alias":
                # 302 to the canonical URL; each hop costs one round trip.
                chain.append(current)
                latency += host.mean_latency * 0.5
                current = page.url
                continue
            # canonical or byte-identical copy: serve the document
            latency += self._latency(host, page.size_bytes, rng)
            self.fetch_counts[host.name] += 1
            return FetchResult(
                url=url,
                status=FetchStatus.OK,
                final_url=current,
                page_id=page_id,
                ip=host.ip,
                mime=page.mime,
                size=page.size_bytes,
                html=self.renderer.payload(page),
                latency=latency,
                redirect_chain=chain,
            )
        return FetchResult(
            url=url, status=FetchStatus.TOO_MANY_REDIRECTS,
            latency=latency, redirect_chain=chain,
        )

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Serializable fetch state (per-URL attempt counters).

        The per-fetch RNG is keyed on ``(url, attempt)``, so restoring
        the attempt counters makes resumed fetch sequences -- including
        latencies and fault rolls -- identical to an uninterrupted run.
        """
        return {
            "attempts": dict(sorted(self._attempts.items())),
            "fetch_counts": dict(sorted(self.fetch_counts.items())),
        }

    def restore(self, state: dict) -> None:
        """Adopt fetch state from a :meth:`snapshot` image."""
        self._attempts = Counter(state["attempts"])
        self.fetch_counts = Counter(state["fetch_counts"])

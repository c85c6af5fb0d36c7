"""Stable host-hash -> worker-id routing.

Every placement decision in the sharded runtime (which worker pool
fetches a host, which workspace range stores its rows, whether a link
crosses workers) flows through one :class:`ShardRouter`, so they can
never disagree.

The hash is BLAKE2b over the host name -- *not* Python's builtin
``hash``, whose per-process salting the repo's determinism rules ban --
so the partition is identical across runs, machines and checkpoints.
"""

from __future__ import annotations

import hashlib

__all__ = ["ShardRouter"]


class ShardRouter:
    """Deterministic host -> worker-id partition for N workers."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self.workers = workers
        self._cache: dict[str, int] = {}

    def shard_of(self, host: str) -> int:
        """The worker id owning ``host`` (stable across runs)."""
        shard = self._cache.get(host)
        if shard is None:
            digest = hashlib.blake2b(
                host.encode("utf-8"), digest_size=8
            ).digest()
            shard = int.from_bytes(digest, "big") % self.workers
            self._cache[host] = shard
        return shard

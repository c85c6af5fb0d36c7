"""An idf-snapshot-keyed LRU cache for per-document feature vectors.

Classification touches the same documents repeatedly -- archetype
re-scoring at every retraining point, training-confidence refreshes,
meta-bench evaluation -- and each touch used to re-run the tf*idf
weighting from scratch.  The cache keys entries by object identity
*and* the vectorizers' idf snapshot version, so a ``refresh_idf`` (the
lazy idf recomputation of paper section 2.2) naturally invalidates
every stale vector without an explicit flush.

Entries keep a strong reference to the document they were computed
from: identity keys are only safe while the keyed object is alive, and
the held reference guarantees an ``id()`` is never recycled into a
false hit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["MAX_ENTRIES", "VectorCache"]

MAX_ENTRIES = 1024
"""Documents whose vectors one cache holds (archetype re-scoring and
retraining evaluation hit it)."""


class VectorCache:
    """Bounded LRU mapping ``(snapshot key, document) -> vectors``."""

    def __init__(self) -> None:
        self._entries: OrderedDict[int, tuple[Hashable, Any, Any]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, float]:
        """Cache counters (:class:`repro.obs.api.Instrumented`)."""
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "entries": float(len(self._entries)),
            "max_entries": float(MAX_ENTRIES),
        }

    def get(self, doc: Any, version: Hashable) -> Any:
        """The cached vectors of ``doc`` under ``version``, or None.

        A stored entry is reused only when both the document object and
        the snapshot version match.  Counts a hit or a miss; callers
        that follow a miss with :meth:`put` must not count again.
        """
        key = id(doc)
        entry = self._entries.get(key)
        if entry is not None and entry[0] == version and entry[1] is doc:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[2]
        self.misses += 1
        return None

    def put(self, doc: Any, version: Hashable, vectors: Any) -> None:
        """Store ``doc``'s vectors under ``version`` (LRU-evicting)."""
        key = id(doc)
        self._entries[key] = (version, doc, vectors)
        self._entries.move_to_end(key)
        while len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)

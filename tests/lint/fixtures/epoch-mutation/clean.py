"""Fixture: all epoch-guarded mutations go through the funnels."""


class QueryCache:
    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> object | None:
        self.misses += 1
        return None

    def put(self, key: str, value: object) -> None:
        self.hits += 1


class LocalSearchEngine:
    def __init__(self) -> None:
        self.documents: list[str] = []
        self._views: dict[str, list[str]] = {}
        self._url_to_doc: dict[str, int] = {}

    def advance_epoch(self) -> None:
        self._views = {}
        self._url_to_doc = {}

    def apply_delta(self, added: list[str]) -> None:
        self.documents = self.documents + list(added)
        self.advance_epoch()

    def _view(self, topic: str) -> list[str]:
        view = self._views.get(topic)
        if view is None:
            view = self._views[topic] = [
                d for d in self.documents if d.startswith(topic)
            ]
        return view

    def _authority_scores(self, document: str) -> int:
        # the one funnel that fills the per-epoch url map
        doc_id = self._url_to_doc.get(document)
        if doc_id is None:
            doc_id = self._url_to_doc[document] = len(self._url_to_doc)
        return doc_id

    def filter(self, topic: str) -> list[str]:
        # readers get a copy; only _view fills the store
        return list(self._view(topic))


def refresh_corpus(
    engine: LocalSearchEngine, cache: QueryCache, documents: list[str]
) -> None:
    # callers drive the lifecycle through the API, never directly
    engine.apply_delta(documents)
    cache.put("latest", documents)

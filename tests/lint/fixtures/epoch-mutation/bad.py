"""Fixture: epoch-guarded state mutated outside its lifecycle funnel."""


class QueryCache:
    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> object | None:
        self.misses += 1
        return None


class LocalSearchEngine:
    def __init__(self) -> None:
        self.documents: list[str] = []
        self._views: dict[str, list[str]] = {}
        self._url_to_doc: dict[str, int] = {}

    def apply_delta(self, added: list[str]) -> None:
        self.documents = self.documents + list(added)

    def filter(self, topic: str) -> list[str]:
        # fills the per-epoch view store, but is not its funnel
        candidates = [d for d in self.documents if d.startswith(topic)]
        self._views[topic] = candidates
        return candidates

    def sneak(self, document: str) -> None:
        # a method of the class, but not a lifecycle funnel
        self.documents.append(document)


def poke(cache: QueryCache) -> None:
    cache.hits = 5
    cache.misses += 1


def graft(engine: LocalSearchEngine, document: str) -> None:
    engine.documents.append(document)


def prewarm(engine: LocalSearchEngine, topic: str) -> None:
    # a view planted from outside outlives no epoch the engine knows of
    engine._views[topic] = []


def precompute(engine: LocalSearchEngine, document: str) -> None:
    # a url filed from outside is not dropped with its epoch
    engine._url_to_doc[document] = 0

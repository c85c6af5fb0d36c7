"""Fixture: the surviving surface, with no removed member in sight."""
from dataclasses import dataclass

from repro.storage import dump_database, load_database


def round_trip(database: object, directory: str) -> object:
    dump_database(database, directory)
    return load_database(directory)


@dataclass
class BingoConfig:
    seed: int = 0
    retry_base_delay: float = 4.0


def fresh_knobs() -> BingoConfig:
    return BingoConfig(seed=7, retry_base_delay=2.0)


def first_backoff(config: BingoConfig) -> float:
    return config.retry_base_delay


class MetricsRegistry:
    def __init__(self) -> None:
        self.sources: dict[str, object] = {}

    def register_source(self, name: str, source: object) -> None:
        self.sources[name] = source

    def snapshot(self) -> dict:
        return {"at": 0.0, "sources": {}}


class LocalSearchEngine:
    def __init__(self, documents: list) -> None:
        self.documents = list(documents)
        self.queries = 0

    def stats(self) -> dict[str, float]:
        return {"queries": float(self.queries)}


class Tally:
    # "counter" / "value" / "obs" on another receiver are fine names
    obs: int = 0

    def counter(self) -> int:
        return self.obs

    def value(self) -> int:
        return self.obs


def whoever_builds_it_registers_it(registry: MetricsRegistry) -> float:
    engine = LocalSearchEngine([])
    registry.register_source("search", engine)
    tally = Tally()
    tally.obs = tally.counter() + tally.value()
    return registry.snapshot()["sources"]["search"]["queries"]


class CrawlContext:
    def __init__(self) -> None:
        self.obs = MetricsRegistry()


class LinearSVM:
    # "tol" / "max_iterations" stay live keywords of other callees
    def __init__(self, tol: float = 1e-4) -> None:
        self.tol = tol


def the_context_holds_the_registry(ctx: CrawlContext) -> dict:
    LinearSVM(tol=1e-6)
    return ctx.obs.snapshot()

"""Fixture: the surviving surface, with no removed member in sight."""
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar

from repro.storage import dump_database, load_database


def round_trip(database: object, directory: str) -> object:
    dump_database(database, directory)
    return load_database(directory)


@dataclass
class BingoConfig:
    seed: int = 0
    host_quarantine: float = 600.0
    dns_servers: ClassVar[int] = 5


def fresh_knobs() -> BingoConfig:
    return BingoConfig(seed=7, host_quarantine=30.0)


def first_quarantine(config: BingoConfig) -> float:
    # a class constant stays readable
    return config.host_quarantine * config.dns_servers


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


class Booking:
    # "table" / "seed" on another receiver are fine names
    table: int = 0

    def seed(self) -> int:
        return self.table


class ExperimentTable:
    def cell(self, row: str, header: str) -> float:
        return 0.0


def run_focus_ablation(budget: int = 500) -> ExperimentTable:
    # budget stays a live keyword: tests shrink the run with it
    return ExperimentTable()


def whoever_builds_it_registers_it(registry: MetricsRegistry) -> float:
    engine = LocalSearchEngine([])
    registry.register_source("search", engine)
    booking = Booking()
    booking.table = booking.seed()
    precision = run_focus_ablation(budget=120).cell("svm", "Precision")
    return precision + registry.snapshot()["sources"]["search"]["queries"]


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


class Relation:
    def rows(self) -> list:
        return []

    def upsert(self, row: tuple) -> None:
        self.last = row


class BulkLoader:
    def add(self, thread_id: int, relation: str, row: tuple) -> None:
        self.last = row


class DnsZone:
    def lookup(self, host: str) -> str | None:
        return None


class RecrawlScheduler:
    def __init__(self, engine: object) -> None:
        self.engine = engine


def the_store_appends_and_dumps(
    relation: Relation, zone: DnsZone, loader: BulkLoader
) -> list:
    # get / update / lookup on other receivers are fine names
    relation.upsert(("db", 1))
    loader.add(0, "archetypes", ("db", 1))
    seen: dict[str, int] = {}
    counts: Counter = Counter()
    counts.update(["a"])
    RecrawlScheduler(relation)
    return [seen.get("a"), zone.lookup("a.example"), *relation.rows()]


class Layout:
    def __init__(self) -> None:
        self.shards: list[int] = [0]
        self.slices: list[int] = [0]


class CrawlFrontier:
    def __init__(self, prefetch: object = None) -> None:
        self.prefetch = prefetch

    def snapshot(self) -> dict:
        return {"queues": {}, "deferred": []}


class ShardedFrontier(CrawlFrontier):
    def pop(self) -> None:
        return None


class WorkerSet:
    def __init__(self, count: int) -> None:
        self.pools: list[int] = [0] * count
        self.router = Layout()


def a_worker_owns_a_pool(layout: Layout, workers: WorkerSet) -> int:
    # .shards / .slices on other receivers are fine names
    frontier = ShardedFrontier(prefetch=len)
    frontier.pop()
    frontier.snapshot()
    return len(layout.shards) + len(layout.slices) + len(workers.pools) + (
        len(workers.router.shards)
    )


def restore_context(ctx: object, directory: object) -> None:
    return None


def a_checkpoint_is_a_directory(database: object) -> object:
    # a chain of segments, oldest first; "source" stays legal elsewhere
    restore_context(None, directory="checkpoint")
    dump_database(database, "database-2", stamp=2, after=1, since={})
    load_database(["database-1", "database-2"], stamp=2)
    return dict(source="checkpoint")

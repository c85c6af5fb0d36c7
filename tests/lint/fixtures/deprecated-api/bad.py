"""Fixture: recently removed members being defined and used again."""
from dataclasses import dataclass


from repro.storage import sync_term_statistics
from repro.storage.persistence import sync_term_statistics as sync_idf


def materialise(database: object, vectorizer: object) -> int:
    return sync_term_statistics(database, vectorizer) + sync_idf(
        database, vectorizer
    )


@dataclass
class BingoConfig:
    seed: int = 0
    svm_cost: float = 1.0


def stale_knobs() -> BingoConfig:
    return BingoConfig(seed=3, svm_cost=2.0)


class WorkerSet:
    def __init__(self, count: int) -> None:
        self.count = count


class MetricsRegistry:
    def counter(self, name: str) -> object:
        return object()

    def gauge(self, name: str) -> object:
        return object()

    def histogram(self, name: str) -> object:
        return object()

    def value(self, name: str) -> float:
        return 0.0


class Obs:
    enabled: bool = True

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    def record_stage_event(self, event: object) -> None:
        self.registry.counter("pipeline_stage_batches_total")

    def count_hook_error(self) -> None:
        self.registry.gauge("pipeline_hook_errors")

    def breaker_transition(self, old_state: str, new_state: str) -> None:
        self.registry.histogram("robust_breaker_transitions")


def second_metrics_path(obs: Obs) -> float:
    if obs.enabled:
        obs.record_stage_event(None)
        obs.count_hook_error()
    return obs.registry.value("pipeline_stage_batches_total")


@dataclass
class HostBreaker:
    state: str = "closed"
    on_transition: object = None


class BreakerBoard:
    def __init__(self) -> None:
        self.hosts: dict[str, HostBreaker] = {}


class BreakerBoardSet:
    def __init__(self) -> None:
        self.boards: list[BreakerBoard] = []


class BulkLoader:
    def __init__(self) -> None:
        self.rows_loaded = 0


class LocalSearchEngine:
    def __init__(self, documents: list) -> None:
        self.documents = list(documents)

    def rebuild(self, documents: list) -> None:
        self.documents = list(documents)


class QueryServer:
    def __init__(self, engine: LocalSearchEngine) -> None:
        self.engine = engine


def components_that_know_obs(obs: Obs, breaker: HostBreaker) -> QueryServer:
    breaker.on_transition = obs.breaker_transition
    BreakerBoard(obs=obs)
    BreakerBoardSet(obs=obs)
    WorkerSet(4, obs=obs)
    BulkLoader(obs=obs)
    engine = LocalSearchEngine([], obs=obs)
    engine.rebuild([])
    return QueryServer(engine, obs=obs)


def the_off_switch() -> BingoConfig:
    return BingoConfig(instrumentation=False, trace_ring_size=0)

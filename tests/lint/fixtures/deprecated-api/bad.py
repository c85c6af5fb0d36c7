"""Fixture: recently removed members being defined and used again."""
from dataclasses import dataclass


from repro.perf.topk import decode_doc_ids, encode_doc_ids
from repro.search.index import Postings


class InvertedIndex:
    def __init__(self) -> None:
        self.runs: dict[str, Postings] = {}

    def matching_ids(self, terms: list) -> set:
        return set()

    def postings(self, term: str) -> Postings | None:
        return self.runs.get(term)

    def terms(self) -> list:
        return sorted(self.runs)


def run_lengths(index: InvertedIndex) -> list[int]:
    index.matching_ids(["recoveri"])
    return [
        len(decode_doc_ids(encode_doc_ids([1, 2])))
        for term in index.terms()
        if index.postings(term)
    ]


@dataclass
class DeltaReport:
    docs_added: int
    scope: str = "local"
    vectors_recomputed: int = 0
    vectors_reused: int = 0
    postings_reused: int = 0


def took_the_slow_branch(report: DeltaReport) -> bool:
    return report.scope == "global" or report.postings_reused == 0


class CompiledClassifier:
    def classify_many(self, docs: list, mode: str) -> list:
        return []


@dataclass
class BingoConfig:
    seed: int = 0
    incoming_queue_limit: int = 25_000

    @property
    def processing_cost(self) -> float:
        return 0.05


def stale_knobs() -> BingoConfig:
    return BingoConfig(retry_multiplier=3.0, top_hubs=5, svm_cost=2.0)


def fetch_charge(config: BingoConfig) -> float:
    return config.processing_cost + config.convert_cost


class WorkerSet:
    def add_barrier_hook(self, hook) -> None:
        pass


def wire(workers: WorkerSet) -> None:
    workers.add_barrier_hook(print)


class VectorCache:
    def get_or_compute(self, doc: dict, version: int, compute) -> dict:
        return compute(doc)


class TopicDecisionModel:
    def decide(self, vectors: dict, mode: str) -> tuple[bool, float]:
        return True, 0.0


class HierarchicalClassifier:
    def __init__(self) -> None:
        self.cache = VectorCache()

    def classify_reference(self, doc: dict) -> dict:
        return self.cache.get_or_compute(doc, 0, dict)


def second_decision_phase(
    classifier: HierarchicalClassifier, model: TopicDecisionModel
) -> dict:
    model.decide({}, "single")
    return classifier.classify_reference({})


def third_decision_phase(kernel: CompiledClassifier) -> int:
    kernel.classify({}, "single")
    return kernel.model_version


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
    WorkerSet(obs=obs)
    BulkLoader(obs=obs)
    engine = LocalSearchEngine([], obs=obs)
    engine.rebuild([])
    return QueryServer(engine, obs=obs)


def the_off_switch() -> BingoConfig:
    return BingoConfig(instrumentation=False, trace_ring_size=0)

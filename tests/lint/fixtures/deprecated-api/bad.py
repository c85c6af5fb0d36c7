"""Fixture: recently removed members being defined and used again."""
from dataclasses import dataclass


class InvertedIndex:
    @classmethod
    def from_database(cls, database: dict) -> "InvertedIndex":
        return cls()


class CompiledClassifier:
    def decide_topic(self, topic: str) -> float:
        return 0.0


def one_at_a_time(kernel: CompiledClassifier) -> float:
    return kernel.decide_topic("ROOT/db")


class ConvertStage:
    analyzer = None


def second_analyzer(stage: ConvertStage) -> None:
    stage.analyzer = str.lower


@dataclass(frozen=True)
class StageEvent:
    stage: str
    elapsed: float


def wall_seconds(event: StageEvent) -> float:
    return event.elapsed


def fake_event() -> StageEvent:
    return StageEvent(stage="fetch", elapsed=0.0)


class Obs:
    def __init__(self) -> None:
        self.enabled = True


def triage(obs: Obs) -> dict:
    return obs.wall_stage_seconds


class LocalSearchEngine:
    def __init__(self) -> None:
        self.queries = 0
        self.query_seconds = 0.0


def mean_latency(engine: LocalSearchEngine) -> float:
    return engine.query_seconds / max(engine.queries, 1)


@dataclass
class BingoConfig:
    seed: int = 0
    incoming_queue_limit: int = 25_000

    @property
    def processing_cost(self) -> float:
        return 0.05


def stale_knobs() -> BingoConfig:
    return BingoConfig(retry_multiplier=3.0, top_hubs=5)


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

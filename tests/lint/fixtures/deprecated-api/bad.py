"""Fixture: recently removed members being defined and used again."""
from dataclasses import dataclass


class Postings:
    def __init__(self, doc_ids: list, weights: list, norms: dict) -> None:
        self.count = len(doc_ids)
        self.max_weight = max(weights)
        self.max_impact = max(w / norms[d] for d, w in zip(doc_ids, weights))


class InvertedIndex:
    def __init__(self) -> None:
        self.runs: dict[str, Postings] = {}

    def matching_ids(self, terms: list) -> set:
        return set()


def cursor_bound(index: InvertedIndex, run: Postings, share: float) -> float:
    index.matching_ids(["recoveri"])
    return share * run.max_impact


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

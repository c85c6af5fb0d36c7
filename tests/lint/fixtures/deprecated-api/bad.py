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

"""Fixture: the surviving surface, with no removed member in sight."""
from dataclasses import dataclass


class Postings:
    def __init__(self, doc_ids: list, weights: list) -> None:
        self.count = len(doc_ids)


class InvertedIndex:
    @classmethod
    def build(cls, vectors: dict, epoch: int) -> "InvertedIndex":
        return cls()

    def impacts(self, term: str) -> tuple | None:
        return None


class Histogram:
    max_weight: float = 0.0  # not a posting run: fine


def heaviest(histograms: list[Histogram]) -> float:
    # "max_weight" on another receiver is a perfectly fine name
    return max(histogram.max_weight for histogram in histograms)


def touched(index: InvertedIndex, run: Postings) -> int:
    return run.count if index.impacts("recoveri") else 0


@dataclass
class BingoConfig:
    seed: int = 0
    retry_base_delay: float = 4.0


def fresh_knobs() -> BingoConfig:
    return BingoConfig(seed=7, retry_base_delay=2.0)


def first_backoff(config: BingoConfig) -> float:
    return config.retry_base_delay


class HierarchicalClassifier:
    def __init__(self) -> None:
        self.model_version = 0  # the classifier keeps its own counter

    def classify(self, doc: dict) -> str:
        return self.classify_batch([doc])[0]

    def classify_batch(self, docs: list) -> list[str]:
        return ["ROOT/OTHERS" for _ in docs]


def retrainings(classifier: HierarchicalClassifier) -> int:
    classifier.classify({})
    return classifier.model_version

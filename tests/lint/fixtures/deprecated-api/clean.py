"""Fixture: the surviving surface, with no removed member in sight."""
from dataclasses import dataclass


class InvertedIndex:
    @classmethod
    def build(cls, vectors: dict, epoch: int) -> "InvertedIndex":
        return cls()


@dataclass(frozen=True)
class StageEvent:
    stage: str
    in_size: int


class Timer:
    elapsed: float = 0.0  # not a stage event: fine


def batch_sizes(events: list[StageEvent]) -> list[int]:
    return [event.in_size for event in events]


def total(timers: list[Timer]) -> float:
    # "elapsed" on another receiver is a perfectly fine name
    return sum(timer.elapsed for timer in timers)


class LocalSearchEngine:
    def __init__(self) -> None:
        self.queries = 0

    def stats(self) -> dict[str, float]:
        return {"queries": float(self.queries)}


def served(engine: LocalSearchEngine) -> float:
    return engine.stats()["queries"]


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

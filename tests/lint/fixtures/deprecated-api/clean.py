"""Fixture: the surviving surface, with no removed member in sight."""
from dataclasses import dataclass


class InvertedIndex:
    @classmethod
    def build(cls, documents: dict, statistics: object) -> "InvertedIndex":
        return cls()

    def impacts(self, term: str) -> tuple | None:
        return None


class Histogram:
    scope: str = "local"  # not a delta report: fine

    def terms(self) -> list:
        return []


def widest(histograms: list[Histogram]) -> int:
    # "terms" / "scope" on another receiver are perfectly fine names
    return max(
        len(histogram.terms()) for histogram in histograms
        if histogram.scope == "local"
    )


def touched(index: InvertedIndex) -> bool:
    return index.impacts("recoveri") is not None


@dataclass
class DeltaReport:
    docs_added: int
    postings_written: int = 0
    postings_dropped: int = 0


def moved(report: DeltaReport) -> int:
    return report.postings_written + report.postings_dropped


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

"""Fixture: removed shims and knobs being defined and used again."""


class LocalSearchEngine:
    def __init__(self) -> None:
        self.generation = 0

    @property
    def cache_token(self) -> tuple[int, int]:
        return (0, self.generation)

    def refresh(self) -> None:
        self.generation += 1


def peek(engine: LocalSearchEngine) -> tuple[int, int]:
    return engine.cache_token


def bump(engine: LocalSearchEngine) -> None:
    engine.refresh()


def _deprecated_alias(name: str) -> str:
    return name


class BingoConfig:
    seed: int = 0
    validate_storage: bool = False


def unchecked(config: BingoConfig) -> bool:
    return config.validate_storage


def debugging() -> BingoConfig:
    return BingoConfig(validate_storage=True)


def reference_only() -> BingoConfig:
    return BingoConfig(use_compiled_kernels=False)


class CrawlFrontier:
    def __init__(self, incoming_limit: int = 10) -> None:
        self.incoming_limit = incoming_limit


def shard_of_a_coordinator() -> CrawlFrontier:
    return CrawlFrontier(incoming_limit=5, managed=True)


class FocusedCrawler:
    def __init__(self, config: BingoConfig) -> None:
        self.ctx = config

    @property
    def frontier(self) -> CrawlFrontier:
        return CrawlFrontier()

    def _visit(self, entry: str) -> None:
        pass


def drive(crawler: FocusedCrawler) -> int:
    crawler._visit("http://h/")
    return crawler.frontier.incoming_limit + len(crawler.documents)


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

"""Fixture: the typed-Epoch API, with no shim in sight."""


class LocalSearchEngine:
    def __init__(self) -> None:
        self.generation = 0

    def rebuild(self, reason: str = "rebuild") -> None:
        self.generation += 1


def bump(engine: LocalSearchEngine) -> None:
    engine.rebuild(reason="promotion")


def refresh_stats(statistics: dict[str, float]) -> dict[str, float]:
    # "refresh" on a non-engine receiver is a perfectly fine name
    return dict(statistics)


class BingoConfig:
    seed: int = 0


class Database:
    validate_storage: bool = True  # not the engine config: fine


def seeded(config: BingoConfig) -> BingoConfig:
    return BingoConfig(seed=config.seed + 1)


class CrawlFrontier:
    def __init__(self, incoming_limit: int = 10, shards: int = 1) -> None:
        self.incoming_limit = incoming_limit
        self.shards = shards


class CrawlContext:
    def __init__(self, config: BingoConfig) -> None:
        self.config = config
        self.frontier = CrawlFrontier(shards=3)
        self.documents: list[str] = []


class FocusedCrawler:
    def __init__(self, config: BingoConfig) -> None:
        self.ctx = CrawlContext(config)


def drive(config: BingoConfig) -> int:
    # ``config=`` names a removed *member* but a live constructor
    # parameter; state is read through the context
    crawler = FocusedCrawler(config=config)
    return crawler.ctx.frontier.incoming_limit + len(crawler.ctx.documents)

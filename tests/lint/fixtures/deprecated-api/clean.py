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

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

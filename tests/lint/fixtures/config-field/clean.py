"""Fixture: reads resolving to declared BingoConfig fields."""


def run(config: "BingoConfig") -> int:
    return config.crawler_threads


def batch(ctx) -> float:
    return ctx.config.pipeline_batch_size * ctx.config.host_quarantine


def policy(config: "BingoConfig"):
    return config.retry_policy()

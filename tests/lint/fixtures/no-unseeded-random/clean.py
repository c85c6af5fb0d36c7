"""Fixture: seeded generators threaded from config."""
import random

import numpy as np


def draw(items, seed: int):
    rng = np.random.default_rng(seed)
    return rng.choice(items)


def fork(seed: int):
    return np.random.default_rng(seed * 7919 + 1)


class RecrawlScheduler:
    def __init__(self) -> None:
        self.order: list[str] = []

    def schedule(self, budget: float) -> None:
        self.order.append(str(budget))


def plan(scheduler: RecrawlScheduler, seed: int) -> None:
    # a Random seeded from config is deterministic; its draws may
    # legitimately shape the schedule
    rng = random.Random(seed)
    scheduler.schedule(rng.random() * 2.0)

"""Fixture: process-global / unseeded randomness.

The draws that reach a scheduler or classifier through a helper, a
parameter or arithmetic are flagged where they are drawn.
"""
import random

import numpy as np


def draw(items):
    rng = np.random.default_rng()
    np.random.shuffle(items)
    return random.choice(items), rng


def source():
    return random.Random()


class RecrawlScheduler:
    def __init__(self) -> None:
        self.order: list[str] = []

    def schedule(self, budget: float) -> None:
        self.order.append(str(budget))


class HierarchicalClassifier:
    def __init__(self) -> None:
        self.trained = False

    def train(self, samples: list[float]) -> None:
        self.trained = bool(samples)


def fuzz() -> float:
    # helper return
    return random.random()


def plan(scheduler: RecrawlScheduler) -> None:
    scheduler.schedule(fuzz() * 2.0)


def forward(scheduler: RecrawlScheduler, budget: float) -> None:
    scheduler.schedule(budget)


def replan(scheduler: RecrawlScheduler) -> None:
    # parameter pass-through
    forward(scheduler, random.SystemRandom().random())


def retrain(classifier: HierarchicalClassifier) -> None:
    noise = [random.uniform(0.0, 1.0)]
    classifier.train(noise)

"""Shared builders for the living-portal test suite.

Portal tests mutate the web (evolution) and the crawl context
(recrawl), so fixtures here build *fresh* engines rather than sharing
the session-scoped ``small_web`` -- one build is ~2 seconds.
"""

from __future__ import annotations

from repro.core import BingoEngine
from repro.portal import EvolutionConfig, LivingPortal
from repro.web import SyntheticWeb

from tests.conftest import nested_tree, small_web_config
from tests.core.conftest import fast_engine_config

#: one evolution seed used across parity/checkpoint scenarios so every
#: rebuilt portal replays the identical mutation schedule
EVOLUTION_SEED = 11


def build_engine(
    seed: int = 7,
    learning_budget: int = 120,
    harvesting_budget: int = 250,
) -> BingoEngine:
    """A freshly crawled two-topic engine over a fresh small web."""
    web = SyntheticWeb.generate(small_web_config(seed=seed))
    tree = nested_tree({"databases": {}, "datamining": {}})
    seeds = {
        "ROOT/databases": web.seed_homepages(3, topic="databases"),
        "ROOT/datamining": web.seed_homepages(3, topic="datamining"),
    }
    engine = BingoEngine(
        web, tree, seeds,
        config=fast_engine_config(learning_fetch_budget=learning_budget),
    )
    engine.run(harvesting_fetch_budget=harvesting_budget)
    return engine


def build_portal(**engine_kwargs) -> LivingPortal:
    engine = build_engine(**engine_kwargs)
    portal = LivingPortal(
        engine, evolution_config=EvolutionConfig(seed=EVOLUTION_SEED)
    )
    portal.open()
    return portal

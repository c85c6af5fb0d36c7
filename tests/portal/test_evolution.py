"""Web evolution: deterministic mutation schedule over a synthetic web.

These tests generate *fresh* webs (never the shared session fixture):
evolution mutates the page list and URL map in place.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.portal import EvolutionConfig, WebEvolution
from repro.web import SyntheticWeb

from tests.conftest import small_web_config

#: rates high enough that every mutation kind fires within a few ticks
BUSY = dict(
    mutation_rate=0.1,
    death_rate=0.05,
    birth_rate=0.05,
    link_rot_rate=0.05,
)


def fresh_web(seed: int = 7) -> SyntheticWeb:
    return SyntheticWeb.generate(small_web_config(seed=seed))


def busy_config(seed: int = 5) -> EvolutionConfig:
    return EvolutionConfig(seed=seed, **BUSY)


def fingerprint(web: SyntheticWeb) -> tuple:
    """Everything evolution can touch, in a comparable shape."""
    return (
        [
            (p.page_id, p.url, p.revision, p.length, tuple(p.out_links))
            for p in web.pages
        ],
        sorted(web.url_map),
    )


class TestConfigValidation:
    def test_tick_seconds_must_be_positive(self) -> None:
        with pytest.raises(ConfigError):
            WebEvolution(fresh_web(), EvolutionConfig(tick_seconds=0))

    def test_rates_must_be_fractions(self) -> None:
        with pytest.raises(ConfigError):
            WebEvolution(fresh_web(), EvolutionConfig(mutation_rate=1.5))
        with pytest.raises(ConfigError):
            WebEvolution(fresh_web(), EvolutionConfig(death_rate=-0.1))


class TestSchedule:
    def test_advance_is_tick_quantized_and_idempotent(self) -> None:
        evo = WebEvolution(fresh_web(), busy_config())
        tick = evo.config.tick_seconds
        assert evo.advance_to(tick * 0.9) == 0
        assert evo.advance_to(tick * 3) == 3
        assert evo.applied_tick == 3
        assert evo.advance_to(tick * 3) == 0
        assert evo.advance_to(tick * 3.7) == 0
        assert evo.advance_to(tick * 4) == 1

    def test_history_is_independent_of_increments(self) -> None:
        one_jump = WebEvolution(fresh_web(), busy_config())
        stepped = WebEvolution(fresh_web(), busy_config())
        tick = one_jump.config.tick_seconds
        one_jump.advance_to(tick * 12)
        for step in range(1, 25):
            stepped.advance_to(tick * 12 * step / 24)
        assert one_jump.stats() == stepped.stats()
        assert fingerprint(one_jump.web) == fingerprint(stepped.web)
        assert one_jump.changed_at == stepped.changed_at

    def test_every_mutation_kind_fires(self) -> None:
        evo = WebEvolution(fresh_web(), busy_config())
        evo.advance_to(evo.config.tick_seconds * 12)
        stats = evo.stats()
        assert stats["mutations"] > 0
        assert stats["deaths"] > 0
        assert stats["births"] > 0
        assert stats["links_rotted"] > 0
        assert stats["pages_alive"] < stats["pages_total"]


class TestGroundTruth:
    def test_protected_pages_survive(self) -> None:
        web = fresh_web()
        evo = WebEvolution(web, busy_config())
        evo.advance_to(evo.config.tick_seconds * 20)
        assert evo.deaths > 0
        for researcher in web.researchers:
            assert evo.alive(researcher.homepage_page_id)
        for page_id in web.needles:
            assert evo.alive(page_id)
        for name, host in web.hosts.items():
            if not host.locked:
                continue
            for page in web.pages:
                if page.host == name:
                    assert evo.alive(page.page_id)

    def test_dead_pages_drop_out_of_the_url_map(self) -> None:
        web = fresh_web()
        evo = WebEvolution(web, busy_config())
        evo.advance_to(evo.config.tick_seconds * 10)
        dead = [p for p in web.pages if not evo.alive(p.page_id)]
        assert dead
        for page in dead:
            assert page.url not in web.url_map
            assert evo.changed_at[page.page_id] > 0

    def test_born_pages_are_fetchable_and_linked(self) -> None:
        web = fresh_web()
        evo = WebEvolution(web, busy_config())
        evo.advance_to(evo.config.tick_seconds * 10)
        assert evo.born_page_ids
        linked_targets = {
            target for p in web.pages for target in p.out_links
        }
        for page_id in evo.born_page_ids:
            page = web.pages[page_id]
            assert page_id in evo.changed_at
            if not evo.alive(page_id):  # births can die in later ticks
                assert page.url not in web.url_map
                continue
            assert web.url_map[page.url] == (page_id, "canonical")
            assert web.renderer.payload(page)
        assert any(
            page_id in linked_targets for page_id in evo.born_page_ids
        )

    def test_mutation_changes_the_rendering(self) -> None:
        web = fresh_web()
        evo = WebEvolution(
            web, EvolutionConfig(seed=5, mutation_rate=0.1)
        )
        before = {
            p.page_id: web.renderer.payload(p)
            for p in web.pages
            if p.mime == "text/html"
        }
        evo.advance_to(evo.config.tick_seconds * 3)
        mutated = [
            page_id for page_id in sorted(evo.changed_at)
            if page_id in before
            and web.renderer.payload(web.pages[page_id]) != before[page_id]
        ]
        assert evo.mutations > 0
        assert mutated

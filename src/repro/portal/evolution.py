"""Deterministic web evolution: pages mutate, appear, die; links rot.

The crawl experiments run against a frozen synthetic Web; a *living*
portal needs that Web to change underneath it.  :class:`WebEvolution`
layers a mutation schedule on top of a generated
:class:`~repro.web.web.SyntheticWeb`:

* time is divided into fixed-length **ticks** of the simulated clock;
* each tick draws its own RNG from ``BLAKE2b(seed | "evolve" | tick)``,
  so the evolution history is a pure function of ``(web, config)`` --
  independent of how often or in what increments the clock advanced,
  and stable across processes;
* **mutations** bump :attr:`~repro.web.model.PageSpec.revision`
  (re-seeding the renderer's per-page stream) and occasionally resize
  the body;
* **deaths** remove a page's canonical URL, aliases and copy URLs from
  the server's URL map -- subsequent fetches return ``NOT_FOUND``;
* **births** append fresh :class:`~repro.web.model.PageSpec` entries to
  the *shared* page list (renderer and server see them immediately) and
  hook them into the graph with a link from a surviving page;
* **link rot** drops single out-links from surviving pages.

Ground truth for freshness measurement is :attr:`WebEvolution.changed_at`:
the simulated time each page's observable content last changed (its own
mutation/birth/death, or an out-link edit that alters its rendering).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.web.model import MimeType, PageRole, PageSpec
from repro.web.web import SyntheticWeb

__all__ = ["EvolutionConfig", "WebEvolution"]

#: page roles whose pages never die (experiment ground truth: the DBLP
#: registry, the external search engine, researcher homepages are
#: handled separately via the researcher table)
_IMMORTAL_ROLES = (PageRole.REGISTRY, PageRole.SEARCH)


@dataclass
class EvolutionConfig:
    """Rates of the mutation schedule (all per tick, fractions of the
    eligible population)."""

    tick_seconds: float = 600.0
    """Simulated seconds per evolution tick."""
    mutation_rate: float = 0.02
    """Fraction of alive text pages whose content mutates each tick."""
    death_rate: float = 0.004
    """Fraction of alive, non-protected pages that die each tick."""
    birth_rate: float = 0.004
    """New pages per tick, as a fraction of the alive population."""
    link_rot_rate: float = 0.004
    """Fraction of alive linking pages that lose one out-link each tick."""
    resize_probability: float = 0.3
    """Probability that a mutation also changes the body length."""
    seed: int | None = None
    """Evolution seed; defaults to the web's own seed."""

    def validate(self) -> None:
        if self.tick_seconds <= 0:
            raise ConfigError("tick_seconds must be positive")
        for name in (
            "mutation_rate", "death_rate", "birth_rate", "link_rot_rate",
            "resize_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value!r}")


class WebEvolution:
    """Applies the deterministic mutation schedule to a synthetic Web."""

    def __init__(
        self,
        web: SyntheticWeb,
        config: EvolutionConfig | None = None,
    ) -> None:
        self.web = web
        self.config = config or EvolutionConfig()
        self.config.validate()
        self.seed = (
            self.config.seed
            if self.config.seed is not None
            else web.config.seed
        )
        self.applied_tick = 0
        self.changed_at: dict[int, float] = {}
        """page_id -> simulated time of the last observable change."""
        self.born_page_ids: list[int] = []
        self._dead: set[int] = set()
        self._protected = self._protected_page_ids()
        # counters
        self.mutations = 0
        self.deaths = 0
        self.births = 0
        self.links_rotted = 0

    def _protected_page_ids(self) -> frozenset[int]:
        """Pages that must survive: experiment ground truth and locked
        infrastructure (registry, search engines, researcher homepages,
        expert-search needles, anything on a locked host)."""
        protected = {
            page.page_id
            for page in self.web.pages
            if page.role in _IMMORTAL_ROLES
        }
        for page in self.web.pages:
            host = self.web.hosts.get(page.host)
            if host is not None and host.locked:
                protected.add(page.page_id)
        for researcher in self.web.researchers:
            protected.add(researcher.homepage_page_id)
        protected.update(self.web.needles)
        return frozenset(protected)

    # -- liveness ------------------------------------------------------------

    def alive(self, page_id: int) -> bool:
        return page_id not in self._dead

    # -- the schedule --------------------------------------------------------

    def _rng(self, tick: int) -> np.random.Generator:
        digest = hashlib.blake2b(
            f"{self.seed}|evolve|{tick}".encode(), digest_size=8
        ).digest()
        return np.random.default_rng(int.from_bytes(digest, "big"))

    def advance_to(self, now: float) -> int:
        """Apply every tick whose end lies at or before ``now``.

        Returns the number of ticks applied.  Idempotent: re-advancing
        to the same time applies nothing.
        """
        target = int(now // self.config.tick_seconds)
        applied = 0
        while self.applied_tick < target:
            self.applied_tick += 1
            self._apply_tick(self.applied_tick)
            applied += 1
        return applied

    def _sample(
        self,
        rng: np.random.Generator,
        population: list[PageSpec],
        rate: float,
    ) -> list[PageSpec]:
        """A deterministic without-replacement sample of ``rate * n``."""
        if not population or rate <= 0:
            return []
        count = int(rng.binomial(len(population), rate))
        if count <= 0:
            return []
        indices = rng.choice(len(population), size=count, replace=False)
        return [population[int(i)] for i in sorted(int(i) for i in indices)]

    def _apply_tick(self, tick: int) -> None:
        rng = self._rng(tick)
        now = tick * self.config.tick_seconds
        alive = [
            page for page in self.web.pages
            if page.page_id not in self._dead
        ]
        self._mutate(rng, alive, now)
        survivors = self._kill(rng, alive, now)
        self._spawn(rng, survivors, now, tick)
        self._rot_links(rng, survivors, now)

    def _mutate(
        self, rng: np.random.Generator, alive: list[PageSpec], now: float
    ) -> None:
        mutable = [
            page for page in alive if page.mime in MimeType.CONVERTIBLE
        ]
        for page in self._sample(rng, mutable, self.config.mutation_rate):
            page.revision += 1
            if rng.random() < self.config.resize_probability:
                factor = 0.75 + 0.5 * float(rng.random())
                page.length = max(30, int(page.length * factor))
            self.changed_at[page.page_id] = now
            self.mutations += 1

    def _kill(
        self, rng: np.random.Generator, alive: list[PageSpec], now: float
    ) -> list[PageSpec]:
        """Remove dying pages from the URL map; returns the survivors."""
        mortal = [
            page for page in alive
            if page.page_id not in self._protected
        ]
        dying = self._sample(rng, mortal, self.config.death_rate)
        for page in dying:
            for url in (page.url, *page.aliases, *page.copy_urls):
                self.web.url_map.pop(url, None)
            self._dead.add(page.page_id)
            self.changed_at[page.page_id] = now
            self.deaths += 1
        if not dying:
            return alive
        dead_now = {page.page_id for page in dying}
        return [page for page in alive if page.page_id not in dead_now]

    def _spawn(
        self,
        rng: np.random.Generator,
        alive: list[PageSpec],
        now: float,
        tick: int,
    ) -> None:
        if not alive:
            return
        count = int(rng.binomial(len(alive), self.config.birth_rate))
        if count <= 0:
            return
        hosts = sorted(
            name for name, host in self.web.hosts.items() if not host.locked
        )
        topics = self.web.universe.topic_names()
        linkable = [
            page for page in alive
            if page.mime == MimeType.HTML
            and page.page_id not in self._dead
        ]
        for _ in range(count):
            page_id = len(self.web.pages)
            host = hosts[int(rng.integers(len(hosts)))]
            topic = topics[int(rng.integers(len(topics)))]
            targets = []
            if linkable:
                fanout = int(rng.integers(1, 4))
                picks = rng.choice(
                    len(linkable),
                    size=min(fanout, len(linkable)),
                    replace=False,
                )
                targets = sorted(linkable[int(i)].page_id for i in picks)
            page = PageSpec(
                page_id=page_id,
                url=f"http://{host}/evolved/t{tick}/p{page_id}.html",
                host=host,
                role=PageRole.PAPER,
                topic=topic,
                specificity=0.55,
                length=int(rng.integers(80, 280)),
                out_links=targets,
            )
            # the page list is shared by renderer and server, so the new
            # page is immediately renderable and fetchable
            self.web.pages.append(page)
            self.web.url_map[page.url] = (page_id, "canonical")
            if linkable:
                linker = linkable[int(rng.integers(len(linkable)))]
                linker.out_links.append(page_id)
                # the linker's rendering gains an anchor: that is an
                # observable content change without a revision bump
                self.changed_at[linker.page_id] = now
            self.changed_at[page_id] = now
            self.born_page_ids.append(page_id)
            self.births += 1

    def _rot_links(
        self, rng: np.random.Generator, alive: list[PageSpec], now: float
    ) -> None:
        linking = [page for page in alive if page.out_links]
        for page in self._sample(rng, linking, self.config.link_rot_rate):
            victim = int(rng.integers(len(page.out_links)))
            del page.out_links[victim]
            self.changed_at[page.page_id] = now
            self.links_rotted += 1

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Evolution counters (:class:`repro.obs.api.Instrumented`)."""
        return {
            "ticks_applied": float(self.applied_tick),
            "mutations": float(self.mutations),
            "deaths": float(self.deaths),
            "births": float(self.births),
            "links_rotted": float(self.links_rotted),
            "pages_total": float(len(self.web.pages)),
            "pages_alive": float(len(self.web.pages) - len(self._dead)),
        }

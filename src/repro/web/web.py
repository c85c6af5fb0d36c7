"""The :class:`SyntheticWeb` facade: one object for a whole simulated Web.

Bundles the generated graph, the DNS zone, the renderer and the HTTP
server, and provides the handles the experiments need (seed pages,
negative-example pages, the DBLP registry, needle ground truth).
"""

from __future__ import annotations

import numpy as np

from repro.web.corpus import PageRenderer
from repro.web.dblp import DblpRegistry
from repro.web.dns import DnsZone
from repro.web.generator import (
    GeneratedWeb,
    WebGraphConfig,
    default_expert_config,
    generate_expert_web,
    generate_web,
)
from repro.web.model import Host, PageRole, PageSpec, Researcher
from repro.web.server import SimulatedServer

__all__ = ["SyntheticWeb"]


class SyntheticWeb:
    """A fully wired synthetic Web: graph + DNS + renderer + HTTP server."""

    def __init__(self, generated: GeneratedWeb) -> None:
        self._generated = generated
        self.config = generated.config
        self.universe = generated.universe
        self.pages: list[PageSpec] = generated.pages
        self.hosts: dict[str, Host] = generated.hosts
        self.url_map = generated.url_map
        self.researchers: list[Researcher] = generated.researchers
        self.needles: set[int] = generated.needles
        self.hub_page_ids = generated.hub_page_ids
        self.welcome_only = generated.welcome_only
        self.renderer = PageRenderer(
            self.universe, self.pages, seed=self.config.seed,
            stale_link_rate=self.config.stale_link_rate,
        )
        self.zone = DnsZone()
        for host in self.hosts.values():
            self.zone.register(host.name, host.ip)
        self.server = SimulatedServer(
            pages=self.pages,
            hosts=self.hosts,
            url_map=self.url_map,
            renderer=self.renderer,
            seed=self.config.seed,
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def generate(
        cls, config: WebGraphConfig | None = None, seed: int | None = None
    ) -> "SyntheticWeb":
        """Generate the portal-generation scenario Web."""
        if config is None:
            config = WebGraphConfig()
        if seed is not None:
            config.seed = seed
        return cls(generate_web(config))

    @classmethod
    def generate_expert(
        cls, config: WebGraphConfig | None = None, seed: int | None = None
    ) -> "SyntheticWeb":
        """Generate the expert-search scenario Web (ARIES needles)."""
        if config is None:
            config = default_expert_config()
        if seed is not None:
            config.seed = seed
        return cls(generate_expert_web(config))

    # -- lookups ----------------------------------------------------------

    def pages_by_role(self, role: PageRole) -> list[PageSpec]:
        return [page for page in self.pages if page.role == role]

    def pages_by_topic(self, topic: str) -> list[PageSpec]:
        return [page for page in self.pages if page.topic == topic]

    @property
    def size(self) -> int:
        return len(self.pages)

    # -- experiment handles ----------------------------------------------

    def registry(self, topic: str | None = None) -> DblpRegistry:
        """The DBLP-style ground-truth registry (optionally one topic)."""
        return DblpRegistry(self.researchers, topic=topic)

    def seed_homepages(self, count: int = 2, topic: str | None = None) -> list[str]:
        """Homepage URLs of the most-published researchers (crawl seeds).

        The paper seeds its portal crawl with the homepages of two
        leading researchers (DeWitt and Gray); this returns the analogous
        top-publication homepages of the target topic.
        """
        topic = topic or self.config.target_topic
        registry = self.registry(topic)
        return [r.homepage_url for r in registry.top_authors(count)]

    def negative_example_pages(self, count: int = 50, seed: int = 0) -> list[PageSpec]:
        """Yahoo-style directory pages used to populate OTHERS (section 3.1)."""
        directory = [
            self.pages[pid] for pid in self._generated.directory_page_ids
        ]
        if not directory:
            directory = self.pages_by_role(PageRole.BACKGROUND)
        rng = np.random.default_rng(seed)
        count = min(count, len(directory))
        indices = rng.choice(len(directory), size=count, replace=False)
        return [directory[i] for i in indices]

    def needle_urls(self) -> set[str]:
        return {self.pages[pid].url for pid in self.needles}

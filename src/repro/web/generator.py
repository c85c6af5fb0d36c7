"""Synthetic Web generation.

Builds a deterministic Web whose statistics carry the properties focused
crawling exploits:

* **topical locality** -- researchers link mostly to coauthors and papers
  of their own topic; a ``topical_locality`` knob controls how often;
* **hub/authority structure** -- conference hubs list many homepages and
  papers of one topic;
* **tunnelling necessity** -- a configurable fraction of homepages is
  reachable only through topic-*unspecific* department welcome pages, so a
  crawler that never follows links out of rejected documents misses them;
* **web noise** -- background sites (sports, travel, ...), a Yahoo-style
  directory for negative training examples, crawler traps with unbounded
  URL growth, media files, redirect aliases and byte-identical copy URLs,
  slow and flaky hosts;
* **ground truth** -- a DBLP-like registry of researchers ranked by
  publication count (Tables 2/3), and "needle" open-source project pages
  for the expert-search experiment (Figures 4/5).

Everything is derived from ``WebGraphConfig.seed``; two generations with
equal configs are identical object-for-object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.web.model import Host, MimeType, PageRole, PageSpec, Researcher
from repro.web.vocab import TopicUniverse, WordFactory

__all__ = [
    "WebGraphConfig",
    "GeneratedWeb",
    "generate_web",
    "generate_expert_web",
    "scale_web_config",
]

RESEARCH_CATEGORY = "research"


@dataclass
class WebGraphConfig:
    """All knobs of the synthetic Web generator."""

    seed: int = 7
    target_topic: str = "databases"
    research_topics: tuple[str, ...] = (
        "databases", "datamining", "ir", "systems", "networks", "theory",
    )
    background_categories: tuple[str, ...] = (
        "sports", "entertainment", "travel", "health", "finance",
    )
    target_researchers: int = 300
    other_researchers: int = 70
    universities: int = 60
    hubs_per_topic: int = 8
    background_hosts_per_category: int = 25
    pages_per_background_host: int = 8
    directory_pages_per_category: int = 20
    max_publication_count: int = 258
    min_publication_count: int = 2
    publication_zipf: float = 0.85
    papers_cap: int = 8
    topical_locality: float = 0.8
    """Probability that a coauthor/citation link stays within the topic."""
    welcome_only_rate: float = 0.30
    """Fraction of homepages linked *only* from their dept welcome page."""
    hobby_link_rate: float = 0.25
    alias_rate: float = 0.20
    """Fraction of homepages that also have a 302 alias URL."""
    copy_rate: float = 0.12
    """Fraction of homepages that also have a byte-identical copy URL."""
    stale_link_rate: float = 0.15
    """Probability a link targets an alias/copy URL instead of canonical."""
    include_traps: bool = True
    trap_chains: int = 3
    trap_depth: int = 12
    media_pages_per_topic: int = 6
    slow_host_rate: float = 0.08
    error_host_rate: float = 0.05
    mean_latency_low: float = 0.4
    mean_latency_high: float = 3.0
    vocab_sibling_overlap: float = 0.25
    """Fraction of each topic's vocabulary shared with sibling topics."""
    distinct_domains: bool = False
    """Give every generated host its own registrable domain.

    By default all universities share ``edu.example`` (and hubs
    ``org.example``, background sites ``com.example``), so the
    per-domain politeness cap serializes large crawls no matter how
    many hosts exist.  The scale scenario flips this on so throughput
    is bounded by worker capacity, not by a single shared domain."""
    interdisciplinary_rate: float = 0.0
    """Fraction of researchers whose pages blend a second research topic
    (the paper's 'heterogeneous senior researcher homepage' that can
    drag a crawl off-topic, section 2.6)."""

    def validate(self) -> None:
        if self.target_topic not in self.research_topics:
            raise ConfigError(
                f"target topic {self.target_topic!r} not in research_topics"
            )
        if not 0.0 <= self.topical_locality <= 1.0:
            raise ConfigError("topical_locality must be in [0, 1]")
        if self.universities < 1:
            raise ConfigError("need at least one university host")
        if self.target_researchers < 2:
            raise ConfigError("need at least two target-topic researchers")


@dataclass
class GeneratedWeb:
    """Generator output: everything the facade and server need."""

    config: WebGraphConfig
    universe: TopicUniverse
    pages: list[PageSpec]
    hosts: dict[str, Host]
    url_map: dict[str, tuple[int, str]]
    researchers: list[Researcher]
    needles: set[int] = field(default_factory=set)
    hub_page_ids: dict[str, list[int]] = field(default_factory=dict)
    directory_page_ids: list[int] = field(default_factory=list)
    welcome_page_ids: list[int] = field(default_factory=list)
    welcome_only: set[int] = field(default_factory=set)
    """Author ids whose homepage is linked only from welcome pages."""


class _Builder:
    """Incremental page/host construction helpers shared by both scenarios."""

    def __init__(self, config: WebGraphConfig, universe: TopicUniverse) -> None:
        self.config = config
        self.universe = universe
        self.rng = np.random.default_rng(config.seed + 1)
        self.names = WordFactory(np.random.default_rng(config.seed + 2))
        self.pages: list[PageSpec] = []
        self.hosts: dict[str, Host] = {}
        self.url_map: dict[str, tuple[int, str]] = {}
        self._next_ip = [10, 0, 0, 1]

    # -- hosts ---------------------------------------------------------

    def _allocate_ip(self) -> str:
        ip = ".".join(str(b) for b in self._next_ip)
        self._next_ip[3] += 1
        for i in (3, 2, 1):
            if self._next_ip[i] > 254:
                self._next_ip[i] = 1
                self._next_ip[i - 1] += 1
        return ip

    def host_name(self, label: str, suffix: str) -> str:
        """The hostname for ``label`` under the shared ``suffix`` zone.

        With ``distinct_domains`` every label becomes its own
        registrable domain (``label.example``); otherwise the label
        nests under the suffix exactly as the historical layout did, so
        all existing goldens stay byte-identical.
        """
        if self.config.distinct_domains:
            return f"{label}.example"
        return f"{label}.{suffix}"

    def add_host(self, name: str, locked: bool = False) -> Host:
        cfg = self.config
        latency = float(
            self.rng.uniform(cfg.mean_latency_low, cfg.mean_latency_high)
        )
        timeout_rate = 0.0
        error_rate = 0.0
        roll = self.rng.random()
        if roll < cfg.slow_host_rate:
            latency *= 4.0
            timeout_rate = float(self.rng.uniform(0.25, 0.6))
        elif roll < cfg.slow_host_rate + cfg.error_host_rate:
            error_rate = float(self.rng.uniform(0.1, 0.4))
        host = Host(
            name=name,
            ip=self._allocate_ip(),
            mean_latency=latency,
            timeout_rate=timeout_rate,
            error_rate=error_rate,
            locked=locked,
        )
        self.hosts[name] = host
        return host

    # -- pages ---------------------------------------------------------

    def add_page(
        self,
        host: str,
        path: str,
        role: PageRole,
        topic: str | None,
        mime: str = MimeType.HTML,
        specificity: float = 0.5,
        length: int | None = None,
        secondary_topic: str | None = None,
        secondary_share: float = 0.0,
    ) -> PageSpec:
        page_id = len(self.pages)
        url = f"http://{host}{path}"
        if length is None:
            length = int(self.rng.integers(120, 400))
        page = PageSpec(
            page_id=page_id,
            url=url,
            host=host,
            role=role,
            topic=topic,
            mime=mime,
            specificity=specificity,
            length=length,
            secondary_topic=secondary_topic,
            secondary_share=secondary_share,
        )
        self.pages.append(page)
        self.url_map[url] = (page_id, "canonical")
        return page

    def add_alias(self, page: PageSpec, alias_path: str) -> None:
        url = f"http://{page.host}{alias_path}"
        if url in self.url_map:
            return
        page.aliases.append(url)
        self.url_map[url] = (page.page_id, "alias")

    def add_copy(self, page: PageSpec, copy_path: str) -> None:
        url = f"http://{page.host}{copy_path}"
        if url in self.url_map:
            return
        page.copy_urls.append(url)
        self.url_map[url] = (page.page_id, "copy")

    def link(self, source: PageSpec, target: PageSpec) -> None:
        if target.page_id != source.page_id:
            source.out_links.append(target.page_id)

    def choice(self, items: list, count: int) -> list:
        """Sample up to ``count`` distinct items (empty-safe)."""
        if not items or count <= 0:
            return []
        count = min(count, len(items))
        indices = self.rng.choice(len(items), size=count, replace=False)
        return [items[i] for i in indices]


# ---------------------------------------------------------------------------
# Portal scenario
# ---------------------------------------------------------------------------


def _publication_counts(config: WebGraphConfig, count: int, rng) -> list[int]:
    """Zipf-shaped publication counts from max down to min."""
    ranks = np.arange(1, count + 1, dtype=float)
    raw = config.max_publication_count * ranks ** (-config.publication_zipf)
    jitter = rng.uniform(0.85, 1.15, size=count)
    counts = np.maximum(
        np.round(raw * jitter), config.min_publication_count
    ).astype(int)
    counts[0] = config.max_publication_count
    return sorted(counts.tolist(), reverse=True)


def _build_researchers(builder: _Builder, web: GeneratedWeb) -> None:
    """Create universities, researchers and their page clusters."""
    config = builder.config
    universities = [
        builder.add_host(builder.host_name(f"u{i}", "edu.example"))
        for i in range(config.universities)
    ]
    author_id = 0
    for topic in config.research_topics:
        if topic == config.target_topic:
            n = config.target_researchers
        else:
            n = config.other_researchers
        counts = _publication_counts(config, n, builder.rng)
        for pubs in counts:
            name = builder.names.word(3)
            host = universities[int(builder.rng.integers(len(universities)))]
            base = f"/~{name}"
            secondary_topic = None
            secondary_share = 0.0
            if (
                config.interdisciplinary_rate > 0
                and len(config.research_topics) > 1
                and builder.rng.random() < config.interdisciplinary_rate
            ):
                others = [
                    t for t in config.research_topics if t != topic
                ]
                secondary_topic = others[
                    int(builder.rng.integers(len(others)))
                ]
                secondary_share = float(builder.rng.uniform(0.25, 0.45))
            # Specificity is heterogeneous per page: some researchers'
            # homepages barely mention their field, others are dense with
            # it.  This is what makes borderline pages genuinely hard.
            homepage = builder.add_page(
                host.name, f"{base}/index.html", PageRole.HOMEPAGE, topic,
                specificity=float(builder.rng.uniform(0.08, 0.45)),
                length=int(builder.rng.integers(100, 250)),
                secondary_topic=secondary_topic,
                secondary_share=secondary_share,
            )
            pubs_page = builder.add_page(
                host.name, f"{base}/pubs.html", PageRole.PUBLICATIONS, topic,
                specificity=float(builder.rng.uniform(0.25, 0.55)),
                secondary_topic=secondary_topic,
                secondary_share=secondary_share,
            )
            cv_page = builder.add_page(
                host.name, f"{base}/cv.html", PageRole.CV, topic,
                specificity=float(builder.rng.uniform(0.05, 0.35)),
            )
            n_papers = int(np.clip(pubs // 10, 1, config.papers_cap))
            papers = []
            # Publication formats: mostly PDF, with HTML, Word drafts,
            # talk slides and the occasional zipped bundle -- "many
            # useful kinds of documents ... are published as PDF;
            # incorporating this material improves the crawling recall"
            # (paper 2.2).
            format_table = (
                (0.50, MimeType.PDF, "pdf", PageRole.PAPER),
                (0.72, MimeType.HTML, "html", PageRole.PAPER),
                (0.84, MimeType.WORD, "doc", PageRole.PAPER),
                (0.94, MimeType.POWERPOINT, "ppt", PageRole.SLIDES),
                (1.01, MimeType.ZIP, "zip", PageRole.PAPER),
            )
            for j in range(n_papers):
                roll = builder.rng.random()
                mime, suffix, role = next(
                    (m, s, r)
                    for bound, m, s, r in format_table
                    if roll < bound
                )
                papers.append(
                    builder.add_page(
                        host.name, f"{base}/papers/p{j}.{suffix}",
                        role, topic, mime=mime,
                        specificity=float(builder.rng.uniform(0.45, 0.7)),
                        length=int(builder.rng.integers(400, 900)),
                    )
                )
            builder.link(homepage, pubs_page)
            builder.link(homepage, cv_page)
            builder.link(cv_page, homepage)
            for paper in papers:
                builder.link(pubs_page, paper)
                builder.link(paper, homepage)
            web.researchers.append(
                Researcher(
                    author_id=author_id,
                    name=name,
                    topic=topic,
                    publication_count=pubs,
                    homepage_page_id=homepage.page_id,
                    homepage_url=homepage.url,
                )
            )
            author_id += 1
            if builder.rng.random() < config.alias_rate:
                builder.add_alias(homepage, f"{base}/")
            if builder.rng.random() < config.copy_rate:
                builder.add_copy(homepage, f"{base}/home.html")


def _by_topic(web: GeneratedWeb) -> dict[str, list[Researcher]]:
    grouped: dict[str, list[Researcher]] = {}
    for researcher in web.researchers:
        grouped.setdefault(researcher.topic, []).append(researcher)
    return grouped


def _wire_coauthors(builder: _Builder, web: GeneratedWeb) -> None:
    """Coauthor and citation links with topical locality."""
    config = builder.config
    grouped = _by_topic(web)
    topics = list(grouped)
    welcome_only: set[int] = set()
    for researcher in web.researchers:
        if builder.rng.random() < config.welcome_only_rate:
            welcome_only.add(researcher.author_id)

    for researcher in web.researchers:
        homepage = builder.pages[
            web.researchers[researcher.author_id].homepage_page_id
        ]
        pubs_page = builder.pages[homepage.page_id + 1]
        n_coauthors = int(builder.rng.integers(2, 6))
        for _ in range(n_coauthors):
            if builder.rng.random() < config.topical_locality:
                pool = grouped[researcher.topic]
            else:
                other = topics[int(builder.rng.integers(len(topics)))]
                pool = grouped[other]
            coauthor = pool[int(builder.rng.integers(len(pool)))]
            if coauthor.author_id == researcher.author_id:
                continue
            if coauthor.author_id in welcome_only:
                continue  # these stay hidden behind welcome pages
            builder.link(
                homepage, builder.pages[coauthor.homepage_page_id]
            )
            # pubs page cites one of the coauthor's papers
            co_home = builder.pages[coauthor.homepage_page_id]
            co_pubs = builder.pages[co_home.page_id + 1]
            if co_pubs.out_links and builder.rng.random() < 0.7:
                cited = co_pubs.out_links[
                    int(builder.rng.integers(len(co_pubs.out_links)))
                ]
                builder.link(pubs_page, builder.pages[cited])
    web.welcome_only = welcome_only


def _build_welcome_pages(builder: _Builder, web: GeneratedWeb) -> None:
    """One topic-unspecific welcome page per university, linking homepages."""
    by_host: dict[str, list[PageSpec]] = {}
    for researcher in web.researchers:
        homepage = builder.pages[researcher.homepage_page_id]
        by_host.setdefault(homepage.host, []).append(homepage)
    for host, homepages in sorted(by_host.items()):
        welcome = builder.add_page(
            host, "/index.html", PageRole.WELCOME, None, specificity=0.0,
            length=int(builder.rng.integers(80, 160)),
        )
        web.welcome_page_ids.append(welcome.page_id)
        for homepage in homepages:
            builder.link(welcome, homepage)
            builder.link(homepage, welcome)


def _build_hubs(builder: _Builder, web: GeneratedWeb) -> None:
    """Conference-style hubs: link collections per topic."""
    config = builder.config
    grouped = _by_topic(web)
    for topic in config.research_topics:
        web.hub_page_ids[topic] = []
        for i in range(config.hubs_per_topic):
            host = builder.add_host(
                builder.host_name(f"conf-{topic}-{i}", "org.example")
            )
            hub = builder.add_page(
                host.name, "/index.html", PageRole.HUB, topic,
                specificity=0.25, length=int(builder.rng.integers(150, 300)),
            )
            web.hub_page_ids[topic].append(hub.page_id)
            pool = grouped[topic]
            visible = [
                r for r in pool if r.author_id not in web.welcome_only
            ] or pool
            for researcher in builder.choice(
                visible, int(builder.rng.integers(20, 45))
            ):
                homepage = builder.pages[researcher.homepage_page_id]
                builder.link(hub, homepage)
                builder.link(homepage, hub)
                pubs_page = builder.pages[homepage.page_id + 1]
                if pubs_page.out_links and builder.rng.random() < 0.5:
                    paper = pubs_page.out_links[
                        int(builder.rng.integers(len(pubs_page.out_links)))
                    ]
                    builder.link(hub, builder.pages[paper])
            # a couple of cross-topic links and a welcome page
            for other_topic in builder.choice(
                [t for t in config.research_topics if t != topic], 2
            ):
                visible_other = [
                    r for r in grouped[other_topic]
                    if r.author_id not in web.welcome_only
                ]
                for researcher in builder.choice(visible_other, 1):
                    builder.link(
                        hub, builder.pages[researcher.homepage_page_id]
                    )
            if web.welcome_page_ids:
                wid = web.welcome_page_ids[
                    int(builder.rng.integers(len(web.welcome_page_ids)))
                ]
                builder.link(hub, builder.pages[wid])


def _build_background(builder: _Builder, web: GeneratedWeb) -> None:
    """Off-topic sites plus a Yahoo-style directory host."""
    config = builder.config
    category_pages: dict[str, list[PageSpec]] = {}
    for category in config.background_categories:
        pages: list[PageSpec] = []
        for i in range(config.background_hosts_per_category):
            host = builder.add_host(
                builder.host_name(f"www.{category}{i}", "com.example")
            )
            for j in range(config.pages_per_background_host):
                pages.append(
                    builder.add_page(
                        host.name, f"/p{j}.html", PageRole.BACKGROUND,
                        category, specificity=0.45,
                    )
                )
        category_pages[category] = pages
    # intra/inter-category wiring
    all_categories = list(category_pages)
    for category, pages in category_pages.items():
        for page in pages:
            for target in builder.choice(pages, int(builder.rng.integers(2, 6))):
                builder.link(page, target)
            if builder.rng.random() < 0.2:
                other = all_categories[
                    int(builder.rng.integers(len(all_categories)))
                ]
                for target in builder.choice(category_pages[other], 1):
                    builder.link(page, target)
            if builder.rng.random() < 0.03 and web.welcome_page_ids:
                wid = web.welcome_page_ids[
                    int(builder.rng.integers(len(web.welcome_page_ids)))
                ]
                builder.link(page, builder.pages[wid])
    # Yahoo-style directory (source of negative training examples)
    yahoo = builder.add_host("dir.yahoo.example.org")
    for category in config.background_categories:
        for i in range(config.directory_pages_per_category):
            page = builder.add_page(
                yahoo.name, f"/{category}/{i}.html", PageRole.DIRECTORY,
                category, specificity=0.35,
            )
            web.directory_page_ids.append(page.page_id)
            for target in builder.choice(category_pages[category], 4):
                builder.link(page, target)
    # hobby links from homepages into background sites
    for researcher in web.researchers:
        if builder.rng.random() < config.hobby_link_rate:
            homepage = builder.pages[researcher.homepage_page_id]
            category = all_categories[
                int(builder.rng.integers(len(all_categories)))
            ]
            for target in builder.choice(category_pages[category], 1):
                builder.link(homepage, target)


def _build_registry(builder: _Builder, web: GeneratedWeb) -> None:
    """DBLP-like registry on a locked host (ground truth, not crawlable)."""
    dblp = builder.add_host("dblp.example.org", locked=True)
    index = builder.add_page(
        dblp.name, "/index.html", PageRole.REGISTRY, None, specificity=0.0,
    )
    for researcher in web.researchers:
        page = builder.add_page(
            dblp.name, f"/authors/a{researcher.author_id}.html",
            PageRole.REGISTRY, researcher.topic, specificity=0.1,
            length=60,
        )
        builder.link(index, page)
        builder.link(page, builder.pages[researcher.homepage_page_id])
    google = builder.add_host("www.google.example.com", locked=True)
    builder.add_page(
        google.name, "/index.html", PageRole.SEARCH, None, specificity=0.0,
    )


def _build_traps_and_media(builder: _Builder, web: GeneratedWeb) -> None:
    config = builder.config
    if config.include_traps:
        trap_host = builder.add_host("calendar.trap.example.com")
        for chain in range(config.trap_chains):
            previous: PageSpec | None = None
            segment = f"/cal{chain}"
            path = segment
            for depth in range(config.trap_depth):
                # Paths grow quadratically; beyond the crawler's 1000-char
                # URL cap the chain becomes uncrawlable by construction.
                path = path + segment * ((depth + 1) ** 2)
                page = builder.add_page(
                    trap_host.name, path + "/index.html", PageRole.TRAP,
                    None, specificity=0.0, length=40,
                )
                if previous is not None:
                    builder.link(previous, page)
                previous = page
            # hook the trap into the background graph
            if web.directory_page_ids:
                first_trap = previous.page_id - config.trap_depth + 1
                directory = builder.pages[
                    web.directory_page_ids[
                        int(builder.rng.integers(len(web.directory_page_ids)))
                    ]
                ]
                builder.link(directory, builder.pages[first_trap])
    # media files linked from papers
    media_host = builder.add_host("media.example.net")
    media_index = 0
    for topic in config.research_topics:
        paper_pages = [
            p for p in builder.pages
            if p.role == PageRole.PAPER and p.topic == topic
        ]
        for page in builder.choice(paper_pages, config.media_pages_per_topic):
            media = builder.add_page(
                media_host.name, f"/talks/v{media_index}.mpg",
                PageRole.MEDIA, None, mime=MimeType.VIDEO,
                specificity=0.0, length=60_000,
            )
            media_index += 1
            builder.link(page, media)


def generate_web(config: WebGraphConfig | None = None) -> GeneratedWeb:
    """Generate the portal-generation Web (Tables 1-3 scenario)."""
    config = config or WebGraphConfig()
    config.validate()
    topics = {t: RESEARCH_CATEGORY for t in config.research_topics}
    topics.update({c: c for c in config.background_categories})
    universe = TopicUniverse(
        topics, seed=config.seed,
        sibling_overlap=config.vocab_sibling_overlap,
    )
    builder = _Builder(config, universe)
    web = GeneratedWeb(
        config=config, universe=universe, pages=builder.pages,
        hosts=builder.hosts, url_map=builder.url_map, researchers=[],
    )
    _build_researchers(builder, web)
    _wire_coauthors(builder, web)
    _build_welcome_pages(builder, web)
    _build_hubs(builder, web)
    _build_background(builder, web)
    _build_registry(builder, web)
    _build_traps_and_media(builder, web)
    return web


def scale_web_config(seed: int = 7) -> WebGraphConfig:
    """A 100k+ page / 1k+ host Web for the sharded-crawl scale benchmark.

    Sized so the crawl is worker-bound rather than politeness-bound:
    every host gets its own registrable domain (``distinct_domains``)
    and the failure knobs are off, so the pages/s-vs-workers curve in
    ``benchmarks/bench_scale.py`` measures scheduling capacity, not
    retry/backoff noise, and Table-1 counters stay bit-identical across
    worker counts.
    """
    return WebGraphConfig(
        seed=seed,
        target_researchers=8000,
        other_researchers=2400,
        universities=1000,
        hubs_per_topic=12,
        background_hosts_per_category=40,
        pages_per_background_host=10,
        directory_pages_per_category=30,
        slow_host_rate=0.0,
        error_host_rate=0.0,
        mean_latency_low=0.2,
        mean_latency_high=1.2,
        distinct_domains=True,
    )


# ---------------------------------------------------------------------------
# Expert-search scenario (Figures 4/5)
# ---------------------------------------------------------------------------


def default_expert_config(seed: int = 7) -> WebGraphConfig:
    """The default Web layout for the expert-search scenario."""
    return WebGraphConfig(
        seed=seed,
        target_topic="aries",
        research_topics=("aries", "databases", "systems"),
        target_researchers=60,
        other_researchers=40,
        universities=25,
        hubs_per_topic=4,
        background_hosts_per_category=10,
        pages_per_background_host=6,
        directory_pages_per_category=8,
        welcome_only_rate=0.15,
    )


def generate_expert_web(config: WebGraphConfig | None = None) -> GeneratedWeb:
    """Generate the expert-search Web: an ARIES haystack with needles.

    The Web contains plenty of pages *about* the "aries" topic (papers,
    course notes, vendor pages) but only a handful of "needle" pages:
    open-source project sites whose text mixes the topic vocabulary with
    the "opensource" vocabulary (source/code/release/...).  A plain
    keyword search ranks poorly because vendor and course pages dominate;
    the focused crawl plus postprocessing should surface the needles.
    """
    config = config or default_expert_config()
    if "aries" not in config.research_topics:
        raise ConfigError("expert web requires an 'aries' research topic")
    topics = {t: RESEARCH_CATEGORY for t in config.research_topics}
    topics.update({c: c for c in config.background_categories})
    topics["opensource"] = "software"
    universe = TopicUniverse(
        topics, seed=config.seed,
        sibling_overlap=config.vocab_sibling_overlap,
    )
    builder = _Builder(config, universe)
    web = GeneratedWeb(
        config=config, universe=universe, pages=builder.pages,
        hosts=builder.hosts, url_map=builder.url_map, researchers=[],
    )
    _build_researchers(builder, web)
    _wire_coauthors(builder, web)
    _build_welcome_pages(builder, web)
    _build_hubs(builder, web)
    _build_background(builder, web)
    _build_registry(builder, web)
    _build_traps_and_media(builder, web)

    # The "Mohan page" analogue: a big ARIES resource hub.
    aries_researchers = [r for r in web.researchers if r.topic == "aries"]
    mohan_host = builder.add_host("research.almaden.example.com")
    mohan = builder.add_page(
        mohan_host.name, "/~mohan/aries.html", PageRole.HUB, "aries",
        specificity=0.45, length=350,
    )
    for researcher in builder.choice(aries_researchers, 25):
        homepage = builder.pages[researcher.homepage_page_id]
        builder.link(mohan, homepage)
        builder.link(homepage, mohan)
        pubs_page = builder.pages[homepage.page_id + 1]
        builder.link(pubs_page, mohan)

    # "systems" table-of-contents page under the hub (welcome-ish text).
    systems_toc = builder.add_page(
        mohan_host.name, "/~mohan/systems.html", PageRole.WELCOME, "aries",
        specificity=0.12, length=120,
    )
    builder.link(mohan, systems_toc)

    # Open-source portal noise: lots of project pages full of
    # source/code/release vocabulary with no ARIES content.  These are
    # what a naive keyword query drowns in (the paper notes the open
    # source portal "even returned lots of results about binaries and
    # libraries" for the direct query).
    oss_pages: list[PageSpec] = []
    for i in range(10):
        host = builder.add_host(f"www.oss{i}.portal.example.net")
        for j in range(12):
            oss_pages.append(
                builder.add_page(
                    host.name, f"/proj{j}.html", PageRole.BACKGROUND,
                    "opensource", specificity=0.55,
                )
            )
    for page in oss_pages:
        for target in builder.choice(oss_pages, int(builder.rng.integers(2, 5))):
            builder.link(page, target)
    for page_id in web.directory_page_ids[:10]:
        for target in builder.choice(oss_pages, 2):
            builder.link(builder.pages[page_id], target)

    # Needle project sites (Shore/MiniBase/Exodus analogues).
    project_names = ("shore", "minibase", "exodus")
    previous_needle: PageSpec | None = None
    for name in project_names:
        host = builder.add_host(f"www.{name}.project.example.org")
        needle = builder.add_page(
            host.name, "/index.html", PageRole.NEEDLE, "aries",
            specificity=0.40, length=300,
            secondary_topic="opensource", secondary_share=0.35,
        )
        docs = builder.add_page(
            host.name, "/doc/overview.html", PageRole.NEEDLE, "aries",
            specificity=0.45, length=400,
            secondary_topic="opensource", secondary_share=0.30,
        )
        builder.link(needle, docs)
        builder.link(docs, needle)
        builder.link(systems_toc, needle)
        web.needles.update({needle.page_id, docs.page_id})
        if previous_needle is not None:
            builder.link(needle, previous_needle)
        previous_needle = needle
    web.hub_page_ids.setdefault("aries", []).append(mohan.page_id)
    return web

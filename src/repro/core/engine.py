"""The BINGO! engine: bootstrap, learning phase, retraining, harvesting.

Ties together every component exactly as Figure 1 of the paper wires
them: seeds bootstrap the topic tree and classifier; the **learning
phase** crawls depth-first with a sharp focus near the seed domains to
find archetypes; link analysis plus SVM confidence select archetypes for
**retraining**; the **harvesting phase** then crawls breadth-first with a
soft focus, tunnelling, and SVM-confidence URL priorities to maximise
recall (paper sections 2.6 and 3.3).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, MutableMapping
from dataclasses import dataclass, field

from repro.analysis.distillation import bharat_henzinger
from repro.analysis.graph import LinkGraph
from repro.core.archetypes import MAX_ARCHETYPES_PER_TOPIC, select_archetypes
from repro.core.classifier import HierarchicalClassifier
from repro.core.config import BingoConfig
from repro.core.crawler import FocusedCrawler
from repro.core.feature_selection import TermCounts
from repro.core.frontier import QueueEntry
from repro.core.ontology import TopicTree
from repro.core.records import (
    SHARP,
    SOFT,
    CrawledDocument,
    CrawlStats,
    PhaseSettings,
)
from repro.errors import CrawlError
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.text.features import TERM_SPACES, FeatureSpace, analyze_page
from repro.text.scanner import ScannedPage
from repro.web.urls import normalize_url, parse_url

__all__ = ["PhaseReport", "CrawlReport", "BingoEngine"]

# The paper's phase strategy (sections 3.2, 3.3, 3.5 and 5.1), stated once.
LEARNING_MAX_DEPTH = 4
LEARNING_DECISION_MODE = "unanimous"
"""Meta mode during learning (paper 3.5: unanimous by default)."""
HARVESTING_DECISION_MODE = "weighted"
"""Meta mode during harvesting (xi-alpha-weighted average); a revisit
(:mod:`repro.portal.scheduler`) reclassifies under the same mode."""
TOP_AUTHORITIES = 10
TOP_HUBS = 10
ARCHETYPE_THRESHOLD_WARMUP = 12
"""Minimum training-set size before the archetype confidence threshold
applies.  The paper itself skipped thresholding when starting "with
extremely small training data" (section 5.2) and admitted all positively
classified documents until the basis had grown."""


@dataclass
class PhaseReport:
    """Outcome of one crawl phase."""

    name: str
    stats: CrawlStats
    retrainings: int = 0
    archetypes_added: int = 0
    archetypes_removed: int = 0


@dataclass
class CrawlReport:
    """Everything an experiment needs after a full engine run."""

    phases: list[PhaseReport] = field(default_factory=list)

    @property
    def total(self) -> CrawlStats:
        """Every :class:`CrawlStats` field merged over the phases, in
        phase order: hosts are unioned, the depth is the deepest, every
        other field is summed -- so a new counter cannot be left out."""
        merged = CrawlStats()
        for phase in self.phases:
            for name in CrawlStats.__dataclass_fields__:
                ours = getattr(merged, name)
                theirs = getattr(phase.stats, name)
                if name == "hosts_visited":
                    value = ours | theirs
                elif name == "max_depth":
                    value = max(ours, theirs)
                else:
                    value = ours + theirs
                setattr(merged, name, value)
        return merged

    def table1_row(self) -> dict[str, int]:
        return self.total.table1_row()


@dataclass
class _TrainingRecord:
    counts: dict[str, Counter]
    confidence: float = 0.0
    protected: bool = False
    """Seeds and negatives, and a seed the crawl stores again: archetype
    selection never drops them."""
    doc_id: int | None = None
    """Crawler doc_id for promoted archetypes; None for seeds/negatives."""


class _TrainingBucket(MutableMapping):
    """One topic's training records by URL, in insertion order, with
    the per-space :class:`TermCounts` of their counts kept under every
    store and delete -- so a retraining point's feature selection counts
    only the records that changed.  A record's counts change by storing
    a new record under its URL."""

    def __init__(self, spaces: Iterable[str]) -> None:
        self._records: dict[str, _TrainingRecord] = {}
        self.counts = {space: TermCounts() for space in spaces}

    def __getitem__(self, url: str) -> _TrainingRecord:
        return self._records[url]

    def __setitem__(self, url: str, record: _TrainingRecord) -> None:
        before = self._records.get(url)
        if before is not None:
            self._count(before, TermCounts.remove)
        self._records[url] = record
        self._count(record, TermCounts.add)

    def __delitem__(self, url: str) -> None:
        self._count(self._records.pop(url), TermCounts.remove)

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def _count(self, record: _TrainingRecord, update) -> None:
        for space, counts in self.counts.items():
            bag = record.counts.get(space)
            if bag:
                update(counts, bag)


class BingoEngine:
    """A configured BINGO! instance bound to one (synthetic) Web."""

    def __init__(
        self,
        web,
        tree: TopicTree,
        seeds: dict[str, list[str]],
        config: BingoConfig | None = None,
        spaces: dict[str, FeatureSpace] | None = None,
    ) -> None:
        """``seeds`` maps full topic names to seed URL lists."""
        self.web = web
        self.tree = tree
        self.seeds = {
            topic: [u for u in (normalize_url(url) for url in urls) if u]
            for topic, urls in seeds.items()
        }
        self.config = config or BingoConfig()
        self.config.validate()
        self.spaces = spaces or dict(TERM_SPACES)
        self.classifier = HierarchicalClassifier(
            tree, self.config, spaces=list(self.spaces)
        )
        self.database = Database()
        self.loader = BulkLoader(self.database)
        self.crawler = FocusedCrawler(
            web,
            self.classifier,
            self.config,
            spaces=self.spaces,
            loader=self.loader,
            on_retrain=self._retrain,
        )
        self.ctx = self.crawler.ctx
        """The crawl's service container (clock, frontier, dedup, host
        breakers, document store, ...); the engine reads runtime state
        from here, the crawler only drives phases."""
        self.training: dict[str, _TrainingBucket] = {}
        self.retrainings = 0
        self.link_analysis_runs = 0
        self.link_analysis_iterations = 0
        self.archetypes_added = 0
        self.archetypes_removed = 0
        self.skipped_seeds: list[str] = []
        self._bootstrapped = False
        self._active_allowed_domains: frozenset[str] | None = None
        self.obs = self.ctx.obs
        """The crawl's metrics registry
        (:class:`repro.obs.MetricsRegistry`)."""
        self.obs.register_source("engine", self)

    # ------------------------------------------------------------------
    # constructors for the paper's two scenarios
    # ------------------------------------------------------------------

    @classmethod
    def for_portal(
        cls,
        web,
        topics: list[str] | None = None,
        config: BingoConfig | None = None,
        seed_count: int = 2,
        spaces: dict[str, FeatureSpace] | None = None,
    ) -> "BingoEngine":
        """Portal generation: seed with top researcher homepages (5.2)."""
        topics = topics or [web.config.target_topic]
        tree = TopicTree.from_leaves(topics)
        seeds = {
            f"ROOT/{topic}": web.seed_homepages(seed_count, topic=topic)
            for topic in topics
        }
        config = config or BingoConfig()
        # Lock the DBLP domain (paper 5.2: "we locked the DBLP domain and
        # the domains of its 7 official mirrors").  Search engines are
        # additionally locked at the server level.
        locked = set(config.locked_domains)
        locked.add("example.org")
        config.locked_domains = tuple(sorted(locked))
        return cls(web, tree, seeds, config, spaces=spaces)

    @classmethod
    def for_expert(
        cls,
        web,
        seed_urls: list[str],
        topic: str = "aries",
        config: BingoConfig | None = None,
        spaces: dict[str, FeatureSpace] | None = None,
    ) -> "BingoEngine":
        """Expert search: single-topic tree seeded from external results."""
        tree = TopicTree.from_leaves([topic])
        config = config or BingoConfig()
        return cls(web, tree, {f"ROOT/{topic}": seed_urls}, config, spaces=spaces)

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------

    def analyze_page(
        self, payload: str, mime: str | None = None
    ) -> tuple[dict[str, Counter], ScannedPage] | None:
        """Convert and scan a payload once: its per-space counts and the
        scanned page (links, title) they were built from.  None when no
        content handler claims the payload -- the convert stage's
        ``mime_rejected`` policy."""
        converted = self.ctx.handlers.convert(payload, mime)
        if converted is None:
            return None
        return analyze_page(converted.html, self.spaces)

    def bootstrap(self) -> None:
        """Fetch seed documents, populate OTHERS, train the first model."""
        if self._bootstrapped:
            return
        for topic, urls in self.seeds.items():
            if topic not in self.tree:
                raise CrawlError(f"seed topic {topic!r} not in the tree")
            bucket = self._bucket(topic)
            for url in urls:
                # the user fetches seeds by hand; transient failures are
                # simply retried a few times
                result = None
                for _attempt in range(3):
                    result = self.web.server.fetch(url)
                    if result.ok and result.html is not None:
                        break
                analysis = None
                if result is not None and result.ok and result.html is not None:
                    analysis = self.analyze_page(result.html, result.mime)
                if analysis is None:
                    self.skipped_seeds.append(url)
                    continue
                counts, _ = analysis
                self.classifier.ingest(counts)
                bucket[url] = _TrainingRecord(counts=counts, protected=True)
            if not bucket:
                raise CrawlError(
                    f"no seed of topic {topic!r} was fetchable "
                    f"(skipped: {self.skipped_seeds})"
                )
        self._populate_others()
        self._train()
        self._bootstrapped = True

    def _populate_others(self) -> None:
        """Systematic negative examples from directory pages (section 3.1)."""
        negatives = self.web.negative_example_pages(
            self.config.negative_examples, seed=self.config.seed
        )
        records = {}
        for page in negatives:
            counts, _ = analyze_page(
                self.web.renderer.render(page), self.spaces
            )
            self.classifier.ingest(counts)
            records[page.url] = _TrainingRecord(counts=counts, protected=True)
        for parent in self.tree.inner_nodes():
            others = self.tree.others_of(parent)
            self._bucket(others).update(records)

    def _bucket(self, topic: str) -> _TrainingBucket:
        return self.training.setdefault(topic, _TrainingBucket(self.spaces))

    def _training_sets(self) -> tuple[dict, dict]:
        """The classifier's training input: every topic's record counts
        and their kept term counts."""
        return (
            {
                topic: [record.counts for record in records.values()]
                for topic, records in self.training.items()
            },
            {
                topic: records.counts
                for topic, records in self.training.items()
            },
        )

    def _train(self) -> None:
        self.classifier.train(*self._training_sets())
        self._refresh_training_confidences()

    def _refresh_training_confidences(self) -> None:
        """Re-score training docs under the new model (paper 2.4: training
        documents get a confidence too, by running them through the
        trained decision model).  Scored through the batch API so the
        compiled kernel is built once per retraining point."""
        for topic, records in self.training.items():
            if topic.endswith("/OTHERS") or topic not in self.classifier.models:
                continue
            batch = list(records.values())
            confidences = self.classifier.confidence_for_batch(
                [record.counts for record in batch], topic
            )
            for record, confidence in zip(batch, confidences):
                record.confidence = confidence

    # ------------------------------------------------------------------
    # retraining with archetypes
    # ------------------------------------------------------------------

    def _topic_documents(self, topic: str) -> list[CrawledDocument]:
        documents = self.ctx.documents
        return [documents[i] for i in self.ctx.topic_docs.get(topic, ())]

    def _link_graph_for(self, docs: list[CrawledDocument]) -> LinkGraph:
        """Base set + successors/predecessors graph over crawled docs,
        read from the context's URL map and in-link index."""
        documents = self.ctx.documents
        url_to_doc = self.ctx.url_to_doc
        in_links = self.ctx.in_links
        members = {doc.doc_id for doc in docs}
        for doc in docs:
            # successors: out-links resolving to crawled documents
            members.update(map(url_to_doc.get, doc.out_urls))
            # predecessors: crawled documents linking into the base set
            members.update(in_links.get(doc.final_url, ()))
        members.discard(None)
        graph = LinkGraph()
        ordered = sorted(members)
        for doc_id in ordered:
            graph.add_node(doc_id, host=documents[doc_id].host)
        for doc_id in ordered:
            for target in map(url_to_doc.get, documents[doc_id].out_urls):
                if target in members:
                    graph.add_edge(doc_id, target)
        return graph

    def _retrain(self) -> None:
        """Archetype selection + classifier retraining (sections 2.6, 3.2)."""
        changed = False
        for topic in self.tree.real_topics():
            if self.tree.children_of(topic):
                continue  # archetypes attach to leaf topics
            docs = self._topic_documents(topic)
            if not docs:
                continue
            graph = self._link_graph_for(docs)
            documents = self.ctx.documents
            relevance = {
                doc_id: max(documents[doc_id].confidence, 0.0) + 0.05
                for doc_id in graph.successors
            }
            analysis = bharat_henzinger(graph, relevance=relevance)
            self.link_analysis_runs += 1
            self.link_analysis_iterations += analysis.iterations
            topic_ids = {doc.doc_id for doc in docs}
            authority_candidates = [
                (doc_id, score)
                for doc_id, score in analysis.top_authorities(
                    TOP_AUTHORITIES * 3
                )
                if doc_id in topic_ids
            ][:TOP_AUTHORITIES]
            confidence_candidates = [
                (doc.doc_id, doc.confidence)
                for doc in sorted(
                    docs, key=lambda d: -d.confidence
                )[:MAX_ARCHETYPES_PER_TOPIC]
            ]
            records = self._bucket(topic)
            training_confidences = {
                record.doc_id if record.doc_id is not None else -(i + 1):
                    record.confidence
                for i, record in enumerate(records.values())
            }
            protected = {
                record.doc_id if record.doc_id is not None else -(i + 1)
                for i, record in enumerate(records.values())
                if record.protected
            }
            # every candidate is one of the topic's documents
            document_confidences = {
                doc.doc_id: doc.confidence for doc in docs
            }
            enforce = len(records) >= ARCHETYPE_THRESHOLD_WARMUP
            decision = select_archetypes(
                confidence_candidates,
                authority_candidates,
                training_confidences,
                document_confidences,
                enforce_threshold=enforce,
                protected=protected,
                cap_by_min=enforce,
            )
            for doc_id, confidence, source in decision.added:
                doc = self.ctx.documents[doc_id]
                existing = records.get(doc.final_url)
                records[doc.final_url] = _TrainingRecord(
                    counts=doc.counts, confidence=confidence,
                    doc_id=doc_id,
                    # a re-crawled seed stays protected
                    protected=existing.protected if existing else False,
                )
                self.database["archetypes"].upsert(
                    (topic, doc_id, source, confidence, self.retrainings)
                )
                changed = True
            if decision.removed:
                removed_ids = set(decision.removed)
                for key in [
                    key for key, record in records.items()
                    if record.doc_id in removed_ids
                ]:
                    del records[key]
                    changed = True
            self.archetypes_added += len(decision.added)
            self.archetypes_removed += len(decision.removed)
            # push uncrawled out-links of the best hubs (section 2.5)
            self._enqueue_hub_links(topic, analysis)
        if changed:
            self._train()
        self.retrainings += 1

    def _enqueue_hub_links(self, topic: str, analysis) -> None:
        allowed = self._active_allowed_domains
        for doc_id, score in analysis.top_hubs(TOP_HUBS):
            doc = self.ctx.documents[doc_id]
            for url in doc.out_urls:
                if allowed is not None:
                    parsed = parse_url(url)
                    if parsed is None or parsed.domain not in allowed:
                        continue
                if self.ctx.document_by_url(url) is not None:
                    continue
                if self.ctx.dedup.is_known_url(url):
                    continue
                self.ctx.frontier.push(
                    QueueEntry(
                        url=url, topic=topic,
                        priority=10.0 + score,  # high-priority end
                        depth=doc.depth + 1,
                        referrer_doc_id=doc_id,
                    )
                )

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _seed_domains(self) -> frozenset[str]:
        domains = set()
        for urls in self.seeds.values():
            for url in urls:
                parsed = parse_url(url)
                if parsed is not None:
                    domains.add(parsed.domain)
        return frozenset(domains)

    def run_learning_phase(self) -> PhaseReport:
        """Sharp-focus, depth-first crawl near the seeds (section 3.3)."""
        self.bootstrap()
        for topic, urls in self.seeds.items():
            self.crawler.seed(urls, topic=topic, priority=100.0)
        settings = PhaseSettings(
            name="learning",
            focus=SHARP,
            decision_mode=LEARNING_DECISION_MODE,
            tunnelling=True,
            depth_first=True,
            max_depth=LEARNING_MAX_DEPTH,
            allowed_domains=self._seed_domains(),
            fetch_budget=self.config.learning_fetch_budget,
        )
        self._active_allowed_domains = settings.allowed_domains
        before_added = self.archetypes_added
        before_removed = self.archetypes_removed
        before_retrain = self.retrainings
        stats = self.crawler.crawl(settings)
        # end-of-phase retraining (always, even below the interval)
        self._retrain()
        return PhaseReport(
            name="learning",
            stats=stats,
            retrainings=self.retrainings - before_retrain,
            archetypes_added=self.archetypes_added - before_added,
            archetypes_removed=self.archetypes_removed - before_removed,
        )

    def run_harvesting_phase(
        self,
        time_budget: float | None = None,
        fetch_budget: int | None = None,
        resume: CrawlStats | None = None,
        checkpointer=None,
    ) -> PhaseReport:
        """Soft-focus breadth-first crawl for recall (section 3.3).

        ``resume``/``checkpointer`` are forwarded to
        :meth:`FocusedCrawler.crawl` for fault-tolerant harvests
        (:mod:`repro.robust.checkpoint`).  A resumed harvest skips the
        external-link reseed -- the restored frontier already holds it.
        """
        if not self._bootstrapped:
            raise CrawlError("run the learning phase (or bootstrap) first")
        if resume is None:
            self._reseed_external_links()
        settings = PhaseSettings(
            name="harvesting",
            focus=SOFT,
            decision_mode=HARVESTING_DECISION_MODE,
            tunnelling=True,
            depth_first=False,
            max_depth=None,
            allowed_domains=None,
            fetch_budget=fetch_budget,
            time_budget=time_budget,
        )
        self._active_allowed_domains = settings.allowed_domains
        before_added = self.archetypes_added
        before_removed = self.archetypes_removed
        before_retrain = self.retrainings
        stats = self.crawler.crawl(
            settings, resume=resume, checkpointer=checkpointer
        )
        return PhaseReport(
            name="harvesting",
            stats=stats,
            retrainings=self.retrainings - before_retrain,
            archetypes_added=self.archetypes_added - before_added,
            archetypes_removed=self.archetypes_removed - before_removed,
        )

    def _reseed_external_links(self) -> None:
        """Re-enqueue stored documents' links dropped by the learning
        phase's domain restriction (the harvest has no such restriction)."""
        for doc in self.ctx.documents:
            if not doc.topic.endswith("/OTHERS"):
                priority = max(doc.confidence, 0.0)
                for url in doc.out_urls:
                    if self.ctx.frontier.has_seen(url):
                        continue
                    if self.ctx.dedup.is_known_url(url):
                        continue
                    self.ctx.frontier.push(
                        QueueEntry(
                            url=url, topic=doc.topic, priority=priority,
                            depth=doc.depth + 1, referrer_doc_id=doc.doc_id,
                        )
                    )

    def run(self, harvesting_fetch_budget: int | None = None) -> CrawlReport:
        """Full pipeline: bootstrap -> learning -> harvesting."""
        report = CrawlReport()
        report.phases.append(self.run_learning_phase())
        report.phases.append(
            self.run_harvesting_phase(fetch_budget=harvesting_fetch_budget)
        )
        return report

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Engine-level counters (:class:`repro.obs.api.Instrumented`)."""
        return {
            "retrainings": float(self.retrainings),
            "link_analysis_runs": float(self.link_analysis_runs),
            "link_analysis_iterations": float(self.link_analysis_iterations),
            "archetypes_added": float(self.archetypes_added),
            "archetypes_removed": float(self.archetypes_removed),
            "skipped_seeds": float(len(self.skipped_seeds)),
            "training_topics": float(len(self.training)),
        }

    # ------------------------------------------------------------------
    # result access
    # ------------------------------------------------------------------

    def ranked_results(self, topic: str) -> list[CrawledDocument]:
        """Crawled documents of ``topic`` by descending SVM confidence."""
        docs = [doc for doc in self.ctx.documents if doc.topic == topic]
        return sorted(docs, key=lambda d: (-d.confidence, d.doc_id))

    def ranked_result_urls(self, topic: str) -> list[str]:
        return [doc.final_url for doc in self.ranked_results(topic)]

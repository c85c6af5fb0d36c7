"""Crawl configuration (the paper's testbed parameters, section 5.1).

Defaults mirror the published setup: 15 crawler threads, 2 parallel
accesses per host and 5 per domain, 5 DNS servers, 3 retries before a
host is tagged bad, tunnelling distance 2 with priority decay 0.5,
bounded per-topic URL queues, MI feature selection with tf pre-selection
of 5000 candidates and the top 2000 features per topic, and MIME size
caps per document type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.robust.breaker import BreakerPolicy
from repro.robust.faults import FaultWindow
from repro.robust.retry import RetryPolicy
from repro.web.model import MimeType

__all__ = ["MimePolicy", "BingoConfig"]


@dataclass(frozen=True)
class MimePolicy:
    """Whether a MIME type is handled and its maximum allowed size."""

    handled: bool
    max_size: int


def default_mime_policies() -> dict[str, MimePolicy]:
    """Size caps per MIME type ("based on large-scale Google evaluations")."""
    mega = 1 << 20
    return {
        MimeType.HTML: MimePolicy(True, 2 * mega),
        MimeType.PDF: MimePolicy(True, 10 * mega),
        MimeType.WORD: MimePolicy(True, 6 * mega),
        MimeType.POWERPOINT: MimePolicy(True, 10 * mega),
        MimeType.ZIP: MimePolicy(True, 20 * mega),
        MimeType.GZIP: MimePolicy(True, 20 * mega),
        MimeType.VIDEO: MimePolicy(False, 0),
        MimeType.AUDIO: MimePolicy(False, 0),
        MimeType.IMAGE: MimePolicy(False, 0),
    }


@dataclass
class BingoConfig:
    """Every knob of the BINGO! engine."""

    # -- crawler concurrency and politeness (paper 5.1) ------------------
    crawl_workers: int = 1
    """Crawl workers (repro.shard): the frontier, breaker boards, fetch
    pools and storage workspaces are hash-partitioned by host onto this
    many per-worker slices.  Each worker gets its own pool of
    ``crawler_threads`` simulated threads; crawl *decisions* are
    bit-identical for any worker count (the N=1 vs N=8 Table-1 parity
    guarantee), only simulated wall-clock time shrinks."""
    shard_barrier_interval: int = 0
    """Committed micro-batches between merge barriers in a sharded
    crawl (global flush + barrier hooks for link-analysis and archetype
    waves); 0 runs barriers only at phase boundaries."""
    crawler_threads: int = 15
    max_parallel_per_host: int = 2
    max_parallel_per_domain: int = 5
    dns_servers: int = 5
    max_retries: int = 3
    """Consecutive failures per host before its circuit breaker opens
    (the paper's "bad" state) -- and the retry cap per URL."""

    # -- robustness (repro.robust) -----------------------------------------
    retry_base_delay: float = 4.0
    """Backoff before a failed URL's first retry (simulated seconds)."""
    retry_multiplier: float = 2.0
    retry_max_delay: float = 300.0
    retry_jitter: float = 0.25
    """Deterministic per-URL jitter applied to retry delays."""
    retry_budget: int | None = None
    """Total retries allowed per crawl phase; None means unbounded."""
    host_quarantine: float = 600.0
    """Quarantine interval after a breaker opens (simulated seconds)."""
    host_quarantine_multiplier: float = 2.0
    """Quarantine growth per failed probation probe."""
    host_max_quarantine: float = 7200.0
    slow_priority_factor: float = 0.5
    """Priority multiplier for URLs pointing at slow hosts."""
    slow_host_cooldown: float = 5.0
    """Extra politeness gap between fetches on a slow host (seconds)."""
    max_host_deferrals: int = 3
    """Times a queue entry may be deferred by a quarantined host before
    it is dropped."""
    fault_windows: tuple[FaultWindow, ...] = ()
    """Deterministic fault-injection windows applied to the synthetic
    Web (burst failures, flaky DNS, host flapping); empty disables the
    injector."""

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_retries=self.max_retries,
            base_delay=self.retry_base_delay,
            multiplier=self.retry_multiplier,
            max_delay=self.retry_max_delay,
            jitter=self.retry_jitter,
            budget=self.retry_budget,
        )

    def breaker_policy(self) -> BreakerPolicy:
        return BreakerPolicy(
            open_after=max(self.max_retries, 1),
            quarantine=self.host_quarantine,
            quarantine_multiplier=self.host_quarantine_multiplier,
            max_quarantine=self.host_max_quarantine,
            slow_priority_factor=self.slow_priority_factor,
            slow_cooldown=self.slow_host_cooldown,
            max_deferrals=self.max_host_deferrals,
        )

    # -- staged pipeline (repro.pipeline) -----------------------------------
    pipeline_batch_size: int = 1
    """Micro-batch size drained from the frontier per pipeline round.
    1 reproduces the historical per-document crawl bit-identically;
    larger batches amortize classification over the wave-based batch
    kernel (one ``classify_batch`` call per micro-batch)."""
    convert_cost: float = 0.0125
    """Simulated per-document cost of the convert stage (handlers +
    tokenization), seconds."""
    analyze_cost: float = 0.0125
    """Simulated per-document cost of the analyze stage (feature
    extraction + link resolution), seconds."""
    classify_cost: float = 0.025
    """Simulated per-document cost of the classify stage, seconds."""

    @property
    def processing_cost(self) -> float:
        """Total simulated per-document analysis cost (seconds).

        The sum of the per-stage costs; the defaults add up to exactly
        the historical flat ``PROCESSING_COST = 0.05``.
        """
        return self.convert_cost + self.analyze_cost + self.classify_cost

    # -- focusing (paper 3.3, 5.1) -----------------------------------------
    max_tunnelling_distance: int = 2
    tunnel_priority_decay: float = 0.5
    learning_max_depth: int = 4
    restrict_learning_to_seed_domains: bool = True

    # -- queues (paper 4.2; scaled to the synthetic Web) --------------------
    incoming_queue_limit: int = 25_000
    outgoing_queue_limit: int = 1_000
    outgoing_refill_batch: int = 50
    """URLs moved (and DNS-prefetched) per refill of an outgoing queue."""

    # -- feature selection / classification (paper 2.3, 2.4) ----------------
    tf_preselection: int = 5_000
    selected_features: int = 2_000
    feature_budget_candidates: tuple[int, ...] = ()
    """When non-empty, each topic model is trained once per candidate
    feature budget and the best xi-alpha estimate wins (paper 3.5: the
    estimator "can be used ... for choosing an appropriate value for the
    number of most significant terms")."""
    svm_cost: float = 1.0
    acceptance_threshold: float = 0.0
    """Minimum SVM decision value for a positive classification."""
    node_classifier: str = "svm"
    """Learner per topic node: "svm" (the paper's choice), "maxent",
    "naive-bayes" or "rocchio" (section 1.2 lists the alternatives).
    Non-SVM learners get a cross-validation generalization estimate in
    place of xi-alpha."""

    # -- kernel layer (repro.perf) ------------------------------------------
    vector_cache_size: int = 1024
    """Documents whose tf*idf vectors are LRU-cached per idf snapshot
    (archetype re-scoring and retraining evaluation hit this); 0
    disables the cache."""

    # -- observability (repro.obs) ------------------------------------------
    instrumentation: bool = True
    """Metrics registry + tracer on the crawl context.  Off turns every
    instrument call into a no-op; crawl outcomes are bit-identical
    either way (the golden-parity guarantee)."""
    trace_ring_size: int = 256
    """Finished spans retained by the tracer's ring buffer."""

    # -- retraining / archetypes (paper 3.2) --------------------------------
    retrain_interval: int = 150
    """Retrain after this many successfully classified documents."""
    max_archetypes_per_topic: int = 30
    archetype_confidence_factor: float = 1.0
    """Archetype confidence must exceed factor * mean training confidence."""
    enforce_archetype_threshold: bool = True
    archetype_threshold_warmup: int = 12
    """Minimum training-set size before the threshold applies.  The paper
    itself skipped thresholding when starting "with extremely small
    training data" (section 5.2) and admitted all positively classified
    documents until the basis had grown."""
    top_authorities: int = 10
    top_hubs: int = 10

    # -- learning phase sizing -------------------------------------------
    learning_fetch_budget: int = 400
    """Maximum fetches spent in the learning phase."""
    min_archetypes_to_harvest: int = 5
    learning_decision_mode: str = "unanimous"
    """Meta mode during learning (paper 3.5: unanimous by default)."""
    harvesting_decision_mode: str = "weighted"
    """Meta mode during harvesting (xi-alpha-weighted average)."""
    negative_examples: int = 50
    """Directory pages used to populate OTHERS (paper 3.1: ~50)."""

    # -- storage -----------------------------------------------------------
    bulk_batch_size: int = 200

    # -- type management ----------------------------------------------------
    mime_policies: dict[str, MimePolicy] = field(
        default_factory=default_mime_policies
    )

    # -- misc ---------------------------------------------------------------
    seed: int = 0
    locked_domains: tuple[str, ...] = ()
    """Domains never crawled (search engines, DBLP mirrors; paper 5.1/5.2)."""

    def validate(self) -> None:
        if self.crawler_threads < 1:
            raise ConfigError("crawler_threads must be >= 1")
        if self.crawl_workers < 1:
            raise ConfigError("crawl_workers must be >= 1")
        if self.shard_barrier_interval < 0:
            raise ConfigError("shard_barrier_interval must be >= 0")
        if self.max_tunnelling_distance < 0:
            raise ConfigError("max_tunnelling_distance must be >= 0")
        if not 0.0 < self.tunnel_priority_decay <= 1.0:
            raise ConfigError("tunnel_priority_decay must be in (0, 1]")
        if self.selected_features < 1 or self.tf_preselection < 1:
            raise ConfigError("feature selection sizes must be positive")
        if self.tf_preselection < self.selected_features:
            raise ConfigError(
                "tf_preselection must be >= selected_features "
                f"({self.tf_preselection} < {self.selected_features})"
            )
        if self.incoming_queue_limit < self.outgoing_queue_limit:
            raise ConfigError("incoming queue must be >= outgoing queue")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        try:
            self.retry_policy().validate()
            self.breaker_policy().validate()
            for window in self.fault_windows:
                window.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.node_classifier not in (
            "svm", "maxent", "naive-bayes", "rocchio"
        ):
            raise ConfigError(
                f"unknown node_classifier {self.node_classifier!r}"
            )
        if self.vector_cache_size < 0:
            raise ConfigError("vector_cache_size must be >= 0")
        if self.pipeline_batch_size < 1:
            raise ConfigError("pipeline_batch_size must be >= 1")
        if self.trace_ring_size < 0:
            raise ConfigError("trace_ring_size must be >= 0")
        for name in ("convert_cost", "analyze_cost", "classify_cost"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")

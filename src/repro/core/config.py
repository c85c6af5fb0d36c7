"""Crawl configuration: what a caller of the engine varies.

A field is here because some code in ``src/`` or ``benchmarks/`` (an
experiment, the CLI or a benchmark workload) gives it a value other
than its default (``tests/test_package.py`` holds that; ``max_retries``
is its one exception, which the tests vary).  The defaults mirror the
paper's testbed (section 5.1): 15 crawler threads, 3 retries before a
host is tagged bad, MI feature selection with tf pre-selection of 5000
candidates and the top 2000 features per topic.

Testbed values no such caller varies are not fields.  Each is one named
constant (or one constructor default) beside the code that reads it:
2 parallel accesses per host and 5 per domain in
:mod:`repro.pipeline.context`, tunnelling distance 2 with priority decay
0.5 in :mod:`repro.pipeline.stages`, queue limits and refill batch on
:class:`~repro.core.frontier.CrawlFrontier`, backoff, jitter, retry
budget, slow-host handling and quarantine growth on
:class:`~repro.robust.retry.RetryPolicy` /
:class:`~repro.robust.breaker.BreakerPolicy`, the vector-cache size in
:mod:`repro.perf.cache`, the bulk-loader batch on
:class:`~repro.storage.bulkloader.BulkLoader`, MIME size caps and the
per-document processing cost in :mod:`repro.pipeline.stages`, the
acceptance threshold and SVM cost in :mod:`repro.core.classifier`, the
archetype cap in :mod:`repro.core.archetypes`, and the phase strategy
constants (learning depth, decision modes, hub/authority counts,
archetype warm-up) in :mod:`repro.core.engine`.  The 5 DNS servers stay
readable as the class constant :attr:`BingoConfig.dns_servers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ConfigError
from repro.robust.breaker import BreakerPolicy
from repro.robust.faults import FaultWindow
from repro.robust.retry import RetryPolicy

__all__ = ["NODE_CLASSIFIERS", "BingoConfig"]

NODE_CLASSIFIERS = ("svm", "maxent", "naive-bayes", "rocchio")
"""The learner menu of paper section 1.2 (``node_classifier`` values)."""


@dataclass
class BingoConfig:
    """The settings a caller of the BINGO! engine varies from run to run."""

    # -- crawler concurrency and politeness (paper 5.1) ------------------
    crawl_workers: int = 1
    """Crawl workers (repro.shard): fetch pools and storage workspaces
    are hash-partitioned by host onto this many workers (the frontier
    and the breaker board stay one store each).  Each worker gets its
    own pool of ``crawler_threads`` simulated threads; crawl
    *decisions* are bit-identical for any worker count (the N=1 vs N=8
    Table-1 parity guarantee), only simulated wall-clock time shrinks."""
    shard_barrier_interval: int = 0
    """Committed micro-batches between merge barriers in a sharded
    crawl (a global flush of every worker's buffered rows); 0 runs
    barriers only at phase boundaries."""
    crawler_threads: int = 15
    dns_servers: ClassVar[int] = 5
    """Simulated DNS servers behind the caching resolver (paper 5.1)."""
    max_retries: int = RetryPolicy.max_retries
    """Consecutive failures per host before its circuit breaker opens
    (the paper's "bad" state) -- and the retry cap per URL."""

    # -- robustness (repro.robust) -----------------------------------------
    host_quarantine: float = BreakerPolicy.quarantine
    """Quarantine interval after a breaker opens (simulated seconds)."""
    fault_windows: tuple[FaultWindow, ...] = ()
    """Deterministic fault-injection windows applied to the synthetic
    Web (burst failures, flaky DNS, host flapping); empty disables the
    injector."""

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_retries=self.max_retries)

    def breaker_policy(self) -> BreakerPolicy:
        return BreakerPolicy(
            open_after=max(self.max_retries, 1),
            quarantine=self.host_quarantine,
        )

    # -- staged pipeline (repro.pipeline) -----------------------------------
    pipeline_batch_size: int = 1
    """Micro-batch size drained from the frontier per pipeline round.
    1 reproduces the historical per-document crawl bit-identically;
    larger batches amortize classification over the wave-based batch
    kernel (one ``classify_batch`` call per micro-batch)."""

    # -- feature selection / classification (paper 2.3, 2.4) ----------------
    tf_preselection: int = 5_000
    selected_features: int = 2_000
    feature_budget_candidates: tuple[int, ...] = ()
    """When non-empty, each topic model is trained once per candidate
    feature budget and the best xi-alpha estimate wins (paper 3.5: the
    estimator "can be used ... for choosing an appropriate value for the
    number of most significant terms")."""
    node_classifier: str = "svm"
    """Learner per topic node: "svm" (the paper's choice), "maxent",
    "naive-bayes" or "rocchio" (section 1.2 lists the alternatives).
    Non-SVM learners get a cross-validation generalization estimate in
    place of xi-alpha."""

    # -- retraining / archetypes (paper 3.2) --------------------------------
    retrain_interval: int = 150
    """Retrain after this many successfully classified documents."""

    # -- learning phase sizing -------------------------------------------
    learning_fetch_budget: int = 400
    """Maximum fetches spent in the learning phase."""
    negative_examples: int = 50
    """Directory pages used to populate OTHERS (paper 3.1: ~50)."""

    # -- misc ---------------------------------------------------------------
    seed: int = 0
    locked_domains: tuple[str, ...] = ()
    """Domains never crawled (search engines, DBLP mirrors; paper 5.1/5.2)."""

    def validate(self) -> None:
        for name in (
            "crawler_threads", "crawl_workers", "retrain_interval",
            "learning_fetch_budget", "pipeline_batch_size",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.shard_barrier_interval < 0:
            raise ConfigError("shard_barrier_interval must be >= 0")
        if self.negative_examples < 0:
            raise ConfigError("negative_examples must be >= 0")
        if self.selected_features < 1 or self.tf_preselection < 1:
            raise ConfigError("feature selection sizes must be positive")
        if self.tf_preselection < self.selected_features:
            raise ConfigError(
                "tf_preselection must be >= selected_features "
                f"({self.tf_preselection} < {self.selected_features})"
            )
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        try:
            self.retry_policy().validate()
            self.breaker_policy().validate()
            for window in self.fault_windows:
                window.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.node_classifier not in NODE_CLASSIFIERS:
            raise ConfigError(
                f"unknown node_classifier {self.node_classifier!r}"
            )

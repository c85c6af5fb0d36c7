"""Outside-in tracing: every layer is timed by wrapping its public callables.

No file under ``src/`` knows about this module.  :data:`TARGETS` names,
per layer (``src/repro/<module>``), the public callables whose
invocations become spans; :meth:`Tracer.install` swaps each for a
recording wrapper and :meth:`Tracer.uninstall` puts the original object
back, leaving the wrapped classes and modules exactly as they were.

A span is ``[name, start, end, parent, label]``: ``parent`` is the index
of the span that was open when this one started (-1 at top level) and
``label`` is the harness's repeat id.  The benchmark is single-threaded,
so the children of a span are disjoint and nested inside it, and a
span's *self time* is its duration minus its direct children's.  Over a
window of wall time (a repeat's timed region) the self times of the
spans inside it plus the time inside no wrapped callable
(``bench.untraced.busy_s``) sum to the window's length.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Any

__all__ = ["TARGETS", "Target", "Totals", "Tracer", "totals"]

Observe = Callable[[Counter, tuple, Any], None]


@dataclass(frozen=True)
class Target:
    """One public callable to wrap."""

    owner: str
    """``"package.module"`` or ``"package.module:Class"``."""
    attr: str
    span: str
    observe: Observe | None = None
    """Optional ``observe(counts, args, result)`` run after the span
    closed, for counts only the call's arguments or result carry."""

    def resolve(self) -> Any:
        module_name, _, class_name = self.owner.partition(":")
        owner = importlib.import_module(module_name)
        return getattr(owner, class_name) if class_name else owner


def _fetch_failed(counts: Counter, args: tuple, result: Any) -> None:
    if not result.ok:
        counts["web.fetch.failed"] += 1


def _scan_bytes(counts: Counter, args: tuple, result: Any) -> None:
    counts["text.scan.bytes"] += len(args[0])


def _classified_docs(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.classifier.docs"] += len(args[1])


def _dump_bytes(counts: Counter, args: tuple, result: Any) -> None:
    counts["storage.dump_bytes"] += sum(
        path.stat().st_size for path in Path(args[1]).iterdir()
    )


def _stage(name: str) -> Target:
    return Target(
        f"repro.pipeline.stages:{name.capitalize()}Stage", "run",
        f"pipeline.{name}",
    )


#: The layer map.  A function imported by name (``from x import f``) is
#: patched in the namespace that calls it; functions imported lazily at
#: call time are patched where they are defined.
TARGETS: tuple[Target, ...] = (
    # pipeline
    *(_stage(name) for name in (
        "admit", "fetch", "convert", "analyze", "classify", "persist",
        "expand",
    )),
    Target("repro.pipeline.driver:CrawlPipeline", "crawl", "pipeline.driver"),
    # web (the fixture)
    Target("repro.web.server:SimulatedServer", "fetch", "web.fetch",
           _fetch_failed),
    Target("repro.web.dns:CachingResolver", "resolve", "web.dns"),
    Target("repro.web.corpus:PageRenderer", "payload", "web.render"),
    # text
    Target("repro.pipeline.stages", "scan_html", "text.scan", _scan_bytes),
    Target("repro.perf.text", "vectorize_batch", "text.vectorize"),
    # core
    Target("repro.core.frontier:CrawlFrontier", "pop", "core.frontier.pop"),
    Target("repro.core.frontier:CrawlFrontier", "push", "core.frontier.push"),
    Target("repro.core.classifier:HierarchicalClassifier", "classify_batch",
           "core.classifier.classify_batch", _classified_docs),
    Target("repro.core.classifier:HierarchicalClassifier", "train",
           "core.classifier.train"),
    Target("repro.core.classifier:HierarchicalClassifier", "retrain_topics",
           "core.classifier.train"),
    # perf
    Target("repro.perf.compiled:CompiledClassifier", "classify_many",
           "perf.classify_many"),
    Target("repro.search.engine", "wand_topk", "perf.wand_topk"),
    Target("repro.perf.csr_hits", "hits_csr", "perf.hits_csr"),
    Target("repro.perf.csr_hits", "bharat_henzinger_csr", "perf.hits_csr"),
    # storage
    Target("repro.storage.bulkloader:BulkLoader", "add_many",
           "storage.add_many"),
    Target("repro.storage.bulkloader:BulkLoader", "flush_all",
           "storage.flush_all"),
    Target("repro.storage.database:Relation", "bulk_insert",
           "storage.bulk_insert"),
    Target("repro.robust.checkpoint", "dump_database",
           "storage.dump_database", _dump_bytes),
    Target("repro.robust.checkpoint", "load_database",
           "storage.load_database"),
    # robust
    Target("repro.robust.checkpoint", "save_checkpoint",
           "robust.checkpoint.save"),
    Target("repro.robust.checkpoint", "restore_context",
           "robust.checkpoint.restore"),
    # shard
    Target("repro.shard.frontier:ShardedFrontier", "pop",
           "shard.frontier.pop"),
    Target("repro.shard.frontier:ShardedFrontier", "push",
           "shard.frontier.push"),
    Target("repro.pipeline.context:CrawlContext", "shard_barrier",
           "shard.barrier"),
    # search
    Target("repro.search.engine:LocalSearchEngine", "__init__",
           "search.engine_build"),
    Target("repro.search.index:InvertedIndex", "build", "search.index_build"),
    Target("repro.search.engine:LocalSearchEngine", "search",
           "search.search"),
    Target("repro.search.serving:QueryServer", "handle",
           "search.serving.handle"),
    Target("repro.search.engine:LocalSearchEngine", "apply_delta",
           "search.apply_delta"),
    Target("repro.search.index:InvertedIndex", "apply_update",
           "search.index.apply_update"),
    # portal
    Target("repro.portal.runtime:LivingPortal", "evolve", "portal.evolve"),
    Target("repro.portal.scheduler:RecrawlScheduler", "schedule",
           "portal.scheduler.schedule"),
    Target("repro.portal.scheduler:RecrawlScheduler", "run",
           "portal.scheduler.run"),
    Target("repro.portal.scheduler:RecrawlScheduler", "prime",
           "portal.prime"),
    Target("repro.portal.runtime", "fold_into_classifier",
           "portal.fold_classifier"),
    # analysis / ml
    Target("repro.search.engine", "hits", "analysis.hits"),
    Target("repro.portal.scheduler", "hits", "analysis.hits"),
    Target("repro.core.engine", "bharat_henzinger", "analysis.hits"),
    Target("repro.ml.svm:LinearSVM", "fit", "ml.svm.fit"),
)


class Tracer:
    """In-memory span recorder plus the wrapper installer."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        """Counts taken by :attr:`Target.observe` hooks."""
        self.label = ""
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.label]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self.spans[index][2] = end
        self._stack.pop()

    def wrap(self, function: Callable, name: str,
             observe: Observe | None = None) -> Callable:
        """``function`` recording a span called ``name`` per invocation."""
        open_span, close_span, counts = self._open, self._close, self.counts

        @wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name)
            try:
                result = function(*args, **kwargs)
            finally:
                close_span(index)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    # -- install / uninstall -------------------------------------------------

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Swap every target for its recording wrapper."""
        for target in targets:
            owner = target.resolve()
            original = vars(owner)[target.attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapper: Any = type(original)(
                    self.wrap(original.__func__, target.span, target.observe)
                )
            else:
                wrapper = self.wrap(original, target.span, target.observe)
            self._installed.append((owner, target.attr, original))
            setattr(owner, target.attr, wrapper)

    def uninstall(self) -> None:
        """Put every original object back (reverse order)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(
        self, path: Path, windows: dict[str, tuple[float, float]],
        **header: Any,
    ) -> None:
        """Write the spans as JSON, times relative to the first span;
        ``windows`` maps a label to its timed region."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header)
        payload["windows"] = {
            label: [start - origin, end - origin]
            for label, (start, end) in windows.items()
        }
        payload["columns"] = ["name", "start_s", "end_s", "parent", "label"]
        payload["spans"] = [
            [name, start - origin, end - origin, parent, label]
            for name, start, end, parent, label in self.spans
        ]
        path.write_text(json.dumps(payload))


@dataclass
class Totals:
    """Per span name over one window, plus the window's untraced time."""

    self_s: dict[str, float]
    inclusive_s: dict[str, float]
    calls: Counter
    untraced_s: float


def totals(
    spans: list[list], label: str,
    window: tuple[float, float] | None = None,
) -> Totals:
    """Sum the spans labelled ``label`` that lie inside ``window``
    (default: from the first such span's start to the last one's end)."""
    chosen = [
        index for index, span in enumerate(spans)
        if span[4] == label and (
            window is None
            or (span[1] >= window[0] and span[2] <= window[1])
        )
    ]
    if window is None:
        window = (
            (spans[chosen[0]][1], max(spans[i][2] for i in chosen))
            if chosen else (0.0, 0.0)
        )
    inside = set(chosen)
    own = {index: spans[index][2] - spans[index][1] for index in chosen}
    untraced_s = window[1] - window[0]
    for index in chosen:
        duration = spans[index][2] - spans[index][1]
        parent = spans[index][3]
        if parent in inside:
            own[parent] -= duration
        else:
            untraced_s -= duration
    result = Totals({}, {}, Counter(), untraced_s)
    for index in chosen:
        name, start, end = spans[index][:3]
        result.self_s[name] = result.self_s.get(name, 0.0) + own[index]
        result.inclusive_s[name] = (
            result.inclusive_s.get(name, 0.0) + (end - start)
        )
        result.calls[name] += 1
    return result

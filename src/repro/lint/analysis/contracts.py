"""``epoch-mutation`` and ``deprecated-api``: the Epoch lifecycle.

PR 9 made every piece of query-serving state hang off a typed
:class:`~repro.search.epoch.Epoch`: the engine's vectors and inverted
index, the query cache, the idf snapshot and the classifier's decision
models all advance together through one funnel --
``apply_delta(reason=)``.  A write that bypasses the funnel leaves
cache keys, snapshot versions and index contents silently disagreeing.
``epoch-mutation`` makes the funnel a checked property: any mutation
of contract state whose receiver is provably one of the guarded
classes, from outside that class's sanctioned methods, is a finding.

``deprecated-api`` keeps recently deleted members from creeping back
while call sites written against them may still be in flight: the
fields and keywords that became constants (the table says where), the
write side of the metrics path, the span tracer and the ``Obs`` bundle
(``ctx.obs`` is the registry), ``LocalSearchEngine.rebuild`` and
``sync_term_statistics``.  An entry expires one ROADMAP re-anchor after
the PR that recorded it; by then a stay-gone test or a ``TypeError``
from the constructor holds the line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.analysis.writes import iter_attr_writes
from repro.lint.engine import ProjectContext, dotted_name
from repro.lint.findings import Finding
from repro.lint.graph import (
    ClassSymbol,
    FunctionSymbol,
    ProjectIndex,
    scope_expressions,
)
from repro.lint.registry import Rule, register

__all__ = ["DeprecatedApi", "EpochMutation"]


@dataclass(frozen=True)
class MutationContract:
    """Guarded attributes and sanctioned mutators of one class."""

    attrs: frozenset[str]
    funnels: frozenset[str]


#: class name -> the state behind the Epoch and its lifecycle funnels
CONTRACTS: dict[str, MutationContract] = {
    "LocalSearchEngine": MutationContract(
        attrs=frozenset(
            {
                "_epoch", "_vectors", "_index", "_by_id",
                "documents", "vectorizer", "_views", "_url_to_doc",
            }
        ),
        funnels=frozenset(
            {
                "__init__", "epoch", "advance_epoch", "restore_epoch",
                "index", "apply_delta",
                # per-epoch views and exact vectors: filled on first
                # use (``vector`` is the one funnel that fills
                # ``_vectors``), dropped only where the epoch is assigned
                "_move_epoch", "_view", "_authority_scores", "vector",
            }
        ),
    ),
    # an index is immutable: apply_update returns the next one
    "InvertedIndex": MutationContract(
        attrs=frozenset(
            {
                "_doc_ids", "_columns", "_rows", "_cols", "_tfw",
                "_starts", "_impacts", "doc_count", "postings_total",
            }
        ),
        funnels=frozenset({"__init__"}),
    ),
    "QueryCache": MutationContract(
        attrs=frozenset(
            {"_entries", "hits", "misses", "invalidations", "maxsize"}
        ),
        funnels=frozenset({"__init__", "get", "put", "invalidate"}),
    ),
    "CorpusStatistics": MutationContract(
        attrs=frozenset(
            {
                "_snapshot_n", "_snapshot_df", "_snapshot_version",
                "_idf_cache",
            }
        ),
        funnels=frozenset({"__init__", "refresh", "idf"}),
    ),
    "HierarchicalClassifier": MutationContract(
        attrs=frozenset({"models", "trained", "model_version"}),
        funnels=frozenset({"__init__", "train", "retrain_topics"}),
    ),
}


def _mro_names(index: ProjectIndex, qualname: str) -> set[str]:
    return {symbol.name for symbol in index.mro(qualname)}


@register
class EpochMutation(Rule):
    """Flag epoch-guarded state mutated outside its lifecycle funnel."""

    id = "epoch-mutation"
    scope = "project"
    description = (
        "engine/index/cache/idf-snapshot/classifier state may only "
        "change inside its Epoch lifecycle funnels "
        "(apply_delta and the class's own mutators)"
    )
    rationale = (
        "The typed Epoch guarantees that cache keys, snapshot versions "
        "and index contents advance together; one out-of-band write "
        "desynchronises them without any failing assertion, serving "
        "stale rankings until the next fold."
    )

    def check_project(
        self, index: ProjectIndex, project: ProjectContext
    ) -> Iterator[Finding]:
        for qualname in sorted(index.functions):
            function = index.functions[qualname]
            yield from self._check_function(index, function)

    def _check_function(
        self, index: ProjectIndex, function: FunctionSymbol
    ) -> Iterator[Finding]:
        unit = function.module
        enclosing_names: set[str] = set()
        if function.class_name is not None:
            enclosing_names = _mro_names(index, function.class_name)
        for write in iter_attr_writes(function):
            receiver = index.expr_type(
                unit, write.base, function.local_types
            )
            if receiver is None or receiver.container:
                continue
            owner = index.classes.get(receiver.qualname)
            if owner is None:
                continue
            contract = CONTRACTS.get(owner.name)
            if contract is None or write.attr not in contract.attrs:
                continue
            if (
                owner.name in enclosing_names
                and function.name in contract.funnels
            ):
                continue
            funnels = ", ".join(sorted(contract.funnels))
            yield self.finding_at(
                unit.display_path,
                write.line,
                write.col,
                f"write to {owner.name}.{write.attr} bypasses the "
                f"Epoch lifecycle; mutations are only allowed inside "
                f"{owner.name}.{{{funnels}}}",
            )


_NO_TERM_STATISTICS = (
    "the store keeps the relations the crawl writes; df and idf live on "
    "TfIdfVectorizer.statistics"
)
_NO_WRITE_SIDE = (
    "the registry only reads: keep the count as an attribute of the "
    "object that owns the state, report it from stats() and "
    "register_source that object"
)
_REGISTERED_BY_BUILDER = (
    "components never see the registry; whoever builds the object "
    "calls obs.register_source(name, it)"
)
_NO_TRACER = (
    "a stage run is recorded once, as the StageEvent "
    "CrawlPipeline.add_hook delivers; a decision is its CrawledDocument"
)

#: class (or function) name -> removed member or keyword -> replacement
#: guidance.  Uses are only flagged when the receiver provably types as
#: that class -- "value" is far too common a name to flag on sight.
_REMOVED_MEMBERS: dict[str, dict[str, str]] = {
    "WorkerSet": {"obs": _REGISTERED_BY_BUILDER},
    # the write-side metrics path (one count, kept once)
    "MetricsRegistry": {
        "counter": _NO_WRITE_SIDE,
        "gauge": _NO_WRITE_SIDE,
        "histogram": _NO_WRITE_SIDE,
        "value": "read snapshot()['sources'][source][key]",
        # ctx.obs was the registry + tracer bundle; it is the registry
        "registry": "ctx.obs is the registry: ctx.obs.snapshot()",
        "tracer": _NO_TRACER,
    },
    "Obs": {
        "record_stage_event": (
            "CrawlPipeline._emit sums the events; CrawlPipeline.stats() "
            "is the `pipeline` source"
        ),
        "count_hook_error": "CrawlPipeline.hook_errors",
        "breaker_transition": (
            "HostBreaker.trips / probes count the entries into open / "
            "half-open (robust.breaker_trips / breaker_probes)"
        ),
        "enabled": "there is no off switch: nothing is written",
    },
    "HostBreaker": {
        "on_transition": (
            "trips / probes count the state changes; nothing is "
            "called back"
        ),
    },
    "LocalSearchEngine": {
        "rebuild": (
            "build a fresh engine over the new documents, or fold the "
            "difference with apply_delta"
        ),
        "obs": _REGISTERED_BY_BUILDER,
    },
    "QueryServer": {"obs": _REGISTERED_BY_BUILDER},
    "LivingPortal": {
        "indexed": (
            "the portal serves LocalSearchEngine(documents); pass "
            "search= for any other engine"
        ),
    },
    "BulkLoader": {"obs": _REGISTERED_BY_BUILDER},
    "BreakerBoard": {"obs": _REGISTERED_BY_BUILDER},
    "BreakerBoardSet": {"obs": _REGISTERED_BY_BUILDER},
    # removed fields: where each value lives now
    "BingoConfig": {
        "svm_cost": "repro.core.classifier.SVM_COST",
        "instrumentation": (
            "there is no off switch: the metrics path has no write side"
        ),
        "trace_ring_size": _NO_TRACER,
    },
    # keywords no caller passed: module constants now
    "KMeans": {
        "max_iterations": "repro.ml.kmeans.MAX_ITERATIONS",
        "max_features": "repro.ml.kmeans.MAX_FEATURES",
    },
    "choose_cluster_count": {
        "max_features": "repro.ml.kmeans.MAX_FEATURES",
    },
    "MaxEntClassifier": {
        "max_iterations": "repro.ml.maxent.MAX_ITERATIONS",
        "tol": "repro.ml.maxent.TOL",
    },
    "TopicUniverse": {"zipf_exponent": "repro.web.vocab.ZIPF_EXPONENT"},
    "run_meta_experiment": {
        "train_per_class": "repro.experiments.meta_bench.TRAIN_PER_CLASS",
        "svm_cost": "repro.experiments.meta_bench.SVM_COST",
    },
}
_REMOVED_NAMES = frozenset(
    name for members in _REMOVED_MEMBERS.values() for name in members
)

#: removed module or module-level name -> replacement guidance, flagged
#: where an ``import`` or ``from module import name`` asks for it
_REMOVED_IMPORTS: dict[str, str] = {
    "repro.storage.sync_term_statistics": _NO_TERM_STATISTICS,
    "repro.storage.persistence.sync_term_statistics": _NO_TERM_STATISTICS,
    "repro.obs.tracing": _NO_TRACER,
    "repro.obs.Tracer": _NO_TRACER,
    "repro.obs.Span": _NO_TRACER,
    "repro.obs.Obs": "CrawlContext.obs is the MetricsRegistry itself",
    "repro.obs.ProgressReporter": (
        "register a hook of your own with CrawlPipeline.add_hook"
    ),
    "repro.obs.from_json": "json.loads(to_json(registry))",
}


@register
class DeprecatedApi(Rule):
    """Flag reintroduction or use of recently removed members."""

    id = "deprecated-api"
    scope = "project"
    description = (
        "members deleted since the last re-anchor (fields and keywords "
        "that became constants, the write side of the metrics registry, "
        "the span tracer and Obs bundle, sync_term_statistics) must not "
        "be reintroduced"
    )
    rationale = (
        "A simplicity PR deletes a second path; a branch written "
        "against the old surface that lands afterwards would quietly "
        "bring it back.  The table names the replacement at the call "
        "site, and entries expire after one re-anchor so it does not "
        "grow with every deletion."
    )

    def check_project(
        self, index: ProjectIndex, project: ProjectContext
    ) -> Iterator[Finding]:
        for qualname in sorted(index.classes):
            symbol = index.classes[qualname]
            if symbol.name in _REMOVED_MEMBERS:
                yield from self._check_definitions(index, symbol)
        for qualname in sorted(index.functions):
            function = index.functions[qualname]
            if function.kind == "module":
                yield from self._check_imports(function)
            yield from self._check_uses(index, function)

    def _check_imports(self, module: FunctionSymbol) -> Iterator[Finding]:
        for node in ast.walk(module.node):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                package = node.module or ""
                names = [package] + [
                    f"{package}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            for name in names:
                guidance = _REMOVED_IMPORTS.get(name)
                if guidance is not None:
                    yield self.finding_at(
                        module.module.display_path,
                        node.lineno,
                        node.col_offset,
                        f"{name} was removed; {guidance}",
                    )

    def _check_definitions(
        self, index: ProjectIndex, symbol: ClassSymbol
    ) -> Iterator[Finding]:
        removed = _REMOVED_MEMBERS[symbol.name]
        # dataclass fields and plain class attributes, beside methods
        fields: dict[str, int] = {}
        for statement in symbol.node.body:
            if isinstance(statement, ast.AnnAssign):
                targets: list[ast.expr] = [statement.target]
            elif isinstance(statement, ast.Assign):
                targets = statement.targets
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    fields.setdefault(target.id, statement.lineno)
        for name in sorted(removed):
            method = index.functions.get(symbol.methods.get(name, ""))
            line = fields.get(name) if method is None else method.line
            if line is None:
                continue
            yield self.finding_at(
                symbol.module.display_path,
                line,
                0,
                f"{symbol.name}.{name} is a removed "
                f"{'field' if method is None else 'shim'}; {removed[name]}",
            )

    def _check_uses(
        self, index: ProjectIndex, function: FunctionSymbol
    ) -> Iterator[Finding]:
        unit = function.module
        for node in scope_expressions(function.node):
            if isinstance(node, ast.Call):
                yield from self._check_keywords(index, function, node)
            if (
                not isinstance(node, ast.Attribute)
                or node.attr not in _REMOVED_NAMES
            ):
                continue
            receiver = index.expr_type(
                unit, node.value, function.local_types
            )
            if receiver is None or receiver.container:
                continue
            owner = index.classes.get(receiver.qualname)
            if owner is None:
                continue
            guidance = _REMOVED_MEMBERS.get(owner.name, {}).get(node.attr)
            if guidance is None:
                continue
            yield self.finding_at(
                unit.display_path,
                node.lineno,
                node.col_offset,
                f"{owner.name}.{node.attr} was removed; {guidance}",
            )

    def _check_keywords(
        self, index: ProjectIndex, function: FunctionSymbol, call: ast.Call
    ) -> Iterator[Finding]:
        """``Class(removed=...)`` or ``function(removed=...)``: a removed
        constructor or function keyword."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return
        owner = index.resolve_class(function.module, dotted)
        if owner is not None:
            name = owner.name
            callee = index.functions.get(owner.methods.get("__init__", ""))
        else:
            callee = index.resolve_function(function.module, dotted)
            if callee is None:
                return
            name = callee.name
        removed = _REMOVED_MEMBERS.get(name, {})
        # a removed member may share its name with a live constructor
        # parameter (FocusedCrawler(config=...) stays legal)
        live: set[str] = set()
        if callee is not None:
            arguments = callee.node.args
            live = {a.arg for a in arguments.args + arguments.kwonlyargs}
        for keyword in call.keywords:
            if keyword.arg in removed and keyword.arg not in live:
                yield self.finding_at(
                    function.module.display_path,
                    keyword.value.lineno,
                    keyword.value.col_offset,
                    f"{name}.{keyword.arg} was removed; "
                    f"{removed[keyword.arg]}",
                )

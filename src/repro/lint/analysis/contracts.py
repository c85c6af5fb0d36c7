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
keywords that became constants (the table says where), the span
tracer and the ``Obs`` bundle (``ctx.obs`` is the registry), the
experiment result classes whose rows now live once, in the runner's
``ExperimentTable``, the store's query side (``Relation`` only appends,
upserts and hands its rows to the dump), the lint baseline and the
per-worker frontier stores and breaker boards (a worker owns a fetch
pool; the frontier and the board are one store each), the state-dict
checkpoint restore (a checkpoint is a directory of segments) and the
config knobs only tests turned (now constants or policy defaults).  An
entry expires one ROADMAP re-anchor after the PR that recorded it; by
then a stay-gone test or a ``TypeError`` from the constructor holds
the line.
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


_NO_TRACER = (
    "a stage run is recorded once, as the StageEvent "
    "CrawlPipeline.add_hook delivers; a decision is its CrawledDocument"
)
_NO_QUERY = (
    "the store is written, not queried: Relation.rows() hands out the "
    "stored tuples, which dump_database writes"
)
_APPEND_ONLY = (
    "the store appends and replaces by key: Relation.upsert(row)"
)
_NO_INDEX = "relations have no secondary indexes; nothing looks rows up"
_ONE_FRONTIER = (
    "a recrawl cycle runs on one CrawlFrontier; crawl_workers shards "
    "the crawl only"
)
_DIGEST_DICT = (
    "DigestStore keeps url -> row in a dict: use get / digest_of / "
    "snapshot"
)
_ONE_STORE = (
    "the frontier and the breaker board are one store at every worker "
    "count: read ctx.frontier / ctx.hosts"
)
_NO_WORKSPACE_CLASS = (
    "a workspace is the BulkLoader's relation -> rows dict for one "
    "thread: buffer rows with BulkLoader.add / add_many"
)
_NO_BASELINE = (
    "there is no lint baseline: fix the finding or suppress it on its "
    "line with a bingolint disable comment"
)
_CHECKPOINT_DIRECTORY = (
    "restore_context(ctx, directory) replays the checkpoint directory's "
    "segment chain and rebuilds the pages from their rows; a state dict "
    "holds neither"
)
_BASE_SET = (
    "BingoEngine._link_graph_for builds a topic's base set: its pages, "
    "their crawled successors and every crawled predecessor"
)
_UNREAD = "no reader reaches it (benchmarks/results/readers.txt)"
_NO_XML = (
    f"the XML export and ranked XML query (paper section 6) went: "
    f"{_UNREAD}"
)
_NO_CLUSTERING = (
    "K-means subclass suggestion (paper 3.6) went: only an example "
    "reached it (benchmarks/results/readers.txt)"
)
_NO_FEEDBACK = f"relevance feedback (paper 3.6) went: {_UNREAD}"
_NO_REVIEW = (
    f"the archetype review between the phases (paper 2.6) went: "
    f"{_UNREAD}; run() is learning, then harvesting"
)
_RETRY_POLICY = "vary it by replacing ctx.retry_policy"
_BREAKER_POLICY = "vary it by replacing ctx.hosts.policy"
_LIFETIME = (
    "the lifetime RecrawlReport: scheduler.lifetime, or "
    "scheduler.stats()['recrawl_total_...']"
)
#: class (or function) name -> removed member or keyword -> replacement
#: guidance.  Uses are only flagged when the receiver provably types as
#: that class -- "value" is far too common a name to flag on sight.
_REMOVED_MEMBERS: dict[str, dict[str, str]] = {
    "LivingPortal": {"workers": _ONE_FRONTIER},
    # knobs only tests and examples turned: constants beside the reader
    "BingoConfig": {
        "trace_ring_size": _NO_TRACER,
        "max_parallel_per_host": (
            "repro.pipeline.context.MAX_PARALLEL_PER_HOST"
        ),
        "max_parallel_per_domain": (
            "repro.pipeline.context.MAX_PARALLEL_PER_DOMAIN"
        ),
        "max_tunnelling_distance": (
            "repro.pipeline.stages.MAX_TUNNELLING_DISTANCE"
        ),
        "tunnel_priority_decay": "repro.pipeline.stages.TUNNEL_PRIORITY_DECAY",
        "retry_base_delay": f"RetryPolicy.base_delay; {_RETRY_POLICY}",
        "retry_jitter": f"RetryPolicy.jitter; {_RETRY_POLICY}",
        "retry_budget": f"RetryPolicy.budget; {_RETRY_POLICY}",
        "slow_priority_factor": (
            f"BreakerPolicy.slow_priority_factor; {_BREAKER_POLICY}"
        ),
        "slow_host_cooldown": (
            f"BreakerPolicy.slow_cooldown; {_BREAKER_POLICY}"
        ),
        "max_host_deferrals": (
            f"BreakerPolicy.max_deferrals; {_BREAKER_POLICY}"
        ),
        "vector_cache_size": "repro.perf.cache.MAX_ENTRIES",
    },
    "VectorCache": {"maxsize": "repro.perf.cache.MAX_ENTRIES"},
    "LinkGraph": {
        "subgraph": "build the graph over the nodes you need",
        "edge_count": "len(list(graph.edges()))",
    },
    "RecrawlScheduler": {
        "workers": _ONE_FRONTIER,
        **{
            f"total_{count}": _LIFETIME
            for count in (
                "scheduled", "fetched", "changed", "unchanged",
                "discovered", "dead", "errors",
            )
        },
    },
    # the store appends and dumps; the digest map is a dict
    "Relation": {
        "get": _NO_QUERY,
        "lookup": _NO_QUERY,
        "scan": _NO_QUERY,
        "__contains__": _NO_QUERY,
        "update": _APPEND_ONLY,
        "delete": _APPEND_ONLY,
    },
    "RelationSchema": {"indexes": _NO_INDEX},
    "_rel": {"indexes": _NO_INDEX},
    "Database": {
        "schemas": (
            "a Database holds the relations of BINGO_SCHEMA; keep a "
            "private map in a dict"
        ),
        "total_rows": "sum(map(len, database.relations.values()))",
        "total_statements": (
            "sum(r.statements for r in database.relations.values())"
        ),
    },
    "DigestStore": {"database": _DIGEST_DICT, "relation": _DIGEST_DICT},
    "BulkLoader": {"workspace": _NO_WORKSPACE_CLASS},
    # a checkpoint is a directory: its segments hold the rows and pages
    "restore_context": {
        "restore_database": _CHECKPOINT_DIRECTORY,
        "source": _CHECKPOINT_DIRECTORY,
    },
    "load_database": {
        "directory": (
            "load_database(directories) takes one dump or a chain of "
            "segments, oldest first"
        ),
    },
    # a worker owns a fetch pool and workspaces, not a store
    "CrawlFrontier": {
        "route": _ONE_STORE,
        "shards": _ONE_STORE,
        "pending_for": (
            "count a topic's entries in frontier.snapshot() (its "
            "queues plus its deferred entries)"
        ),
    },
    "ShardedFrontier": {
        "router": (
            "ShardedFrontier() takes CrawlFrontier's options; hosts route "
            "through ctx.workers.router"
        ),
        "shards": _ONE_STORE,
    },
    "WorkerSet": {
        "slices": "a worker owns ctx.workers.pools[i]; read ctx.frontier "
        "/ ctx.hosts for the rest",
        "frontier": _ONE_STORE,
        "hosts": _ONE_STORE,
        "breaker_policy": (
            "CrawlContext builds ctx.hosts from config.breaker_policy()"
        ),
        "prefetch": "CrawlContext builds ctx.frontier with prefetch_dns",
    },
    "ShardRouter": {
        "shard_of_url": "router.shard_of(parse_url(url).host)",
    },
    # mechanisms no reader reaches (benchmarks/results/readers.txt)
    "BingoEngine": {
        "apply_archetype_review": _NO_REVIEW,
        "needs_feedback": _NO_REVIEW,
    },
    "BingoEngine.run": {"archetype_reviewer": _NO_REVIEW},
    "PortalExporter": {"cluster_subsections": _NO_CLUSTERING},
}
_REMOVED_NAMES = frozenset(
    name for members in _REMOVED_MEMBERS.values() for name in members
)

#: constructor keywords that went while the attribute stays readable
_REMOVED_KEYWORDS: dict[str, dict[str, str]] = {
    "BingoConfig": {
        "dns_servers": (
            "BingoConfig.dns_servers is a class constant (the testbed's "
            "5 servers): read it, do not pass it"
        ),
    },
}

#: removed module or module-level name -> replacement guidance, flagged
#: where an ``import`` or ``from module import name`` asks for it
_REMOVED_IMPORTS: dict[str, str] = {
    "repro.portal.digests.DIGEST_SCHEMA": _DIGEST_DICT,
    "repro.storage.Workspace": _NO_WORKSPACE_CLASS,
    "repro.storage.bulkloader.Workspace": _NO_WORKSPACE_CLASS,
    "repro.core.frontier.FrontierShard": _ONE_STORE,
    "repro.shard.BreakerBoardSet": _ONE_STORE,
    "repro.shard.workers.BreakerBoardSet": _ONE_STORE,
    "repro.shard.WorkerSlice": _ONE_STORE,
    "repro.shard.workers.WorkerSlice": _ONE_STORE,
    "repro.lint.baseline": _NO_BASELINE,
    "repro.lint.Baseline": _NO_BASELINE,
    "repro.lint.BaselineEntry": _NO_BASELINE,
    "repro.robust.checkpoint.Source": _CHECKPOINT_DIRECTORY,
    "repro.analysis.expand_base_set": _BASE_SET,
    "repro.analysis.graph.expand_base_set": _BASE_SET,
    **dict.fromkeys(
        ("repro.semantic", "repro.semantic.xml_export",
         "repro.semantic.xml_query"),
        _NO_XML,
    ),
    **dict.fromkeys(
        ("repro.search.clustering", "repro.search.SubclassSuggestion",
         "repro.search.suggest_subclasses", "repro.ml.kmeans",
         "repro.ml.KMeans", "repro.ml.ClusterModel",
         "repro.ml.choose_cluster_count"),
        _NO_CLUSTERING,
    ),
    **dict.fromkeys(
        ("repro.search.feedback", "repro.search.FeedbackSession"),
        _NO_FEEDBACK,
    ),
    **dict.fromkeys(
        ("repro.core.ArchetypeReview", "repro.core.engine.ArchetypeReview",
         "repro.core.engine.MIN_ARCHETYPES_TO_HARVEST"),
        _NO_REVIEW,
    ),
    **dict.fromkeys(
        ("repro.text.scanner.tokenize_text", "repro.perf.tokenize_text",
         "repro.perf.text.tokenize_text"),
        "text_stems(text) gives the stems in order; a stem's position is "
        "its index",
    ),
}


@register
class DeprecatedApi(Rule):
    """Flag reintroduction or use of recently removed members."""

    id = "deprecated-api"
    scope = "project"
    description = (
        "members deleted since the last re-anchor (knobs that became "
        "constants, the store's readers and indexes, the lint baseline, "
        "the per-worker frontier stores and breaker boards, the "
        "state-dict checkpoint restore, the mechanisms no reader "
        "reaches) must not be reintroduced"
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
        """``Class(removed=...)``, ``function(removed=...)`` or
        ``instance.method(removed=...)``: a removed constructor, function
        or method keyword (a method's row is ``Class.method``)."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return
        owner = index.resolve_class(function.module, dotted)
        if owner is not None:
            name = owner.name
            callee = index.functions.get(owner.methods.get("__init__", ""))
        else:
            callee = index.resolve_function(function.module, dotted)
            name = callee.name if callee is not None else ""
            if callee is None and isinstance(call.func, ast.Attribute):
                receiver = index.expr_type(
                    function.module, call.func.value, function.local_types
                )
                if receiver is not None and not receiver.container:
                    # the row names the class that defines the method
                    callee = index.method_on(receiver.qualname, call.func.attr)
                if callee is not None:
                    defining = index.classes[callee.class_name].name
                    name = f"{defining}.{callee.name}"
            if callee is None:
                return
        removed = {
            **_REMOVED_MEMBERS.get(name, {}),
            **_REMOVED_KEYWORDS.get(name, {}),
        }
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

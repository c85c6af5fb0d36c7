"""``epoch-mutation``: the Epoch lifecycle.

PR 9 made every piece of query-serving state hang off a typed
:class:`~repro.search.epoch.Epoch`: the engine's vectors and inverted
index, the query cache, the idf snapshot and the classifier's decision
models all advance together through one funnel --
``apply_delta(reason=)``.  A write that bypasses the funnel leaves
cache keys, snapshot versions and index contents silently disagreeing.
``epoch-mutation`` makes the funnel a checked property: any mutation
of contract state whose receiver is provably one of the guarded
classes, from outside that class's sanctioned methods, is a finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.lint.analysis.writes import iter_attr_writes
from repro.lint.findings import Finding
from repro.lint.graph import FunctionSymbol, ProjectIndex
from repro.lint.registry import Rule, register

__all__ = ["EpochMutation"]


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
                "__init__", "epoch", "advance_epoch", "index", "apply_delta",
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
            {"_entries", "hits", "misses", "maxsize"}
        ),
        funnels=frozenset({"__init__", "get", "put"}),
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

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
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

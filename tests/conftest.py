"""Session-wide fixtures shared by all test packages."""

from __future__ import annotations

import pytest

from repro.core.ontology import ROOT, TopicTree
from repro.storage import Database, Relation
from repro.storage.schema import page_rows
from repro.web import SyntheticWeb, WebGraphConfig


def named_rows(relation: Relation) -> list[dict]:
    """A relation's ``rows()``, each as a dict keyed by column name.

    The store hands out tuples in column order and never reads them
    back; tests that check stored rows read them through this.
    """
    columns = relation.schema.column_names
    return [dict(zip(columns, row)) for row in relation.rows()]


def crawl_store(ctx) -> Database:
    """A crawl's whole store, as a dump writes it, in a fresh validating
    database: the loader's rows, and the page relations built from the
    stored pages (:func:`~repro.storage.schema.page_rows`), key- and
    type-checked on the way in."""
    database = Database()
    pages = page_rows(ctx.documents, ctx.anchor_terms)
    for name, relation in database.relations.items():
        relation.bulk_insert(
            pages[name] if name in pages
            else ctx.loader.database[name].rows()
        )
    return database


def nested_tree(nested: dict) -> TopicTree:
    """A topic tree from nested dicts, e.g. ``{"math": {"algebra": {}}}``,
    built the way readers build one: ``add_topic`` under each parent."""
    tree = TopicTree()

    def add(parent: str, mapping: dict) -> None:
        for label, sub in mapping.items():
            add(tree.add_topic(label, parent=parent), sub)

    add(ROOT, nested)
    return tree


def small_web_config(seed: int = 7, **overrides) -> WebGraphConfig:
    defaults = dict(
        seed=seed,
        target_researchers=40,
        other_researchers=12,
        universities=10,
        hubs_per_topic=3,
        background_hosts_per_category=3,
        pages_per_background_host=3,
        directory_pages_per_category=4,
    )
    defaults.update(overrides)
    return WebGraphConfig(**defaults)


@pytest.fixture(scope="session")
def small_web() -> SyntheticWeb:
    return SyntheticWeb.generate(small_web_config())


@pytest.fixture(scope="session")
def small_expert_web() -> SyntheticWeb:
    return SyntheticWeb.generate_expert(seed=7)

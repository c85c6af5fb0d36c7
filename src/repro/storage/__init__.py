"""Embedded storage substrate (the paper's Oracle9i role).

BINGO! stores every crawled document, its terms, links and bookkeeping in
a relational database.  Section 4.1 of the paper reports two hard-won
lessons which this substrate bakes in:

1. **flat relations beat nested tables** -- the schema is a set of flat
   relations (no nested collections), mirroring the paper's redesign to
   "a schema with 24 flat relations"; here it holds the six the crawl
   writes, each row one tuple in column order;
2. **bulk loading beats per-row inserts** -- crawler threads collect rows
   in private workspaces and flush them in batches through the
   :class:`~repro.storage.bulkloader.BulkLoader`, which is how the paper's
   crawler sustained ~10k documents/minute; the crawl's fetch log
   enters the store that way.

The store only appends and dumps: relations take batches and keyed
upserts, and :func:`dump_database` is their one reader.  The page
relations are a view of the crawl's stored pages, built in doc-id order
(:func:`~repro.storage.schema.page_rows`) when a full dump writes them;
a checkpoint saves the pages themselves.
"""

from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database, Relation
from repro.storage.persistence import dump_database, load_database
from repro.storage.schema import BINGO_SCHEMA, Column, RelationSchema

__all__ = [
    "BINGO_SCHEMA",
    "BulkLoader",
    "Column",
    "Database",
    "Relation",
    "RelationSchema",
    "dump_database",
    "load_database",
]

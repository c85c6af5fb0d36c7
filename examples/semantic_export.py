"""Semantic XML export and ranked XML retrieval (paper section 6).

The paper's outlook: generate "semantically tagged XML documents from
the HTML pages that BINGO! crawls" and incorporate "ranked retrieval of
XML data" into the postprocessing.  This example crawls a small Web,
exports the result as tagged XML, and runs XXL-style path+similarity
queries over it.

Run with::

    python examples/semantic_export.py
"""

from __future__ import annotations

import tempfile

from repro.core import BingoConfig, BingoEngine
from repro.semantic import XmlExporter, parse_query
from repro.web import SyntheticWeb, WebGraphConfig


def main() -> None:
    web = SyntheticWeb.generate(
        WebGraphConfig(
            seed=7, target_researchers=60, other_researchers=20,
            universities=15, hubs_per_topic=3,
            background_hosts_per_category=4, pages_per_background_host=3,
            directory_pages_per_category=4,
        )
    )
    engine = BingoEngine.for_portal(
        web,
        config=BingoConfig(learning_fetch_budget=120, negative_examples=20),
    )
    engine.run(harvesting_fetch_budget=400)

    exporter = XmlExporter(engine.ctx.documents)
    collection = exporter.to_element(topics=["ROOT/databases"])
    print(
        f"exported {collection.get('documents')} database documents "
        "as tagged XML"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = exporter.write(f"{tmp}/crawl.xml", topics=["ROOT/databases"])
        print(f"written to {path} ({path.stat().st_size} bytes)")

    queries = [
        'crawl/document/classification/topic[@path="ROOT/databases"]',
        'crawl//term[@stem="recoveri"]',
        'crawl/document/terms[~"query transaction recovery"]',
    ]
    for text in queries:
        matches = parse_query(text).run(collection, top_k=3)
        print(f"\nquery: {text}")
        for match in matches:
            element = match.element
            url = None
            for document in collection.iter("document"):
                if document.get("id") == match.document_id:
                    url = document.get("url")
                    break
            print(
                f"  score {match.score:6.3f}  <{element.tag}> "
                f"in doc {match.document_id} ({url})"
            )


if __name__ == "__main__":
    main()

"""Link analysis: HITS and Bharat/Henzinger topic distillation.

Upon each retraining BINGO! applies "the method of [4], a variation of
Kleinberg's HITS algorithm, to each topic of the directory" (paper
section 2.5): top authorities become archetype candidates, top hubs seed
the high-priority end of the crawl frontier.
"""

from repro.analysis.graph import LinkGraph
from repro.analysis.hits import HitsResult, hits
from repro.analysis.distillation import bharat_henzinger

__all__ = [
    "HitsResult",
    "LinkGraph",
    "bharat_henzinger",
    "hits",
]

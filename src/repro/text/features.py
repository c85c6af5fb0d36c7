"""Feature-space construction (paper section 3.4).

Beyond plain single-term tf*idf vectors, BINGO! builds richer feature
spaces and lets the classifier treat them uniformly:

* :class:`TermSpace` -- the baseline bag of stemmed terms;
* :class:`TermPairSpace` -- co-occurring term pairs within a sliding
  window (bounded word distance keeps extraction cheap);
* :class:`AnchorTextSpace` -- stemmed anchor texts of *incoming* links,
  under extended stopword elimination;
* :class:`CombinedSpace` -- concatenation of any of the above, with a
  per-space namespace prefix so features never collide.

Every space maps an :class:`AnalyzedDocument` to a term multiset (a
``Counter``); the vectorizer then applies tf*idf.  "The classifier ...
does not have to know how feature vectors are constructed."

:func:`space_counts` is the one place a scanned page meets the
configured spaces (:func:`analyze_page` puts the scan in front of it);
crawl, engine, recrawl and experiments all build their counts here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from repro.text.scanner import ScannedPage, scan_html

__all__ = [
    "AnalyzedDocument",
    "TERM_SPACES",
    "analyze_page",
    "needs_ordered_stems",
    "space_counts",
    "FeatureSpace",
    "TermSpace",
    "TermPairSpace",
    "AnchorTextSpace",
    "CombinedSpace",
]


@dataclass
class AnalyzedDocument:
    """Everything the feature spaces may draw on for one document.

    ``stems`` are the body terms in document order.
    ``incoming_anchor_terms`` are stemmed anchor-text terms from pages that
    link *to* this document; they are optional -- a freshly crawled page
    may have none until the link database fills in.
    """

    stems: Sequence[str]
    incoming_anchor_terms: Sequence[str] = ()


class FeatureSpace:
    """Base class: extract a feature multiset from an analyzed document."""

    #: short identifier used as a namespace prefix in combined spaces
    name: str = "base"

    def extract(self, document: AnalyzedDocument) -> Counter[str]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class TermSpace(FeatureSpace):
    """Plain bag of stemmed terms."""

    name = "term"

    def extract(self, document: AnalyzedDocument) -> Counter[str]:
        return Counter(document.stems)


class TermPairSpace(FeatureSpace):
    """Term pairs within a sliding window of ``window`` token positions.

    Pairs are order-normalised (alphabetically) so "data mining" and
    "mining data" produce the same feature.  Extraction cost is
    O(n * window), matching the paper's justification for the window.
    """

    name = "pair"

    def __init__(self, window: int = 5) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window

    def extract(self, document: AnalyzedDocument) -> Counter[str]:
        stems = document.stems
        pairs: Counter[str] = Counter()
        for i, left in enumerate(stems):
            for right in stems[i + 1 : i + 1 + self.window]:
                if left == right:
                    continue
                a, b = sorted((left, right))
                pairs[f"{a}~{b}"] += 1
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TermPairSpace(window={self.window})"


class AnchorTextSpace(FeatureSpace):
    """Anchor texts of incoming hyperlinks (already extended-stopworded)."""

    name = "anchor"

    def extract(self, document: AnalyzedDocument) -> Counter[str]:
        return Counter(document.incoming_anchor_terms)


class CombinedSpace(FeatureSpace):
    """Concatenate several spaces; features are prefixed per space.

    A combined vector can hold "single-term frequencies, term-pair
    frequencies, and anchor terms of predecessors as components".
    """

    name = "combined"

    def __init__(self, spaces: Iterable[FeatureSpace]) -> None:
        self.spaces = list(spaces)
        if not self.spaces:
            raise ValueError("CombinedSpace requires at least one space")

    def extract(self, document: AnalyzedDocument) -> Counter[str]:
        combined: Counter[str] = Counter()
        for space in self.spaces:
            for feature, count in space.extract(document).items():
                combined[f"{space.name}:{feature}"] += count
        return combined

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(space) for space in self.spaces)
        return f"CombinedSpace([{inner}])"


#: the default configuration: the plain bag of stemmed terms
TERM_SPACES: Mapping[str, FeatureSpace] = MappingProxyType(
    {"term": TermSpace()}
)


def needs_ordered_stems(spaces: Iterable[FeatureSpace]) -> bool:
    """Whether a scan must keep its ordered token stream: a plain
    :class:`TermSpace` is exactly the scanner's ``stem_counts`` bag."""
    return any(type(space) is not TermSpace for space in spaces)


def space_counts(
    page: ScannedPage,
    spaces: Mapping[str, FeatureSpace],
    incoming_anchor_terms: Sequence[str] = (),
) -> dict[str, Counter[str]]:
    """Per-space term multisets of one scanned page (scanned with
    ``with_tokens=needs_ordered_stems(spaces.values())``)."""
    analyzed: AnalyzedDocument | None = None
    counts: dict[str, Counter[str]] = {}
    for name, space in spaces.items():
        if type(space) is TermSpace:
            counts[name] = Counter(page.stem_counts)
        else:
            if analyzed is None:
                analyzed = AnalyzedDocument(
                    page.stems, incoming_anchor_terms
                )
            counts[name] = space.extract(analyzed)
    return counts


def analyze_page(
    html: str,
    spaces: Mapping[str, FeatureSpace] = TERM_SPACES,
    incoming_anchor_terms: Sequence[str] = (),
) -> tuple[dict[str, Counter[str]], ScannedPage]:
    """Scan an HTML page once: its per-space counts and the scanned
    page (title, links, anchor terms) they were built from."""
    page = scan_html(
        html,
        with_tokens=needs_ordered_stems(spaces.values()),
        with_text=False,
    )
    return space_counts(page, spaces, incoming_anchor_terms), page

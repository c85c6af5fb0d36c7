"""XXL-style ranked retrieval over tagged XML (paper reference [21]).

Queries combine a *path pattern* with boolean attribute predicates and a
``~`` *similarity operator* whose matches are scored rather than
filtered -- the core idea of "Adding relevance to XML":

    document/terms/term[~"recovery algorithm"]
    document//term[@stem="recoveri"]
    document/classification/topic[@path="ROOT/databases"][~"database"]

Grammar (one step per ``/``; ``//`` descends any depth)::

    query     := step ("/" step | "//" step)*
    step      := tag predicate*
    tag       := NAME | "*"
    predicate := "[@" NAME "=" '"' value '"' "]"
               | "[~" '"' text '"' "]"

Evaluation returns one :class:`QueryMatch` per element matched by the
path whose boolean predicates hold; the score is the product of the
similarity predicates' scores along the way (1.0 when there are none),
so results are *ranked*, not just filtered.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from xml.etree import ElementTree as ET

from repro.errors import SearchError
from repro.text.scanner import text_stems

__all__ = ["PathStep", "XmlQuery", "QueryMatch", "parse_query"]

_STEP_RE = re.compile(r"^(?P<tag>\*|[A-Za-z_][\w.-]*)(?P<preds>(\[[^\]]*\])*)$")
_PRED_RE = re.compile(
    r"\[(?:@(?P<attr>[\w.-]+)\s*=\s*\"(?P<value>[^\"]*)\""
    r"|~\s*\"(?P<similar>[^\"]*)\")\]"
)


@dataclass(frozen=True)
class PathStep:
    """One step of the path pattern."""

    tag: str
    descend: bool = False
    """True when reached via ``//`` (any-depth descent)."""
    attribute_filters: tuple[tuple[str, str], ...] = ()
    similarity: str | None = None

    def matches_tag(self, element: ET.Element) -> bool:
        return self.tag == "*" or element.tag == self.tag

    def passes_filters(self, element: ET.Element) -> bool:
        return all(
            element.get(name) == value
            for name, value in self.attribute_filters
        )


@dataclass(frozen=True)
class QueryMatch:
    """One ranked result: the matched element and its relevance score."""

    element: ET.Element
    score: float
    document_id: str | None = None


def parse_query(text: str) -> "XmlQuery":
    """Parse the textual query syntax into an :class:`XmlQuery`."""
    text = text.strip()
    if not text:
        raise SearchError("empty XML query")
    # tokenise into (descend?, step) pairs
    steps: list[PathStep] = []
    remaining = text
    descend = False
    while remaining:
        if remaining.startswith("//"):
            descend = True
            remaining = remaining[2:]
        elif remaining.startswith("/"):
            descend = False
            remaining = remaining[1:]
        cut = _find_step_end(remaining)
        raw, remaining = remaining[:cut], remaining[cut:]
        match = _STEP_RE.match(raw)
        if match is None:
            raise SearchError(f"malformed query step {raw!r}")
        attribute_filters: list[tuple[str, str]] = []
        similarity = None
        for predicate in _PRED_RE.finditer(match.group("preds") or ""):
            if predicate.group("attr") is not None:
                attribute_filters.append(
                    (predicate.group("attr"), predicate.group("value"))
                )
            else:
                similarity = predicate.group("similar")
        steps.append(
            PathStep(
                tag=match.group("tag"),
                descend=descend if steps else False,
                attribute_filters=tuple(attribute_filters),
                similarity=similarity,
            )
        )
        descend = False
    return XmlQuery(steps=tuple(steps))


def _find_step_end(text: str) -> int:
    """Index where the current step's text ends (next unbracketed '/')."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "/" and depth == 0:
            return i
    return len(text)


def _element_text_weights(element: ET.Element) -> dict[str, float]:
    """A term-weight view of an element for similarity scoring.

    ``<term>`` elements contribute their ``stem``/``weight`` attributes;
    other elements contribute their (stemmed) text and attribute values.
    """
    weights: dict[str, float] = {}
    if element.tag == "term" and element.get("stem"):
        weights[element.get("stem", "")] = float(
            element.get("weight", "1") or 1.0
        )
        return weights
    pieces = [element.text or ""]
    pieces.extend(
        value for name, value in element.attrib.items() if name != "href"
    )
    for child in element.iter():
        if child is element:
            continue
        if child.tag == "term" and child.get("stem"):
            stem = child.get("stem", "")
            weights[stem] = weights.get(stem, 0.0) + float(
                child.get("weight", "1") or 1.0
            )
        elif child.text:
            pieces.append(child.text)
    for stem in text_stems(" ".join(pieces)):
        weights[stem] = weights.get(stem, 0.0) + 1.0
    return weights


def _similarity(query_text: str, element: ET.Element) -> float:
    """Cosine between the query's stems and the element's term view."""
    query_stems = text_stems(query_text)
    if not query_stems:
        return 0.0
    weights = _element_text_weights(element)
    if not weights:
        return 0.0
    dot = sum(weights.get(stem, 0.0) for stem in query_stems)
    norm_q = math.sqrt(len(query_stems))
    norm_e = math.sqrt(sum(w * w for w in weights.values()))
    if norm_q == 0 or norm_e == 0:
        return 0.0
    return dot / (norm_q * norm_e)


@dataclass(frozen=True)
class XmlQuery:
    """A parsed path query; evaluate with :meth:`run`."""

    steps: tuple[PathStep, ...] = field(default_factory=tuple)

    def run(self, root: ET.Element, top_k: int = 10) -> list[QueryMatch]:
        """Ranked matches of the query under ``root``.

        Elements reached by the path whose boolean predicates all hold
        are scored by the product of the ``~`` similarities encountered
        along the path; zero-scored similarity matches are dropped.
        """
        if not self.steps:
            raise SearchError("query has no steps")
        # states: (element, accumulated score)
        states: list[tuple[ET.Element, float]] = []
        first = self.steps[0]
        root_matches_first = first.tag == "*" or root.tag == first.tag
        # anchor at the root when it matches the first step; otherwise
        # search the whole tree for the entry tag
        candidates = [root] if root_matches_first else list(root.iter())
        for element in candidates:
            state = _step_match(first, element)
            if state is not None:
                states.append(state)
        for step in self.steps[1:]:
            next_states: list[tuple[ET.Element, float]] = []
            for element, score in states:
                pool = element.iter() if step.descend else list(element)
                for child in pool:
                    if step.descend and child is element:
                        continue
                    outcome = _step_match(step, child)
                    if outcome is not None:
                        next_states.append((outcome[0], score * outcome[1]))
            states = next_states
        has_similarity = any(s.similarity for s in self.steps)
        matches = [
            QueryMatch(
                element=element,
                score=score,
                document_id=_owning_document_id(root, element),
            )
            for element, score in states
            if not has_similarity or score > 0.0
        ]
        matches.sort(key=lambda m: -m.score)
        return matches[:top_k]


def _step_match(
    step: PathStep, element: ET.Element
) -> tuple[ET.Element, float] | None:
    if not step.matches_tag(element):
        return None
    if not step.passes_filters(element):
        return None
    score = 1.0
    if step.similarity is not None:
        score = _similarity(step.similarity, element)
    return element, score


def _owning_document_id(root: ET.Element, element: ET.Element) -> str | None:
    """The id of the <document> record containing ``element`` (linear
    scan; collections are small)."""
    for document in root.iter("document"):
        if element is document:
            return document.get("id")
        for child in document.iter():
            if child is element:
                return document.get("id")
    return None

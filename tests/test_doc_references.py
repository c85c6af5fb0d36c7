"""Every file and symbol the prose documents cite in backticks exists.

A backticked ``src/…``, ``tests/…`` or ``benchmarks/…`` path in
DESIGN.md, README.md or ROADMAP.md must name a file or directory of
the repo (a glob must match one, ``{a,b}`` expands to each), each
``::name`` after a path must be defined in that file, and each
``repro.…:qualname`` must import and resolve.  A ``path:line`` is
checked for its path only; text holding a placeholder (``<rule>``,
``…``) is not a reference.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md", "ROADMAP.md")

_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"(?:src|tests|benchmarks)/\S*")
_SYMBOL = re.compile(r"((?:repro|tests|benchmarks)(?:\.\w+)*):([\w.<>]+)")
_BRACES = re.compile(r"\{([^{}]*)\}")


def expand(pattern: str) -> list[str]:
    """``tests/{core,text}/x.py`` -> one pattern per alternative."""
    match = _BRACES.search(pattern)
    if match is None:
        return [pattern]
    return [
        expanded
        for choice in match.group(1).split(",")
        for expanded in expand(
            pattern[:match.start()] + choice + pattern[match.end():]
        )
    ]


def references() -> list[tuple[str, str]]:
    """``(doc, span)`` for every backticked path or symbol reference."""
    found = []
    for doc in DOCS:
        for span in _SPAN.findall((ROOT / doc).read_text()):
            if "<" in span.partition(":")[0] or "…" in span:
                continue
            if _PATH.match(span) or _SYMBOL.fullmatch(span):
                found.append((doc, span))
    return found


def defines(path: Path, name: str) -> bool:
    pattern = rf"^\s*(?:(?:async\s+)?def|class)\s+{name}\b|^{name}\s*[:=]"
    return re.search(pattern, path.read_text(), re.M) is not None


def missing(span: str) -> list[str]:
    """What ``span`` cites that the tree lacks (empty when it all
    resolves)."""
    symbol = _SYMBOL.fullmatch(span)
    if symbol is not None:
        module, qualname = symbol.groups()
        try:
            target = importlib.import_module(module)
            for part in qualname.split("."):
                if part == "<locals>":
                    break
                target = getattr(target, part)
        except (ImportError, AttributeError):
            return [span]
        return []
    path, *names = span.split()[0].split("::")
    path = re.sub(r":\d+(?:-\d+)?$", "", path)
    gone = []
    for pattern in expand(path):
        matches = sorted(ROOT.glob(pattern.rstrip("/")))
        if not matches:
            gone.append(pattern)
        for name in names:
            name = name.partition("[")[0]
            if not any(
                match.is_file() and defines(match, name) for match in matches
            ):
                gone.append(f"{pattern}::{name}")
    return gone


def test_the_documents_cite_paths_and_symbols() -> None:
    cited = [span for _doc, span in references()]
    assert "benchmarks/readers.py" in cited
    assert any(span.startswith("tests/test_package.py::") for span in cited)


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_path_and_symbol_exists(doc: str) -> None:
    stale = [
        gone
        for where, span in references()
        if where == doc
        for gone in missing(span)
    ]
    assert stale == [], f"{doc} cites what the tree lacks: {stale}"


def test_placeholders_and_expansions() -> None:
    assert expand("tests/{a,b}/x.py") == ["tests/a/x.py", "tests/b/x.py"]
    assert missing("tests/{core,analysis,text}/reference.py") == []
    assert missing("benchmarks/results/*.txt") == []
    assert missing("src/repro/cli.py:304") == []
    assert missing("tests/test_reach_audit.py::KEPT") == []
    assert missing("repro.search.engine:LocalSearchEngine.search") == []
    assert missing("repro.search.engine:LocalSearchEngine.gone")
    assert missing("tests/no_such_file.py")
    assert missing("tests/test_reach_audit.py::NO_SUCH_NAME")

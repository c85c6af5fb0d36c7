"""URL utilities used by both the synthetic Web and the crawler.

The paper's crawl management (section 4.2) imposes RFC-derived limits --
hostnames at most 255 characters (RFC 1738), URLs at most 1000 characters
-- and recognises duplicates first by a *hash code* of the URL string
("with a small risk of falsely dismissing a new document").  These
helpers implement parsing, normalisation, relative resolution and the
hash used for first-stage duplicate elimination.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass

__all__ = [
    "MAX_HOSTNAME_LENGTH",
    "MAX_URL_LENGTH",
    "ParsedUrl",
    "parse_url",
    "normalize_parsed",
    "normalize_url",
    "join_parsed",
    "url_hash",
    "crawlable_parse",
    "resolve_links",
]

MAX_HOSTNAME_LENGTH = 255
MAX_URL_LENGTH = 1000


@dataclass(frozen=True)
class ParsedUrl:
    """Scheme/host/path decomposition of an absolute URL."""

    scheme: str
    host: str
    path: str

    @property
    def url(self) -> str:
        return f"{self.scheme}://{self.host}{self.path}"

    @property
    def domain(self) -> str:
        """The registrable domain: last two labels of the hostname."""
        labels = self.host.split(".")
        if len(labels) <= 2:
            return self.host
        return ".".join(labels[-2:])


def parse_url(url: str) -> ParsedUrl | None:
    """Parse an absolute http(s) URL; return None if it is not one."""
    lowered = url.strip()
    scheme_sep = lowered.find("://")
    if scheme_sep < 0:
        return None
    scheme = lowered[:scheme_sep].lower()
    if scheme not in ("http", "https"):
        return None
    rest = lowered[scheme_sep + 3 :]
    # the host ends at the path, the query or the fragment
    end = len(rest)
    for separator in "/?#":
        found = rest.find(separator, 0, end)
        if found >= 0:
            end = found
    host, path = rest[:end], rest[end:]
    if not path.startswith("/"):
        path = "/" + path
    host = host.lower().rstrip(".")
    if not host:
        return None
    return ParsedUrl(scheme=scheme, host=host, path=path)


def normalize_parsed(url: str) -> ParsedUrl | None:
    """The parse of :func:`normalize_url`'s result, built without
    re-parsing it: its ``url`` is that string."""
    parsed = parse_url(url)
    if parsed is None:
        return None
    # Collapse '.' and '..' path segments; drop fragments.
    path = parsed.path.split("#", 1)[0]
    while True:
        segments: list[str] = []
        for segment in path.split("/"):
            if segment == "." or segment == "":
                continue
            if segment == "..":
                if segments:
                    segments.pop()
                continue
            segments.append(segment)
        trailing = "/" if path.endswith("/") and segments else ""
        new_path = "/" + "/".join(segments) + trailing if segments else "/"
        # parse_url strips a URL's trailing whitespace, which a dropped
        # fragment or dot segment can leave at the path's end: strip it
        # and collapse again, so the result parses as itself
        path = new_path.rstrip()
        if path == new_path:
            return ParsedUrl(parsed.scheme, parsed.host, new_path)


def normalize_url(url: str) -> str | None:
    """Canonical string form (lowercased scheme/host, '/' path default)."""
    parsed = normalize_parsed(url)
    return None if parsed is None else parsed.url


def join_parsed(base: str, href: str) -> ParsedUrl | None:
    """Resolve ``href`` (absolute or relative) against ``base``: the
    normalized parse of the target."""
    if "://" in href:
        return normalize_parsed(href)
    parsed = parse_url(base)
    if parsed is None:
        return None
    if href.startswith("//"):
        return normalize_parsed(f"{parsed.scheme}:{href}")
    if href.startswith("/"):
        return normalize_parsed(f"{parsed.scheme}://{parsed.host}{href}")
    directory = parsed.path[: parsed.path.rfind("/") + 1]
    return normalize_parsed(
        f"{parsed.scheme}://{parsed.host}{directory}{href}"
    )


def url_hash(url: str) -> int:
    """64-bit stable hash of a URL string (stage-1 duplicate fingerprint).

    The paper compares "the hashcode representation of the visited URL";
    we use the top 8 bytes of SHA-1 so runs are stable across processes
    (Python's builtin ``hash`` is salted per process).
    """
    digest = hashlib.sha1(url.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def crawlable_parse(url: str) -> ParsedUrl | None:
    """The parse of ``url`` if it passes the paper's sanity limits
    (parseable, URL <= 1000, host <= 255), else None: the one parse a
    popped URL gets."""
    if len(url) > MAX_URL_LENGTH:
        return None
    parsed = parse_url(url)
    if parsed is None or len(parsed.host) > MAX_HOSTNAME_LENGTH:
        return None
    return parsed


def resolve_links(base: str, hrefs: Iterable[str]) -> list[ParsedUrl]:
    """The crawlable absolute targets of a page's raw hrefs, normalized
    and parsed, in document order (duplicates preserved); a target's
    URL is its ``url``.  The sanity limits of :func:`crawlable_parse`
    are checked on the normalized parse itself."""
    resolved = []
    for href in hrefs:
        target = join_parsed(base, href)
        if (
            target is not None
            and len(target.host) <= MAX_HOSTNAME_LENGTH
            and len(target.url) <= MAX_URL_LENGTH
        ):
            resolved.append(target)
    return resolved

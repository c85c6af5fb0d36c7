"""A URL is parsed once: its parse decides.

``resolve_links`` returns each target's normalized parse
(``join_parsed`` / ``normalize_parsed``) instead of the string
``normalize_url`` makes,
checks the crawl's sanity limits on that parse, and the expand stage
reads the host and registrable domain from it.  A URL popped off the
frontier is screened by ``crawlable_parse``, whose parse the admit
stage reads its host and domain from.  Each must decide as parsing the
string again would, over arbitrary strings.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web.urls import (
    MAX_HOSTNAME_LENGTH,
    MAX_URL_LENGTH,
    crawlable_parse,
    normalize_parsed,
    normalize_url,
    parse_url,
    resolve_links,
)

pieces = st.sampled_from([
    "http://", "HTTPS://", "ftp://", "//", "/", "./", "../", ".", "..",
    "#", "?", "a", "B", "é", "İ", "ß", " ", "\t", "\x1c", ".", "x.y.z",
    "Host.EXAMPLE.", "~u", "p.html", "=", "&",
])
#: strings that look like URLs often enough to reach every branch
url_like = st.one_of(
    st.text(max_size=30),
    st.lists(pieces, max_size=12).map("".join),
)
long_host = st.integers(250, 260).map(lambda n: f"http://{'h' * n}/p")
long_path = st.integers(990, 1005).map(lambda n: f"http://h.example/{'p' * n}")
hrefs = st.lists(st.one_of(url_like, long_host, long_path), max_size=6)
bases = st.one_of(
    url_like, st.just("http://Www.Example.com/a/b/c.html"), long_host
)


def is_crawlable_url_reference(url: str) -> bool:
    """The two-parse screen: the limits first, then a separate parse
    for the host and domain."""
    if len(url) > MAX_URL_LENGTH:
        return False
    parsed = parse_url(url)
    if parsed is None:
        return False
    return len(parsed.host) <= MAX_HOSTNAME_LENGTH


def join_url_reference(base: str, href: str) -> str | None:
    """The string join: each step normalizes to a string."""
    if "://" in href:
        return normalize_url(href)
    parsed = parse_url(base)
    if parsed is None:
        return None
    if href.startswith("//"):
        return normalize_url(f"{parsed.scheme}:{href}")
    if href.startswith("/"):
        return normalize_url(f"{parsed.scheme}://{parsed.host}{href}")
    directory = parsed.path[: parsed.path.rfind("/") + 1]
    return normalize_url(f"{parsed.scheme}://{parsed.host}{directory}{href}")


def resolve_links_reference(base: str, hrefs) -> list[str]:
    """Join, normalize, then parse the string again for the limits."""
    resolved = []
    for href in hrefs:
        absolute = join_url_reference(base, href)
        if absolute is not None and is_crawlable_url_reference(absolute):
            resolved.append(absolute)
    return resolved


@given(url=st.one_of(url_like, long_host, long_path))
@settings(max_examples=500, deadline=None)
def test_the_normalized_parse_is_the_parse_of_the_normal_form(url) -> None:
    parsed = normalize_parsed(url)
    normal = normalize_url(url)
    if parsed is None:
        assert normal is None
        return
    assert parsed.url == normal
    again = parse_url(normal)
    assert again is not None
    assert (again.scheme, again.host) == (parsed.scheme, parsed.host)
    assert again.domain == parsed.domain


@given(base=bases, hrefs=hrefs)
@settings(max_examples=500, deadline=None)
def test_links_admit_and_lock_as_the_reparse_does(base, hrefs) -> None:
    links = resolve_links(base, hrefs)
    oracle = resolve_links_reference(base, hrefs)
    assert [link.url for link in links] == oracle
    for link, url in zip(links, oracle):
        again = parse_url(url)
        # the expand stage's host (breaker priority) and locked /
        # allowed-domain decisions
        assert (link.host, link.domain) == (again.host, again.domain)
        # the admit stage's screen, when the link comes off the frontier
        assert crawlable_parse(link.url) is not None
        assert len(link.host) <= MAX_HOSTNAME_LENGTH
        assert len(link.url) <= MAX_URL_LENGTH


@given(url=st.one_of(url_like, long_host, long_path))
@settings(max_examples=500, deadline=None)
def test_a_popped_url_admits_as_the_reparse_does(url) -> None:
    parsed = crawlable_parse(url)
    assert (parsed is not None) == is_crawlable_url_reference(url)
    if parsed is not None:
        # the admit stage's host (breaker, politeness) and domain (lock,
        # politeness) come from this parse, not a second one
        assert parsed == parse_url(url)


def test_the_limits_are_checked_on_the_normal_form() -> None:
    base = "http://h.example/a/"
    host = "h" * (MAX_HOSTNAME_LENGTH + 1)
    assert resolve_links(base, [f"http://{host}/"]) == []
    # 255 characters of host pass; a trailing dot is not part of it
    ok = "h" * MAX_HOSTNAME_LENGTH
    links = resolve_links(base, [f"http://{ok}./"])
    assert [link.host for link in links] == [ok]
    # '..' segments collapse before the length is measured
    long = "x/../" * 200 + "p"
    assert len(f"{base}{long}") > MAX_URL_LENGTH
    assert [link.url for link in resolve_links(base, [long])] == [
        "http://h.example/a/p"
    ]

"""Tests for URL parsing, normalisation and the crawl sanity limits."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.web.urls import (
    MAX_URL_LENGTH,
    is_crawlable_url,
    join_parsed,
    normalize_url,
    parse_url,
    url_hash,
)


def join_url(base: str, href: str) -> str | None:
    """The joined target's URL."""
    parsed = join_parsed(base, href)
    return None if parsed is None else parsed.url


class TestParseUrl:
    def test_basic(self) -> None:
        p = parse_url("http://www.example.com/a/b.html")
        assert p is not None
        assert p.scheme == "http"
        assert p.host == "www.example.com"
        assert p.path == "/a/b.html"
        assert p.url == "http://www.example.com/a/b.html"

    def test_missing_path_defaults_to_root(self) -> None:
        p = parse_url("http://example.com")
        assert p is not None
        assert p.path == "/"

    def test_non_http_scheme_rejected(self) -> None:
        assert parse_url("ftp://example.com/x") is None
        assert parse_url("mailto:joe@example.com") is None

    def test_relative_is_not_absolute(self) -> None:
        assert parse_url("/just/a/path") is None
        assert parse_url("page.html") is None

    def test_host_lowercased(self) -> None:
        p = parse_url("HTTP://WWW.Example.COM/Path")
        assert p is not None
        assert p.host == "www.example.com"
        assert p.path == "/Path"  # paths stay case-sensitive

    def test_host_ends_at_query_or_fragment(self) -> None:
        for url, path in (
            ("http://a.com#x", "/#x"),
            ("http://a.com?q=1#3", "/?q=1#3"),
            ("http://a.com?x=/y", "/?x=/y"),
            ("http://a.com/p?q#f", "/p?q#f"),
        ):
            p = parse_url(url)
            assert p is not None
            assert (p.host, p.path) == ("a.com", path), url

    def test_fragment_or_query_alone_is_no_host(self) -> None:
        assert parse_url("http://#x") is None
        assert parse_url("http://?q=1") is None

    def test_domain(self) -> None:
        assert parse_url("http://a.b.example.com/").domain == "example.com"
        assert parse_url("http://example.com/").domain == "example.com"

    def test_directory(self) -> None:
        # a relative link resolves against the page's directory
        assert join_url("http://h/a/b/c.html", "d.html") == (
            "http://h/a/b/d.html"
        )
        assert join_url("http://h/", "d.html") == "http://h/d.html"


class TestNormalize:
    def test_dot_segments_collapsed(self) -> None:
        assert (
            normalize_url("http://h/a/./b/../c.html") == "http://h/a/c.html"
        )

    def test_fragment_dropped(self) -> None:
        assert normalize_url("http://h/a.html#sec2") == "http://h/a.html"

    def test_fragment_after_the_host_dropped(self) -> None:
        assert normalize_url("http://a.com#x") == "http://a.com/"
        assert normalize_url("http://a.com?q=1#3") == "http://a.com/?q=1"
        assert is_crawlable_url("http://a.com#x")

    def test_parent_of_root_clamped(self) -> None:
        assert normalize_url("http://h/../../x") == "http://h/x"

    def test_trailing_slash_preserved(self) -> None:
        assert normalize_url("http://h/a/b/") == "http://h/a/b/"

    def test_invalid_returns_none(self) -> None:
        assert normalize_url("not a url") is None


class TestJoin:
    def test_absolute_href_wins(self) -> None:
        assert (
            join_url("http://a/x.html", "http://b/y.html") == "http://b/y.html"
        )

    def test_root_relative(self) -> None:
        assert join_url("http://a/d/x.html", "/y.html") == "http://a/y.html"

    def test_document_relative(self) -> None:
        assert join_url("http://a/d/x.html", "y.html") == "http://a/d/y.html"

    def test_dotdot_relative(self) -> None:
        assert join_url("http://a/d/e/x.html", "../y.html") == "http://a/d/y.html"

    def test_protocol_relative(self) -> None:
        assert join_url("https://a/x", "//b/y") == "https://b/y"

    def test_invalid_base(self) -> None:
        assert join_url("garbage", "y.html") is None


class TestHashAndLimits:
    def test_url_hash_stable_and_64bit(self) -> None:
        h = url_hash("http://example.com/x")
        assert h == url_hash("http://example.com/x")
        assert 0 <= h < 2**64

    def test_url_hash_differs_for_different_urls(self) -> None:
        assert url_hash("http://a/") != url_hash("http://b/")

    def test_overlong_url_not_crawlable(self) -> None:
        url = "http://h/" + "a" * MAX_URL_LENGTH
        assert not is_crawlable_url(url)

    def test_overlong_hostname_not_crawlable(self) -> None:
        url = "http://" + "h" * 300 + ".com/"
        assert not is_crawlable_url(url)

    def test_normal_url_crawlable(self) -> None:
        assert is_crawlable_url("http://example.com/a/b.html")

    def test_garbage_not_crawlable(self) -> None:
        assert not is_crawlable_url("javascript:void(0)")


@given(st.text(max_size=50))
def test_parse_never_crashes(text: str) -> None:
    parse_url(text)
    normalize_url(text)
    is_crawlable_url(text)


@given(st.from_regex(r"http://[a-z]{1,10}\.com(/[a-z0-9]{0,8}){0,4}/?", fullmatch=True))
def test_normalize_idempotent(url: str) -> None:
    once = normalize_url(url)
    assert once is not None
    assert normalize_url(once) == once


@given(st.from_regex(r"(?i)https?://[a-z0-9.#?/=]{0,24}", fullmatch=True))
def test_no_normalized_url_holds_a_fragment(text: str) -> None:
    normalized = normalize_url(text)
    assert normalized is None or "#" not in normalized

"""Tests for three-stage duplicate detection."""

from __future__ import annotations

from repro.core.dedup import DuplicateDetector


class TestStage1UrlHash:
    def test_first_sighting_is_new(self) -> None:
        detector = DuplicateDetector()
        assert not detector.is_known_url("http://a/x")
        assert detector.is_known_url("http://a/x")
        assert detector.stats.url_hash_hits == 1

    def test_distinct_urls_pass(self) -> None:
        detector = DuplicateDetector()
        assert not detector.is_known_url("http://a/x")
        assert not detector.is_known_url("http://a/y")
        assert detector.stats.url_hash_hits == 0


class TestStage2IpPath:
    def test_same_path_on_host_alias_detected(self) -> None:
        """Two hostnames resolving to one IP serving the same path."""
        detector = DuplicateDetector()
        assert not detector.is_known_ip_path("10.0.0.1", "http://www.a.com/p")
        assert detector.is_known_ip_path("10.0.0.1", "http://a.com/p")
        assert detector.stats.ip_path_hits == 1

    def test_different_paths_pass(self) -> None:
        detector = DuplicateDetector()
        assert not detector.is_known_ip_path("10.0.0.1", "http://a.com/p")
        assert not detector.is_known_ip_path("10.0.0.1", "http://a.com/q")

    def test_same_path_different_ip_passes(self) -> None:
        detector = DuplicateDetector()
        assert not detector.is_known_ip_path("10.0.0.1", "http://a.com/p")
        assert not detector.is_known_ip_path("10.0.0.2", "http://b.com/p")


class TestStage3IpSize:
    def test_same_ip_and_size_is_duplicate(self) -> None:
        detector = DuplicateDetector()
        assert not detector.is_known_ip_size("10.0.0.1", 4321)
        assert detector.is_known_ip_size("10.0.0.1", 4321)
        assert detector.stats.ip_size_hits == 1

    def test_same_size_other_host_passes(self) -> None:
        """Filesize is only assumed unique *within* one host."""
        detector = DuplicateDetector()
        assert not detector.is_known_ip_size("10.0.0.1", 4321)
        assert not detector.is_known_ip_size("10.0.0.2", 4321)


class TestRedirects:
    def test_redirect_target_registration(self) -> None:
        detector = DuplicateDetector()
        assert not detector.register_redirect_target("http://a/canonical")
        # arriving at the same canonical URL via another alias
        assert detector.register_redirect_target("http://a/canonical")


def test_stats_totals() -> None:
    detector = DuplicateDetector()
    detector.is_known_url("http://a/")
    detector.is_known_url("http://a/")
    detector.is_known_ip_path("ip", "http://a/")
    detector.is_known_ip_path("ip", "http://a/")
    detector.is_known_ip_size("ip", 1)
    detector.is_known_ip_size("ip", 1)
    stats = detector.stats
    assert stats.url_hash_hits + stats.ip_path_hits + stats.ip_size_hits == 3
    assert detector.stats.checked == 2  # only stage 1 counts checks

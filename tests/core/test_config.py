"""``BingoConfig.validate`` rejects values that would break a crawl."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import BingoConfig
from repro.errors import ConfigError
from repro.robust.breaker import BreakerPolicy
from repro.robust.retry import RetryPolicy


@pytest.mark.parametrize(
    "overrides",
    [
        {"retrain_interval": 0},
        {"retrain_interval": -5},
        {"learning_fetch_budget": 0},
        {"negative_examples": -1},
    ],
    ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()),
)
def test_validate_rejects(overrides: dict) -> None:
    with pytest.raises(ConfigError):
        BingoConfig(**overrides).validate()


def test_defaults_and_boundaries_validate() -> None:
    BingoConfig().validate()
    # a policy default is stated once, on the policy
    assert BingoConfig().retry_policy() == RetryPolicy()
    assert BingoConfig().breaker_policy() == BreakerPolicy()
    BingoConfig(
        retrain_interval=1, learning_fetch_budget=1, negative_examples=0,
    ).validate()


def test_never_set_fields_stay_gone() -> None:
    """The fields no caller in ``src/`` or ``benchmarks/`` varies are
    constants beside their readers now, not constructor keywords."""
    config = BingoConfig()
    for name in (
        "retry_multiplier", "retry_max_delay", "host_quarantine_multiplier",
        "host_max_quarantine", "incoming_queue_limit", "outgoing_queue_limit",
        "outgoing_refill_batch", "bulk_batch_size", "learning_max_depth",
        "restrict_learning_to_seed_domains", "learning_decision_mode",
        "harvesting_decision_mode", "acceptance_threshold",
        "max_archetypes_per_topic", "archetype_confidence_factor",
        "enforce_archetype_threshold", "archetype_threshold_warmup",
        "top_authorities", "top_hubs", "min_archetypes_to_harvest",
        "mime_policies", "convert_cost", "analyze_cost", "classify_cost",
        "processing_cost", "max_parallel_per_host", "max_parallel_per_domain",
        "max_tunnelling_distance", "tunnel_priority_decay", "retry_base_delay",
        "retry_jitter", "retry_budget", "slow_priority_factor",
        "slow_host_cooldown", "max_host_deferrals", "vector_cache_size",
    ):
        assert not hasattr(config, name), name
        if name != "processing_cost":
            with pytest.raises(TypeError):
                BingoConfig(**{name: 1})


def test_dns_servers_is_a_constant() -> None:
    """The testbed's 5 DNS servers stay readable on the config (the
    benchmark reads them) but are no constructor keyword."""
    assert BingoConfig().dns_servers == BingoConfig.dns_servers == 5
    assert "dns_servers" not in {
        field.name for field in dataclasses.fields(BingoConfig)
    }
    with pytest.raises(TypeError):
        BingoConfig(**{"dns_servers": 1})

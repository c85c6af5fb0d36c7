"""End-to-end observability: one registry spans every subsystem, and
every figure it exports is the owning object's own count."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core import BingoEngine
from repro.obs.export import flatten_snapshot, to_prometheus
from repro.robust.checkpoint import save_checkpoint
from repro.search.engine import LocalSearchEngine
from repro.search.serving import QueryRequest, QueryServer
from repro.web import SyntheticWeb

from tests.conftest import small_web_config
from tests.obs.test_export import parse_prometheus
from tests.core.conftest import fast_engine_config


@pytest.fixture(scope="module")
def run(tmp_path_factory) -> SimpleNamespace:
    """A small two-worker crawl, one checkpoint, one direct query and
    one served request -- with whoever built each object registering it."""
    web = SyntheticWeb.generate(small_web_config())
    engine = BingoEngine.for_portal(
        web, config=fast_engine_config(
            crawl_workers=2, shard_barrier_interval=5
        ),
    )
    engine.run(harvesting_fetch_budget=120)
    save_checkpoint(
        engine.ctx, engine.ctx.stats, tmp_path_factory.mktemp("checkpoint")
    )
    search = LocalSearchEngine(engine.ctx.documents)
    server = QueryServer(search, clock=engine.ctx.clock)
    engine.obs.register_source("search", search)
    engine.obs.register_source("serving", server)
    search.search("database research", topic="ROOT/databases")
    server.handle(QueryRequest(
        client_id="c", request_id="r", query="transaction recovery"
    ))
    return SimpleNamespace(
        engine=engine, ctx=engine.ctx, pipeline=engine.crawler.pipeline,
        search=search, server=server,
        snapshot=engine.obs.snapshot(),
    )


def _breakers(run):
    """Each host breaker's counters, as a checkpoint stores them."""
    return list(run.ctx.hosts.to_dict().values())


#: former registry family -> (source, key, the owner's own count)
HOMES = {
    "pipeline_stage_batches_total": (
        "pipeline", "classify_batches",
        lambda r: r.pipeline.stage_counts["classify"][0]),
    "pipeline_stage_docs_in_total": (
        "pipeline", "convert_docs_in",
        lambda r: r.pipeline.stage_counts["convert"][1]),
    "pipeline_stage_docs_out_total": (
        "pipeline", "persist_docs_out",
        lambda r: r.pipeline.stage_counts["persist"][2]),
    "pipeline_docs_accepted_total": (
        "pipeline", "docs_accepted", lambda r: r.pipeline.docs_accepted),
    "pipeline_hook_errors_total": (
        "pipeline", "hook_errors", lambda r: r.pipeline.hook_errors),
    "convert_docs_total": (
        "pipeline", "convert_docs_out",
        lambda r: r.pipeline.stage_counts["convert"][2]),
    "convert_tokens_total": (
        "pipeline", "convert_tokens", lambda r: r.pipeline.convert_tokens),
    "convert_stem_table_hits_total": (
        "text", "stem_table_hits", lambda r: r.ctx.interner.stem_table_hits),
    "convert_stem_table_misses_total": (
        "text", "stem_table_misses",
        lambda r: r.ctx.interner.stem_table_misses),
    "convert_intern_hits_total": (
        "text", "intern_hits", lambda r: r.ctx.interner.intern_hits),
    "convert_intern_misses_total": (
        "text", "intern_misses", lambda r: r.ctx.interner.intern_misses),
    "shard_barriers_total": (
        "shard", "barriers", lambda r: r.ctx.workers.barriers),
    "robust_retries_scheduled_total": (
        "crawl", "retries", lambda r: r.ctx.stats.retries),
    "robust_checkpoint_saves_total": (
        "pipeline", "checkpoint_saves", lambda r: r.ctx.checkpoint_saves),
    "robust_checkpoint_restores_total": (
        "pipeline", "checkpoint_restores",
        lambda r: r.ctx.checkpoint_restores),
    "robust_breaker_transitions_total_into_open": (
        "robust", "breaker_trips",
        lambda r: sum(b["trips"] for b in _breakers(r))),
    "robust_breaker_transitions_total_into_half_open": (
        "robust", "breaker_probes",
        lambda r: sum(b["probes"] for b in _breakers(r))),
    "search_queries_total": (
        "search", "queries", lambda r: r.search.queries),
    "search_queries_failed_total": (
        "search", "queries_failed", lambda r: r.search.queries_failed),
    "search_candidates_ranked_total": (
        "search", "candidates_ranked",
        lambda r: r.search.candidates_ranked),
    "search_documents_scored_total": (
        "search", "documents_scored", lambda r: r.search.documents_scored),
    "serving_requests_total": (
        "serving", "requests", lambda r: r.server.requests),
    "serving_replayed_total": (
        "serving", "replayed", lambda r: r.server.replayed),
    "serving_rejected_total": (
        "serving", "rejected", lambda r: r.server.rejected),
    "storage_flushes_total": (
        "storage", "flushes", lambda r: r.engine.loader.flushes),
    "storage_rows_flushed_total": (
        "storage", "rows_loaded", lambda r: r.engine.loader.rows_loaded),
    "perf_link_analysis_runs_total": (
        "engine", "link_analysis_runs",
        lambda r: r.engine.link_analysis_runs),
    "perf_link_analysis_iterations_total": (
        "engine", "link_analysis_iterations",
        lambda r: r.engine.link_analysis_iterations),
}

#: figures this run must have moved (the rest may legitimately read 0)
ACTIVE = {
    "pipeline_stage_batches_total", "pipeline_stage_docs_in_total",
    "pipeline_stage_docs_out_total", "pipeline_docs_accepted_total",
    "convert_docs_total", "convert_tokens_total",
    "convert_intern_hits_total", "shard_barriers_total",
    "robust_checkpoint_saves_total", "search_queries_total",
    "search_candidates_ranked_total", "search_documents_scored_total",
    "serving_requests_total", "storage_flushes_total",
    "storage_rows_flushed_total", "perf_link_analysis_runs_total",
    "perf_link_analysis_iterations_total",
}


class TestACountIsKeptOnce:
    @pytest.mark.parametrize("family", sorted(HOMES))
    def test_former_family_reads_from_its_owner(self, run, family) -> None:
        source, key, owner_count = HOMES[family]
        exported = run.snapshot["sources"][source][key]
        assert exported == float(owner_count(run))
        if family in ACTIVE:
            assert exported > 0

    def test_the_queries_went_where_they_were_sent(self, run) -> None:
        # one direct search plus the one the server executed
        assert run.snapshot["sources"]["search"]["queries"] == 2.0
        assert run.snapshot["sources"]["serving"]["served"] == 1.0


class TestOneRegistrySpansTheRuntime:
    def test_snapshot_covers_at_least_five_subsystems(self, run) -> None:
        assert set(run.snapshot) == {"at", "sources"}
        assert set(run.snapshot["sources"]) >= {
            "crawl", "engine", "frontier", "perf", "pipeline", "robust",
            "search", "serving", "shard", "storage", "text",
        }

    def test_sources_report_real_activity(self, run) -> None:
        sources = run.snapshot["sources"]
        assert sources["crawl"]["visited_urls"] > 0
        assert sources["storage"]["rows_loaded"] > 0
        assert sources["perf"]["kernel_batch_calls"] > 0
        assert sources["robust"]["hosts_tracked"] > 0
        assert sources["engine"]["retrainings"] > 0

    def test_registry_agrees_with_the_stats_surfaces(self, run) -> None:
        sources = run.engine.obs.snapshot()["sources"]
        assert sources["storage"] == run.engine.loader.stats()
        assert sources["robust"] == run.ctx.hosts.stats()
        assert sources["engine"] == run.engine.stats()
        assert sources["pipeline"] == run.pipeline.stats()
        assert sources["search"] == run.search.stats()
        assert sources["serving"] == run.server.stats()

    def test_snapshot_round_trips_through_both_exporters(self, run) -> None:
        registry = run.engine.obs
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot, sort_keys=True)) == snapshot
        assert parse_prometheus(to_prometheus(registry)) == flatten_snapshot(
            snapshot
        )

    def test_snapshot_timestamp_is_simulated_time(self, run) -> None:
        assert run.snapshot["at"] == run.ctx.clock.now

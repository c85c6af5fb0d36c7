"""Fixture: recently removed members being defined and used again."""
from dataclasses import dataclass


@dataclass
class BingoConfig:
    seed: int = 0


def the_off_switch() -> BingoConfig:
    return BingoConfig(trace_ring_size=0)


class LivingPortal:
    def __init__(self, engine: object) -> None:
        self.engine = engine


class Relation:
    def rows(self) -> list:
        return []

    def __contains__(self, key: tuple) -> bool:
        return False


@dataclass
class RelationSchema:
    name: str
    indexes: tuple = ()


def _rel(name: str, **declared: object) -> RelationSchema:
    return RelationSchema(name)


@dataclass
class Database:
    validate: bool = True


class DigestStore:
    def __init__(self) -> None:
        self.rows: dict = {}


class RecrawlScheduler:
    def __init__(self, engine: object) -> None:
        self.engine = engine


class BulkLoader:
    def add(self, thread_id: int, relation: str, row: tuple) -> None:
        return None


def restore_context(ctx: object, directory: object) -> None:
    return None


def load_database(directories: object, into: object = None) -> None:
    return None


def the_store_queried_again(
    relation: Relation,
    database: Database,
    digests: DigestStore,
    loader: BulkLoader,
) -> object:
    relation.get(1)
    relation.lookup(("topic",), "db")
    relation.scan()
    relation.update((1,), topic="ir")
    relation.delete(url="http://a/")
    _rel("pages", indexes=(("url",),)).indexes
    Database(schemas={})
    restore_context(None, {}, restore_database=False)
    restore_context(None, source={})
    load_database(directory="db")
    RecrawlScheduler(object(), workers=3)
    LivingPortal(object(), workers=3)
    digests.database
    digests.relation
    loader.workspace(0)
    database.total_statements
    return database.total_rows


from repro.portal.digests import DIGEST_SCHEMA
from repro.storage import Workspace
from repro.storage.bulkloader import Workspace as ThreadWorkspace
from repro.lint import Baseline, BaselineEntry
from repro.lint.baseline import DEFAULT_BASELINE_NAME
from repro.robust.checkpoint import Source


class CrawlFrontier:
    def __init__(self, incoming_limit: int = 25_000) -> None:
        self.incoming_limit = incoming_limit


class ShardedFrontier(CrawlFrontier):
    def pop(self) -> None:
        return None


class ShardRouter:
    def shard_of(self, host: str) -> int:
        return 0


class WorkerSet:
    def __init__(self, count: int) -> None:
        self.count = count


def the_frontier_split_per_worker(
    frontier: CrawlFrontier,
    sharded: ShardedFrontier,
    router: ShardRouter,
    workers: WorkerSet,
) -> object:
    CrawlFrontier(route=len)
    ShardedFrontier(router=router)
    WorkerSet(3, breaker_policy=None, prefetch=len)
    frontier.route
    frontier.shards
    frontier.pending_for("ROOT/databases")
    sharded.shards
    sharded.router
    router.shard_of_url("http://a.example/")
    workers.slices
    workers.hosts
    return workers.frontier


from repro.core.frontier import FrontierShard
from repro.shard import BreakerBoardSet, WorkerSlice
from repro.shard.workers import BreakerBoardSet as Boards, WorkerSlice as Slice


def knobs_only_tests_turned(scheduler: RecrawlScheduler) -> int:
    BingoConfig(
        max_parallel_per_host=1,
        max_parallel_per_domain=1,
        max_tunnelling_distance=3,
        tunnel_priority_decay=0.25,
        retry_base_delay=1.0,
        retry_jitter=0.0,
        retry_budget=5,
        slow_priority_factor=0.25,
        slow_host_cooldown=50.0,
        max_host_deferrals=10,
        vector_cache_size=0,
        dns_servers=1,
    )
    return scheduler.total_errors + scheduler.total_fetched


class VectorCache:
    maxsize: int = 1024


class LinkGraph:
    def edges(self) -> list:
        return []


def graph_helpers_nobody_called(graph: LinkGraph) -> object:
    graph.edge_count()
    return graph.subgraph([1, 2])


from repro.analysis import expand_base_set
from repro.analysis.graph import expand_base_set as base_set


from repro.semantic import XmlExporter
from repro.semantic.xml_query import parse_query
import repro.semantic.xml_export
from repro.search import FeedbackSession, SubclassSuggestion, suggest_subclasses
from repro.search.clustering import suggest_subclasses as suggest
from repro.search.feedback import FeedbackSession as Session
from repro.ml import ClusterModel, KMeans, choose_cluster_count
from repro.ml.kmeans import KMeans as Clusterer
from repro.core import ArchetypeReview
from repro.core.engine import MIN_ARCHETYPES_TO_HARVEST, ArchetypeReview as Review
from repro.text.scanner import tokenize_text
from repro.perf import tokenize_text as tokens
from repro.perf.text import tokenize_text as text_tokens


class PortalExporter:
    def __init__(self, tree: object, documents: list) -> None:
        self.documents = documents


class BingoEngine:
    def run(self, harvesting_fetch_budget: int = 0) -> None:
        return None

    def needs_feedback(self) -> bool:
        return False


class TunedEngine(BingoEngine):
    pass


def the_feedback_step(
    engine: BingoEngine, tuned: TunedEngine, exporter: PortalExporter
) -> object:
    PortalExporter(None, [], cluster_subsections=True)
    engine.run(harvesting_fetch_budget=100, archetype_reviewer=print)
    tuned.run(archetype_reviewer=print)
    engine.apply_archetype_review(print)
    exporter.cluster_subsections
    return engine.needs_feedback

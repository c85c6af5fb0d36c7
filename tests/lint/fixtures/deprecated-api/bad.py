"""Fixture: recently removed members being defined and used again."""
from dataclasses import dataclass


@dataclass
class BingoConfig:
    seed: int = 0


def the_off_switch() -> BingoConfig:
    return BingoConfig(trace_ring_size=0)


class MetricsRegistry:
    def snapshot(self) -> dict:
        return {}


from repro.obs import Obs as Bundle, ProgressReporter, Span, Tracer, from_json
from repro.obs.tracing import Tracer as SpanTracer
import repro.obs.tracing


class CrawlContext:
    def __init__(self) -> None:
        self.obs = MetricsRegistry()


def the_bundle_reads(ctx: CrawlContext) -> object:
    ctx.obs.tracer.finished()
    return ctx.obs.registry.snapshot()


class LivingPortal:
    def __init__(self, engine: object) -> None:
        self.engine = engine


class KMeans:
    def __init__(self, k: int) -> None:
        self.k = k


class MaxEntClassifier:
    def __init__(self, regularization: float = 1.0) -> None:
        self.regularization = regularization


class TopicUniverse:
    def __init__(self, topics: dict) -> None:
        self.topics = topics


def choose_cluster_count(vectors: list, **options: int) -> KMeans:
    return KMeans(2)


def run_meta_experiment(**options: float) -> None:
    return None


def constants_passed_as_keywords() -> None:
    LivingPortal(object(), indexed=True)
    KMeans(3, max_iterations=10, max_features=50)
    choose_cluster_count([], max_features=50)
    MaxEntClassifier(max_iterations=10, tol=1e-3)
    TopicUniverse({}, zipf_exponent=1.3)
    run_meta_experiment(train_per_class=12, svm_cost=0.5)


from repro.experiments.ablations import FocusAblationResult
from repro.experiments.featsel import BudgetSelectionResult
from repro.experiments.meta_bench import MetaBenchResult
from repro.experiments.portal import PortalCheckpoint


class ExperimentTable:
    def __init__(self, title: str) -> None:
        self.title = title

    def table(self) -> "ExperimentTable":
        return self

    def variant(self, row: str) -> tuple:
        return ()

    def mean_single_precision(self) -> float:
        return 0.0


def run_focus_ablation(**knobs: int) -> ExperimentTable:
    return ExperimentTable("A1")


def run_classifier_ablation(**knobs: int) -> ExperimentTable:
    return ExperimentTable("A6")


def run_budget_selection_experiment(**knobs: object) -> ExperimentTable:
    return ExperimentTable("A5")


def run_expert_experiment(**knobs: int) -> None:
    return None


def knobs_that_became_constants() -> None:
    run_focus_ablation(budget=450, seed=11)
    run_classifier_ablation(seed=3, budget=100)
    run_budget_selection_experiment(seed=3, budgets=(5,), test_per_class=4)
    run_expert_experiment(learning_fetch_budget=60)


def rows_read_through_a_result_class(table: ExperimentTable) -> float:
    table.table().variant("sharp + tunnelling")
    return table.mean_single_precision()


@dataclass
class PortalExperimentResult:
    short: object = None
    top_k: int = 100


@dataclass
class ExpertExperimentResult:
    top10: list
    needles_in_top10: int = 0


def top_of_figure5(result: ExpertExperimentResult) -> list:
    return result.top10[: result.needles_in_top10]


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

"""Command-line interface: run the paper's workflows from a shell.

The portal lifecycle lives under one command group::

    python -m repro.cli portal            --seed 17 --short 700 --long 6000
    python -m repro.cli portal tables     --seed 17 --short 700 --long 6000
    python -m repro.cli portal crawl      --seed 7  --budget 1000 --workers 4
    python -m repro.cli portal queryload  --seed 7  --budget 400 --requests 500
    python -m repro.cli portal evolve     --seed 7  --budget 400 --seconds 3600
    python -m repro.cli portal recrawl    --seed 7  --cycles 3 --recrawl-budget 60

(the bare ``portal`` form still runs the Tables 1-3 experiment, exactly
as before the group existed).  Portal subcommands share ``--workers``
and ``--metrics-out``.  Standalone experiments keep their own commands::

    python -m repro.cli expert    --seed 7  --budget 700
    python -m repro.cli ablate    --which focus archetypes negatives features

(The one-release top-level ``crawl``/``queryload`` aliases are gone;
use the ``portal`` group.)

Every run is deterministic given its ``--seed``.

Exit codes follow the repository-wide contract shared with
``python -m repro.lint``: 0 on success, 1 when the run itself fails
(any :class:`~repro.errors.ReproError`), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.errors import ReproError

__all__ = ["build_parser", "main"]


def _add_crawl_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--budget", type=int, default=1000)
    parser.add_argument("--topic", default=None,
                        help="target topic (default: the web's target)")
    parser.add_argument("--export-portal", metavar="DIR", default=None,
                        help="write a static HTML portal to DIR")
    parser.add_argument("--dump-db", metavar="DIR", default=None,
                        help="dump the crawl database to DIR (dump format 3)")
    parser.add_argument("--top", type=int, default=10,
                        help="number of top results to print")


def _add_queryload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--budget", type=int, default=400,
                        help="harvesting fetch budget of the crawl")
    parser.add_argument("--requests", type=int, default=500,
                        help="number of load-generator requests")
    parser.add_argument("--clients", type=int, default=8,
                        help="distinct rate-limited clients")
    parser.add_argument("--arrival-rate", type=float, default=40.0,
                        help="mean arrivals per simulated second")
    parser.add_argument("--rate", type=float, default=10.0,
                        help="per-client token refill rate (tokens/s)")
    parser.add_argument("--burst", type=float, default=20.0,
                        help="per-client token-bucket capacity")
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="Zipf exponent of query popularity")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BINGO! focused-crawler reproduction (CIDR 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by every portal subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--workers", type=int, default=1,
                        help="crawl workers (host-partitioned sharding; "
                             "N>1 crawls faster in simulated time with "
                             "bit-identical results)")
    shared.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the final metrics snapshot to PATH "
                             "(.prom/.txt: Prometheus text; else JSON)")

    portal = sub.add_parser(
        "portal",
        help="the portal lifecycle: tables, crawl, queryload, "
             "evolve, recrawl",
    )
    # the bare `portal --seed/--short/--long` form (Tables 1-3) predates
    # the command group and keeps working unchanged
    portal.add_argument("--seed", type=int, default=17)
    portal.add_argument("--short", type=int, default=700,
                        help="fetch budget of the first checkpoint")
    portal.add_argument("--long", type=int, default=6000,
                        help="total fetch budget of the resumed crawl")
    portal_sub = portal.add_subparsers(dest="portal_command", required=False)

    # `tables` uses SUPPRESS so explicit group-level values (the bare
    # legacy form) survive the subparser's defaulting pass
    tables = portal_sub.add_parser(
        "tables", help="Tables 1-3: the portal-generation experiment",
        argument_default=argparse.SUPPRESS,
    )
    tables.add_argument("--seed", type=int)
    tables.add_argument("--short", type=int)
    tables.add_argument("--long", type=int)

    portal_crawl = portal_sub.add_parser(
        "crawl", parents=[shared],
        help="run a single portal crawl and print/export results",
    )
    _add_crawl_arguments(portal_crawl)

    portal_queryload = portal_sub.add_parser(
        "queryload", parents=[shared],
        help="crawl, then drive the query-serving tier with a "
             "deterministic Zipfian load",
    )
    _add_queryload_arguments(portal_queryload)

    evolve = portal_sub.add_parser(
        "evolve", parents=[shared],
        help="crawl, then let the web evolve and report freshness decay",
    )
    evolve.add_argument("--seed", type=int, default=7)
    evolve.add_argument("--budget", type=int, default=400,
                        help="harvesting fetch budget of the crawl")
    evolve.add_argument("--seconds", type=float, default=3600.0,
                        help="simulated seconds of web evolution")
    evolve.add_argument("--evolution-seed", type=int, default=None,
                        help="evolution schedule seed (default: web seed)")

    recrawl = portal_sub.add_parser(
        "recrawl", parents=[shared],
        help="crawl, then run evolve/recrawl cycles keeping the "
             "index fresh incrementally",
    )
    recrawl.add_argument("--seed", type=int, default=7)
    recrawl.add_argument("--budget", type=int, default=400,
                         help="harvesting fetch budget of the crawl")
    recrawl.add_argument("--cycles", type=int, default=3,
                         help="evolve+recrawl cycles to run")
    recrawl.add_argument("--seconds", type=float, default=3600.0,
                         help="simulated seconds of evolution per cycle")
    recrawl.add_argument("--recrawl-budget", type=int, default=60,
                         help="revisits scheduled per recrawl cycle")
    recrawl.add_argument("--evolution-seed", type=int, default=None,
                         help="evolution schedule seed (default: web seed)")

    expert = sub.add_parser(
        "expert", help="Figures 4-5: the expert-search experiment"
    )
    expert.add_argument("--seed", type=int, default=7)
    expert.add_argument("--budget", type=int, default=700,
                        help="harvesting fetch budget")

    ablate = sub.add_parser(
        "ablate", help="sections 3.1-3.4 design-choice ablations"
    )
    ablate.add_argument(
        "--which", nargs="+",
        choices=["focus", "archetypes", "negatives", "features"],
        default=["focus", "archetypes", "negatives", "features"],
    )
    return parser


def _cmd_portal_tables(args) -> int:
    from repro.experiments.portal import run_portal_experiment

    result = run_portal_experiment(
        seed=args.seed, short_budget=args.short, long_budget=args.long
    )
    for table in (result.table1, result.table2, result.table3):
        print(table.render())
        print()
    for note in result.notes:
        print(f"note: {note}")
    return 0


def _cmd_expert(args) -> int:
    from repro.experiments.expert import run_expert_experiment

    result = run_expert_experiment(
        seed=args.seed, crawl_fetch_budget=args.budget
    )
    print(result.figure4.render())
    print()
    print(result.figure5.render())
    return 0


def _write_metrics(registry, path: str | None) -> None:
    if path:
        from repro.obs import write_metrics

        written = write_metrics(registry, path)
        print(f"metrics written: {written}")


def _cmd_crawl(args) -> int:
    from repro.core import BingoConfig, BingoEngine
    from repro.web import SyntheticWeb, WebGraphConfig

    web = SyntheticWeb.generate(WebGraphConfig(seed=args.seed))
    topics = [args.topic] if args.topic else None
    engine = BingoEngine.for_portal(
        web, topics=topics,
        config=BingoConfig(seed=args.seed, crawl_workers=args.workers),
    )
    report = engine.run(harvesting_fetch_budget=args.budget)
    for key, value in report.table1_row().items():
        print(f"{key:>22}: {value}")
    topic = f"ROOT/{args.topic or web.config.target_topic}"
    print(f"\ntop {args.top} results for {topic}:")
    for doc in engine.ranked_results(topic)[: args.top]:
        print(f"  {doc.confidence:6.3f}  {doc.final_url}")
    if args.export_portal:
        from repro.search.portal_export import PortalExporter

        paths = PortalExporter(
            engine.tree, engine.ctx.documents
        ).export(args.export_portal)
        print(f"\nportal written: {len(paths)} pages in {args.export_portal}")
    if args.dump_db:
        from repro.storage.persistence import dump_database
        from repro.storage.schema import page_rows

        ctx = engine.ctx
        rows = dump_database(
            engine.database, args.dump_db,
            pages=page_rows(ctx.documents, ctx.anchor_terms),
        )
        print(f"database dumped: {rows} rows in {args.dump_db}")
    _write_metrics(engine.obs, args.metrics_out)
    return 0


def _cmd_queryload(args) -> int:
    from repro.core import BingoConfig, BingoEngine
    from repro.search.engine import LocalSearchEngine
    from repro.search.serving import (
        LoadConfig,
        QueryServer,
        build_query_pool,
        run_query_load,
    )
    from repro.web import SyntheticWeb, WebGraphConfig

    web = SyntheticWeb.generate(WebGraphConfig(seed=args.seed))
    engine = BingoEngine.for_portal(
        web, config=BingoConfig(seed=args.seed, crawl_workers=args.workers)
    )
    engine.run(harvesting_fetch_budget=args.budget)
    search = LocalSearchEngine(engine.ctx.documents, indexed=True)
    server = QueryServer(
        search,
        clock=engine.ctx.clock,
        rate=args.rate,
        burst=args.burst,
    )
    engine.obs.register_source("search", search)
    engine.obs.register_source("serving", server)
    pool = build_query_pool(engine.ctx.documents, seed=args.seed)
    report = run_query_load(
        server,
        pool,
        LoadConfig(
            requests=args.requests,
            clients=args.clients,
            seed=args.seed,
            zipf_s=args.zipf,
            arrival_rate=args.arrival_rate,
        ),
    )
    print(f"query load over {len(search.documents)} indexed documents "
          f"({len(search.index())} terms):")
    for key, value in sorted(report.summary().items()):
        print(f"  {key:>16}: {value:.6g}")
    _write_metrics(engine.obs, args.metrics_out)
    return 0


def _open_portal(args):
    """Crawl and open a living portal (evolve/recrawl subcommands)."""
    from repro.core import BingoConfig, BingoEngine
    from repro.portal import EvolutionConfig, LivingPortal
    from repro.web import SyntheticWeb, WebGraphConfig

    web = SyntheticWeb.generate(WebGraphConfig(seed=args.seed))
    engine = BingoEngine.for_portal(
        web, config=BingoConfig(seed=args.seed, crawl_workers=args.workers)
    )
    engine.run(harvesting_fetch_budget=args.budget)
    portal = LivingPortal(
        engine,
        evolution_config=EvolutionConfig(seed=args.evolution_seed),
    )
    portal.open()
    engine.obs.register_source("portal", portal)
    # the other "search" registration is queryload's, on its own registry
    engine.obs.register_source(  # bingolint: disable=stats-schema
        "search", portal.search
    )
    return engine, portal


def _print_stats(title: str, stats: dict) -> None:
    print(f"{title}:")
    for key in sorted(stats):
        print(f"  {key:>28}: {stats[key]:.6g}")


def _cmd_portal_evolve(args) -> int:
    engine, portal = _open_portal(args)
    ticks = portal.evolve(args.seconds)
    print(f"evolved {args.seconds:g} simulated seconds ({ticks} ticks)\n")
    _print_stats("evolution", portal.evolution.stats())
    print()
    _print_stats("freshness", portal.freshness().stats())
    _write_metrics(engine.obs, args.metrics_out)
    return 0


def _cmd_portal_recrawl(args) -> int:
    engine, portal = _open_portal(args)
    for cycle in range(1, args.cycles + 1):
        ticks = portal.evolve(args.seconds)
        report = portal.recrawl(budget=args.recrawl_budget)
        print(f"cycle {cycle}: {ticks} ticks, epoch {report.epoch}")
        _print_stats("  cycle", report.stats())
    print()
    _print_stats("freshness", portal.freshness().stats())
    print(f"\nserving epoch: {portal.search.epoch}")
    _write_metrics(engine.obs, args.metrics_out)
    return 0


def _cmd_ablate(args) -> int:
    from repro.experiments import ablations

    runners = {
        "focus": lambda: ablations.run_focus_ablation(budget=450),
        "archetypes": ablations.run_archetype_ablation,
        "negatives": ablations.run_negatives_ablation,
        "features": ablations.run_feature_space_ablation,
    }
    for name in args.which:
        print(runners[name]().render())
        print()
    return 0


def _cmd_portal(args) -> int:
    handlers = {
        None: _cmd_portal_tables,
        "tables": _cmd_portal_tables,
        "crawl": _cmd_crawl,
        "queryload": _cmd_queryload,
        "evolve": _cmd_portal_evolve,
        "recrawl": _cmd_portal_recrawl,
    }
    return handlers[args.portal_command](args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        return 0 if exc.code in (0, None) else 2
    commands = {
        "portal": _cmd_portal,
        "expert": _cmd_expert,
        "ablate": _cmd_ablate,
    }
    try:
        return commands[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

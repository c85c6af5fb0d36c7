"""Smoke tests for the experiment drivers (small budgets).

The *shape* assertions (who wins, by how much) live in
``benchmarks/bench_paper.py``; these tests check that each runner
completes end to end and returns structurally sound tables at reduced
scale.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (
    run_archetype_ablation,
    run_feature_space_ablation,
    run_focus_ablation,
    run_negatives_ablation,
)
from repro.experiments.expert import run_expert_experiment
from repro.experiments.featsel import run_feature_selection_experiment
from repro.experiments.meta_bench import run_meta_experiment
from repro.experiments.portal import TOP_K, run_portal_experiment


class TestPortalDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_portal_experiment(short_budget=200, long_budget=700)

    def test_checkpoints_ordered(self, result) -> None:
        table1 = result.table1
        assert (
            table1.cell("Visited URLs", "long crawl")
            >= table1.cell("Visited URLs", "short crawl")
        )
        assert (
            table1.cell("Stored pages", "long crawl")
            >= table1.cell("Stored pages", "short crawl")
        )

    def test_tables_render(self, result) -> None:
        for table in (result.table1, result.table2, result.table3):
            text = table.render()
            assert "Table" in text

    def test_scores_within_registry_bounds(self, result) -> None:
        for table in (result.table2, result.table3):
            for found_top in table.column(f"Top {TOP_K} registry"):
                assert 0 <= found_top <= TOP_K
            for found_all in table.column("All authors"):
                assert 0 <= found_all <= result.registry_size

    def test_invalid_budgets_rejected(self) -> None:
        with pytest.raises(ValueError):
            run_portal_experiment(short_budget=500, long_budget=400)


class TestExpertDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_expert_experiment(crawl_fetch_budget=400)

    def test_seed_selection_bounded(self, result) -> None:
        assert 1 <= len(result.seed_hits) <= 7

    def test_figures_render(self, result) -> None:
        assert "Figure 4" in result.figure4.render()
        assert "Figure 5" in result.figure5.render()

    def test_top10_is_ranked(self, result) -> None:
        scores = result.figure5.column("Score")
        assert scores == sorted(scores, reverse=True)
        assert len(result.figure5.rows) <= 10

    def test_needle_bookkeeping_consistent(self, result) -> None:
        in_top10 = sum(
            url in result.needle_urls for url in result.figure5.column("URL")
        )
        assert in_top10 == result.figure5.column("Needle?").count("yes")


class TestSmallDrivers:
    def test_meta_experiment_rows(self) -> None:
        table = run_meta_experiment(seeds=(23,), test_per_class=40)
        names = table.column("Decision function")
        assert "meta: unanimous" in names
        assert "meta: majority" in names
        assert "meta: xi-alpha weighted" in names
        for _name, precision, recall, abstain in table.rows:
            assert 0.0 <= precision <= 1.0
            assert 0.0 <= recall <= 1.0
            assert 0.0 <= abstain <= 1.0

    def test_feature_selection_rows(self) -> None:
        table, _signature_hits = run_feature_selection_experiment(
            budgets=(10, 50), train_per_class=15, test_per_class=30
        )
        assert set(table.column("Method")) == {"MI", "tf", "random"}
        for _method, *accuracies in table.rows:
            assert len(accuracies) == 2
            assert all(0.0 <= a <= 1.0 for a in accuracies)

    def test_focus_ablation_variants(self) -> None:
        table = run_focus_ablation(budget=120)
        assert len(table.rows) == 4
        assert "tunnelling" in table.render()

    def test_negatives_ablation_rows(self) -> None:
        table = run_negatives_ablation(test_per_class=40)
        assert len(table.rows) == 2

    def test_feature_space_ablation_rows(self) -> None:
        table = run_feature_space_ablation(
            train_per_class=12, test_per_class=25
        )
        spaces = table.column("Feature space")
        assert "terms" in spaces
        assert "term pairs" in spaces
        assert "anchors" in spaces

    def test_archetype_ablation_rows(self) -> None:
        table = run_archetype_ablation(seeds=(59,), rounds=2)
        assert len(table.rows) == 2
        assert table.cell("threshold on (paper 3.2)", "Training purity") >= 0.0

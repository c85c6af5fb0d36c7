"""Package-level tests: public API surface and lazy exports."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.core import BingoConfig


class TestLazyExports:
    @pytest.mark.parametrize(
        "name",
        [
            "SyntheticWeb", "WebGraphConfig", "BingoEngine", "BingoConfig",
            "FocusedCrawler", "TopicTree", "LocalSearchEngine",
        ],
    )
    def test_headline_api_resolves(self, name: str) -> None:
        attribute = getattr(repro, name)
        assert attribute is not None
        assert attribute.__name__ == name

    def test_unknown_attribute_raises(self) -> None:
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_errors_exported_eagerly(self) -> None:
        assert issubclass(repro.CrawlError, repro.ReproError)
        assert issubclass(repro.SchemaError, repro.StorageError)

    def test_version(self) -> None:
        assert repro.__version__


class TestSubpackageAll:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.text", "repro.web", "repro.storage", "repro.ml",
            "repro.analysis", "repro.core", "repro.search",
            "repro.semantic", "repro.experiments",
        ],
    )
    def test_all_names_resolve(self, module_name: str) -> None:
        import importlib

        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert getattr(module, name) is not None, name


class TestImportOrder:
    @pytest.mark.parametrize(
        "subpackage",
        [
            "analysis", "core", "experiments", "lint", "ml", "obs", "perf",
            "pipeline", "portal", "robust", "search", "semantic", "shard",
            "storage", "text", "web", "cli",
        ],
    )
    def test_importable_as_the_first_import_of_a_process(
        self, subpackage: str
    ) -> None:
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", f"import repro.{subpackage}"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


#: a crawl with retraining points (SVM fits, the compiled classifier,
#: Bharat-Henzinger), an authority-weighted search (HITS) and a
#: checkpoint save, in a process where importing scipy raises
_NUMPY_ALONE = """
import json, sys, tempfile
sys.modules["scipy"] = None
import repro.cli
from repro.core import BingoEngine
from repro.robust.checkpoint import save_checkpoint
from repro.search.engine import LocalSearchEngine, RankingWeights
from repro.web import SyntheticWeb
from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config

engine = BingoEngine.for_portal(
    SyntheticWeb.generate(small_web_config()), config=fast_engine_config()
)
engine.run(harvesting_fetch_budget=80)
hits = LocalSearchEngine(engine.ctx.documents).search(
    "database research", weights=RankingWeights(1.0, 0.5, 0.5)
)
save_checkpoint(engine.ctx, engine.ctx.stats, tempfile.mkdtemp())
loaded = [n for n, m in sys.modules.items() if n.startswith("scipy") and m]
print(json.dumps([len(engine.ctx.documents), len(hits), loaded]))
"""


class TestRunsOnNumpyAlone:
    def test_crawl_search_and_checkpoint_import_no_scipy(
        self, tmp_path
    ) -> None:
        root = pathlib.Path(repro.__file__).resolve().parent.parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_ALONE],
            env={**os.environ, "PYTHONPATH": f"{root / 'src'}:{root}"},
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        documents, hits, loaded = json.loads(proc.stdout)
        assert documents > 0 and hits > 0
        assert loaded == []


class TestNoWallClock:
    def test_nothing_outside_the_linter_imports_time(self) -> None:
        """``repro`` owns simulated time only; wall seconds are measured
        from outside, by ``benchmarks/e2e/trace.py``."""
        root = pathlib.Path(repro.__file__).resolve().parent
        pattern = re.compile(r"^\s*(import time\b|from time )", re.M)
        offenders = [
            path.relative_to(root).as_posix()
            for path in sorted(root.rglob("*.py"))
            if "lint" not in path.relative_to(root).parts
            and pattern.search(path.read_text())
        ]
        assert offenders == []


class TestOraclesLiveInTests:
    def test_src_defines_no_reference_implementation(self) -> None:
        """A ``*_reference`` function is an oracle some kernel is
        parity-tested against; it belongs beside those tests
        (``tests/{text,core,analysis}/reference.py``), where no
        production caller can reach it."""
        root = pathlib.Path(repro.__file__).resolve().parent
        pattern = re.compile(r"^\s*def \w*_reference\b", re.M)
        offenders = [
            path.relative_to(root).as_posix()
            for path in sorted(root.rglob("*.py"))
            if "lint" not in path.relative_to(root).parts
            and pattern.search(path.read_text())
        ]
        assert offenders == []


class TestEveryConfigFieldHasASetter:
    #: the one field only tests vary: the tier-1 suite and the sha256
    #: pins of the checkpoint tests crawl at two retries
    TEST_ONLY = ("max_retries",)

    def test_some_file_sets_each_field(self) -> None:
        """A ``BingoConfig`` field no program caller sets is a constant,
        not a knob: each field name appears as a keyword argument or an
        attribute assignment somewhere in ``src/`` (outside
        ``core/config.py``) or ``benchmarks/``; tests and examples do
        not count."""
        repo = pathlib.Path(__file__).resolve().parent.parent
        config_py = repo / "src" / "repro" / "core" / "config.py"
        sources = [
            path.read_text()
            for top in ("src", "benchmarks")
            for path in sorted((repo / top).rglob("*.py"))
            if path != config_py
        ]
        never_set = [
            field.name
            for field in dataclasses.fields(BingoConfig)
            if field.name not in self.TEST_ONLY
            and not any(
                re.search(rf"\b{field.name}\s*=(?!=)", text)
                for text in sources
            )
        ]
        assert never_set == []

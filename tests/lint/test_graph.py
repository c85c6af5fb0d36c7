"""Unit tests for the project indexer / call-graph builder."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint.engine import LintEngine, ModuleUnit
from repro.lint.graph import ProjectIndex


def build_index(tmp_path: Path, files: dict[str, str]) -> ProjectIndex:
    engine = LintEngine()
    paths: list[Path] = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(path)
    units = [engine.load(path) for path in sorted(paths)]
    return ProjectIndex.build(
        [unit for unit in units if isinstance(unit, ModuleUnit)]
    )


def edges(index: ProjectIndex) -> set[tuple[str, str]]:
    return {
        (function.qualname, site.callee)
        for function in index.functions.values()
        for site in function.calls
        if site.callee is not None
    }


class TestImportResolution:
    def test_cross_module_typed_call_resolves(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/alpha.py": """\
                    class Widget:
                        def ping(self) -> None:
                            pass
                    """,
                "pkg/beta.py": """\
                    from pkg.alpha import Widget


                    def use(widget: Widget) -> None:
                        widget.ping()
                    """,
            },
        )
        assert "pkg.alpha.Widget" in index.classes
        assert ("pkg.beta.use", "pkg.alpha.Widget.ping") in edges(index)

    def test_aliased_import_resolves(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/alpha.py": """\
                    class Widget:
                        def ping(self) -> None:
                            pass
                    """,
                "pkg/beta.py": """\
                    from pkg.alpha import Widget as W


                    def make() -> None:
                        widget = W()
                        widget.ping()
                    """,
            },
        )
        assert ("pkg.beta.make", "pkg.alpha.Widget.ping") in edges(index)


class TestMethodDispatch:
    def test_self_dispatch_follows_mro(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "m.py": """\
                    class Base:
                        def helper(self) -> None:
                            pass


                    class Derived(Base):
                        def run(self) -> None:
                            self.helper()
                    """
            },
        )
        assert ("m.Derived.run", "m.Base.helper") in edges(index)

    def test_attr_typed_receiver_resolves(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "m.py": """\
                    class Widget:
                        def ping(self) -> None:
                            pass


                    class Holder:
                        def __init__(self) -> None:
                            self.widget = Widget()

                        def poke(self) -> None:
                            self.widget.ping()
                    """
            },
        )
        assert ("m.Holder.poke", "m.Widget.ping") in edges(index)


class TestCycles:
    def test_mutual_recursion_terminates(self, tmp_path: Path) -> None:
        index = build_index(
            tmp_path,
            {
                "m.py": """\
                    def odd(n: int) -> bool:
                        return not even(n - 1)


                    def even(n: int) -> bool:
                        return n == 0 or odd(n - 1)
                    """
            },
        )
        assert ("m.odd", "m.even") in edges(index)
        assert ("m.even", "m.odd") in edges(index)

    def test_cyclic_inheritance_does_not_hang(self, tmp_path: Path) -> None:
        # pathological input: the MRO walk must not loop forever
        index = build_index(
            tmp_path,
            {
                "m.py": """\
                    class A(B):  # noqa
                        pass


                    class B(A):
                        def spin(self) -> None:
                            pass
                    """
            },
        )
        names = [symbol.name for symbol in index.mro("m.A")]
        assert names.count("A") == 1 and names.count("B") == 1

"""Unit tests for the project index: import and alias resolution,
typed receivers, MRO dispatch and cycle termination."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.lint.engine import LintEngine, ModuleUnit
from repro.lint.graph import ProjectIndex, TypeRef


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


def receiver_type(index: ProjectIndex, qualname: str) -> TypeRef | None:
    """The type of the receiver of the first method call in a
    function's body (``widget`` in ``widget.ping()``)."""
    function = index.functions[qualname]
    call = next(
        node
        for node in ast.walk(function.node)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
    )
    return index.expr_type(
        function.module, call.func.value, function.local_types
    )


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
        assert receiver_type(index, "pkg.beta.use") == TypeRef(
            "pkg.alpha.Widget"
        )

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
        assert receiver_type(index, "pkg.beta.make") == TypeRef(
            "pkg.alpha.Widget"
        )


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
        assert [symbol.name for symbol in index.mro("m.Derived")] == [
            "Derived", "Base",
        ]
        assert index.method_on("m.Derived", "helper").qualname == (
            "m.Base.helper"
        )

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
        assert receiver_type(index, "m.Holder.poke") == TypeRef("m.Widget")


class TestCycles:
    def test_mutual_recursion_terminates(self, tmp_path: Path) -> None:
        # two classes typed by each other: resolving a chain through the
        # cycle must end, at the class the chain names
        index = build_index(
            tmp_path,
            {
                "m.py": """\
                    class Odd:
                        def __init__(self, even: "Even") -> None:
                            self.even = even


                    class Even:
                        def __init__(self, odd: Odd) -> None:
                            self.odd = odd

                        def down(self) -> Odd:
                            return self.odd


                    def walk(start: Odd) -> None:
                        start.even.odd.even.down().even.ping()
                    """
            },
        )
        assert index.classes["m.Odd"].attr_types["even"] == TypeRef("m.Even")
        assert index.classes["m.Even"].attr_types["odd"] == TypeRef("m.Odd")
        assert receiver_type(index, "m.walk") == TypeRef("m.Even")

    def test_return_type_naming_a_later_class_resolves(
        self, tmp_path: Path
    ) -> None:
        # return annotations resolve once every class is collected, so
        # one may name a class defined further down
        index = build_index(
            tmp_path,
            {
                "m.py": """\
                    class Odd:
                        def __init__(self, even: "Even") -> None:
                            self.even = even

                        def down(self) -> "Even":
                            return self.even


                    class Even:
                        def __init__(self, odd: Odd) -> None:
                            self.odd = odd

                        def down(self) -> Odd:
                            return self.odd


                    def walk(start: Odd) -> None:
                        start.even.down().down().ping()
                    """
            },
        )
        assert index.functions["m.Odd.down"].return_type == TypeRef("m.Even")
        assert receiver_type(index, "m.walk") == TypeRef("m.Even")

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

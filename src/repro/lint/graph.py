"""The project index behind the whole-program rules.

Per-file rules see one AST at a time; ``epoch-mutation`` has to know
what class a write's receiver is, and that class may be defined in
another file, and ``stats-schema`` compares every module's
registrations.  This module answers both statically, from the same
:class:`~repro.lint.engine.ModuleUnit` records the per-file rules
consume:

* a **symbol table** of every module, class and function, keyed by
  dotted qualname (``repro.search.engine.LocalSearchEngine.search``),
  with each class's base chain (:meth:`ProjectIndex.mro`);
* a conservative **type map**: parameter/attribute/local annotations,
  constructor calls and annotated return types resolve expressions to
  project classes where that is provable, and to nothing otherwise
  (:meth:`ProjectIndex.expr_type`).

Everything is deterministic: modules, classes and functions are
always built and iterated in sorted order, so findings derived from
the index are byte-identical across runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.engine import ModuleUnit, dotted_name

__all__ = [
    "ClassSymbol",
    "FunctionSymbol",
    "ProjectIndex",
    "TypeRef",
]

#: subscriptable annotation heads treated as containers of their
#: element type (``list[CrawledDocument]`` -> element ``CrawledDocument``)
_CONTAINER_HEADS = frozenset(
    {
        "list", "List", "set", "Set", "frozenset", "FrozenSet",
        "tuple", "Tuple", "Sequence", "Iterable", "Iterator",
        "MutableSequence", "Collection",
    }
)

#: annotation heads whose subscript just wraps the inner type
_WRAPPER_HEADS = frozenset({"Optional", "Final", "ClassVar", "Annotated"})


@dataclass(frozen=True)
class TypeRef:
    """A (possibly container-wrapped) reference to a project class."""

    qualname: str
    """Qualname of the referenced :class:`ClassSymbol`."""
    container: bool = False
    """True when the expression holds a *collection* of instances;
    subscripting such an expression yields the element type."""

    def element(self) -> "TypeRef":
        return TypeRef(self.qualname, container=False)


@dataclass
class FunctionSymbol:
    """One function, method or module body in the project."""

    qualname: str
    name: str
    module: ModuleUnit
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module
    class_name: str | None = None
    """Qualname of the owning class for methods, else None."""
    params: list[str] = field(default_factory=list)
    """Positional-or-keyword parameter names, in order (``self``
    included for methods)."""
    return_type: TypeRef | None = None
    local_types: dict[str, TypeRef] = field(default_factory=dict)
    """Parameter and local-variable types provable inside the body."""


@dataclass
class ClassSymbol:
    """One class definition plus its statically-derived attribute types."""

    qualname: str
    name: str
    module: ModuleUnit
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    """Resolved base qualnames (project classes) or dotted externals."""
    methods: dict[str, str] = field(default_factory=dict)
    """Method name -> function qualname (own methods only)."""
    attr_types: dict[str, TypeRef] = field(default_factory=dict)
    """``self.x`` attribute name -> provable type."""


def _scope_statements(node: ast.AST) -> list[ast.stmt]:
    """Statements of ``node``'s own scope, recursing through control
    flow but never into nested function/class scopes."""
    out: list[ast.stmt] = []
    stack: list[ast.stmt] = list(
        reversed(getattr(node, "body", []))
    )
    while stack:
        statement = stack.pop()
        out.append(statement)
        if isinstance(
            statement,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            continue
        blocks: list[list[ast.stmt]] = []
        for attr in ("body", "orelse", "finalbody"):
            blocks.append(list(getattr(statement, attr, [])))
        for handler in getattr(statement, "handlers", []):
            blocks.append(list(handler.body))
        for block in reversed(blocks):
            stack.extend(reversed(block))
    return out


class ProjectIndex:
    """Symbol table and type map over a set of modules."""

    def __init__(self) -> None:
        self.classes: dict[str, ClassSymbol] = {}
        self.functions: dict[str, FunctionSymbol] = {}
        self._classes_by_name: dict[str, list[str]] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, units: list[ModuleUnit]) -> "ProjectIndex":
        index = cls()
        ordered = sorted(units, key=lambda unit: unit.display_path)
        for unit in ordered:
            index._collect_symbols(unit)
        # once every class is known: a return type may name a later one
        for function in index.functions.values():
            function.return_type = index._annotation_type(
                function.module, getattr(function.node, "returns", None)
            )
        for qualname in sorted(index.classes):
            index._infer_attr_types(index.classes[qualname])
        for qualname in sorted(index.functions):
            index._infer_local_types(index.functions[qualname])
        return index

    def _collect_symbols(self, unit: ModuleUnit) -> None:
        prefix = unit.module_name or unit.display_path
        body = FunctionSymbol(
            qualname=prefix,
            name=prefix.rpartition(".")[2],
            module=unit,
            node=unit.tree,
        )
        self.functions[prefix] = body
        for statement in unit.tree.body:
            self._collect_statement(unit, prefix, None, statement)

    def _collect_statement(
        self,
        unit: ModuleUnit,
        prefix: str,
        owner: ClassSymbol | None,
        statement: ast.stmt,
    ) -> None:
        if isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            qualname = f"{prefix}.{statement.name}"
            args = statement.args
            params = [
                arg.arg
                for arg in list(args.posonlyargs) + list(args.args)
            ]
            symbol = FunctionSymbol(
                qualname=qualname,
                name=statement.name,
                module=unit,
                node=statement,
                class_name=owner.qualname if owner else None,
                params=params,
            )
            self.functions.setdefault(qualname, symbol)
            if owner is not None:
                owner.methods.setdefault(statement.name, qualname)
            for nested in statement.body:
                self._collect_statement(unit, qualname, None, nested)
        elif isinstance(statement, ast.ClassDef):
            qualname = f"{prefix}.{statement.name}"
            bases: list[str] = []
            for base in statement.bases:
                dotted = dotted_name(base)
                if dotted is None:
                    continue
                head, _, rest = dotted.partition(".")
                origin = unit.imports.get(head, head)
                # import-resolved but otherwise raw: a base defined
                # later in the module is not in self.classes yet, so
                # final resolution is deferred to mro()
                bases.append(f"{origin}.{rest}" if rest else origin)
            symbol = ClassSymbol(
                qualname=qualname,
                name=statement.name,
                module=unit,
                node=statement,
                bases=bases,
            )
            if qualname not in self.classes:
                self.classes[qualname] = symbol
                self._classes_by_name.setdefault(
                    statement.name, []
                ).append(qualname)
            for nested in statement.body:
                self._collect_statement(unit, qualname, symbol, nested)

    # -- type resolution --------------------------------------------------

    def resolve_class(
        self, unit: ModuleUnit, dotted: str
    ) -> ClassSymbol | None:
        """The project class a dotted name refers to in ``unit``."""
        head, _, rest = dotted.partition(".")
        origin = unit.imports.get(head, head)
        target = f"{origin}.{rest}" if rest else origin
        found = self.classes.get(target)
        if found is not None:
            return found
        if unit.module_name:
            found = self.classes.get(f"{unit.module_name}.{target}")
            if found is not None:
                return found
        # unique-by-name fallback keeps single-file fixtures resolvable
        candidates = self._classes_by_name.get(
            target.rpartition(".")[2], []
        )
        if len(candidates) == 1:
            return self.classes[candidates[0]]
        return None

    def _annotation_type(
        self, unit: ModuleUnit, annotation: ast.expr | None
    ) -> TypeRef | None:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant):
            if not isinstance(annotation.value, str):
                return None
            try:
                parsed = ast.parse(annotation.value, mode="eval")
            except SyntaxError:
                return None
            return self._annotation_type(unit, parsed.body)
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            return self._annotation_type(
                unit, annotation.left
            ) or self._annotation_type(unit, annotation.right)
        if isinstance(annotation, ast.Subscript):
            head = dotted_name(annotation.value)
            head_name = head.rpartition(".")[2] if head else ""
            inner = annotation.slice
            elements = (
                list(inner.elts)
                if isinstance(inner, ast.Tuple)
                else [inner]
            )
            if head_name in _WRAPPER_HEADS or head_name == "Union":
                for element in elements:
                    resolved = self._annotation_type(unit, element)
                    if resolved is not None:
                        return resolved
                return None
            if head_name in _CONTAINER_HEADS and elements:
                element_type = self._annotation_type(unit, elements[0])
                if element_type is not None:
                    return TypeRef(element_type.qualname, container=True)
                return None
            if head_name in ("dict", "Dict", "Mapping") and len(
                elements
            ) == 2:
                value_type = self._annotation_type(unit, elements[1])
                if value_type is not None:
                    return TypeRef(value_type.qualname, container=True)
            return None
        dotted = dotted_name(annotation)
        if dotted is None:
            return None
        found = self.resolve_class(unit, dotted)
        return TypeRef(found.qualname) if found is not None else None

    def _call_type(
        self, unit: ModuleUnit, call: ast.Call,
        local_types: dict[str, TypeRef],
    ) -> TypeRef | None:
        """Type of a call expression: constructors and annotated
        returns of resolvable project functions."""
        dotted = dotted_name(call.func)
        if dotted is not None:
            found = self.resolve_class(unit, dotted)
            if found is not None:
                return TypeRef(found.qualname)
            function = self.resolve_function(unit, dotted)
            if function is not None:
                return function.return_type
        if isinstance(call.func, ast.Attribute):
            receiver = self.expr_type(
                unit, call.func.value, local_types
            )
            if receiver is not None and not receiver.container:
                method = self.method_on(
                    receiver.qualname, call.func.attr
                )
                if method is not None:
                    return method.return_type
        return None

    def resolve_function(
        self, unit: ModuleUnit, dotted: str
    ) -> FunctionSymbol | None:
        """The project function a dotted name refers to in ``unit``."""
        head, _, rest = dotted.partition(".")
        origin = unit.imports.get(head, head)
        target = f"{origin}.{rest}" if rest else origin
        found = self.functions.get(target)
        if found is not None:
            return found
        if unit.module_name:
            return self.functions.get(f"{unit.module_name}.{target}")
        return None

    def expr_type(
        self,
        unit: ModuleUnit,
        node: ast.expr,
        local_types: dict[str, TypeRef],
    ) -> TypeRef | None:
        """Best-effort static type of an expression, or None."""
        if isinstance(node, ast.Name):
            return local_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.expr_type(unit, node.value, local_types)
            if base is not None and not base.container:
                owner = self.classes.get(base.qualname)
                if owner is not None:
                    return self.attr_type_on(owner, node.attr)
            dotted = dotted_name(node)
            if dotted is not None and "." in dotted:
                found = self.resolve_class(unit, dotted)
                if found is not None:
                    return TypeRef(found.qualname)
            return None
        if isinstance(node, ast.Subscript):
            base = self.expr_type(unit, node.value, local_types)
            if base is not None and base.container:
                return base.element()
            return None
        if isinstance(node, ast.Call):
            return self._call_type(unit, node, local_types)
        return None

    # -- class structure --------------------------------------------------

    def mro(self, qualname: str) -> list[ClassSymbol]:
        """The class and its project base chain, depth-first."""
        out: list[ClassSymbol] = []
        seen: set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            symbol = self.classes.get(current)
            if symbol is None:
                continue
            out.append(symbol)
            for base in symbol.bases:
                resolved = self._resolve_base(symbol, base)
                if resolved is not None:
                    stack.append(resolved)
        return out

    def _resolve_base(
        self, symbol: ClassSymbol, base: str
    ) -> str | None:
        if base in self.classes:
            return base
        found = self.resolve_class(symbol.module, base)
        return found.qualname if found is not None else None

    def method_on(
        self, class_qualname: str, method: str
    ) -> FunctionSymbol | None:
        """Resolve a method through the project base-class chain."""
        for symbol in self.mro(class_qualname):
            qualname = symbol.methods.get(method)
            if qualname is not None:
                return self.functions.get(qualname)
        return None

    def attr_type_on(
        self, symbol: ClassSymbol, attr: str
    ) -> TypeRef | None:
        for member in self.mro(symbol.qualname):
            found = member.attr_types.get(attr)
            if found is not None:
                return found
        return None

    def _infer_attr_types(self, symbol: ClassSymbol) -> None:
        unit = symbol.module
        for statement in symbol.node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                resolved = self._annotation_type(
                    unit, statement.annotation
                )
                if resolved is not None:
                    symbol.attr_types[statement.target.id] = resolved
        for name in sorted(symbol.methods):
            function = self.functions.get(symbol.methods[name])
            if function is None or isinstance(
                function.node, ast.Module
            ):
                continue
            param_types = self._param_types(function)
            for statement in _scope_statements(function.node):
                self._attr_type_from_statement(
                    symbol, unit, statement, param_types
                )

    def _attr_type_from_statement(
        self,
        symbol: ClassSymbol,
        unit: ModuleUnit,
        statement: ast.stmt,
        param_types: dict[str, TypeRef],
    ) -> None:
        target: ast.expr | None = None
        value_type: TypeRef | None = None
        if isinstance(statement, ast.Assign) and len(
            statement.targets
        ) == 1:
            target = statement.targets[0]
            value = statement.value
            if isinstance(value, ast.Name):
                value_type = param_types.get(value.id)
            elif isinstance(value, ast.Call):
                value_type = self._call_type(unit, value, param_types)
            elif isinstance(value, ast.ListComp) and isinstance(
                value.elt, ast.Call
            ):
                element = self._call_type(unit, value.elt, param_types)
                if element is not None and not element.container:
                    value_type = TypeRef(
                        element.qualname, container=True
                    )
        elif isinstance(statement, ast.AnnAssign):
            target = statement.target
            value_type = self._annotation_type(
                unit, statement.annotation
            )
        if (
            target is not None
            and value_type is not None
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            symbol.attr_types.setdefault(target.attr, value_type)

    def _param_types(
        self, function: FunctionSymbol
    ) -> dict[str, TypeRef]:
        types: dict[str, TypeRef] = {}
        if isinstance(function.node, ast.Module):
            return types
        if function.class_name is not None and function.params:
            types[function.params[0]] = TypeRef(function.class_name)
        args = function.node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            resolved = self._annotation_type(
                function.module, arg.annotation
            )
            if resolved is not None:
                types[arg.arg] = resolved
        return types

    def _infer_local_types(self, function: FunctionSymbol) -> None:
        types = self._param_types(function)
        unit = function.module
        # two passes so chained assignments settle (a = f(); b = a.g())
        for _ in range(2):
            for statement in _scope_statements(function.node):
                if isinstance(statement, ast.Assign) and len(
                    statement.targets
                ) == 1 and isinstance(statement.targets[0], ast.Name):
                    inferred = self.expr_type(
                        unit, statement.value, types
                    )
                    if inferred is not None:
                        types[statement.targets[0].id] = inferred
                elif isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    inferred = self._annotation_type(
                        unit, statement.annotation
                    )
                    if inferred is not None:
                        types[statement.target.id] = inferred
                elif isinstance(
                    statement, (ast.For, ast.AsyncFor)
                ) and isinstance(statement.target, ast.Name):
                    iterated = self.expr_type(
                        unit, statement.iter, types
                    )
                    if iterated is not None and iterated.container:
                        types[statement.target.id] = iterated.element()
        function.local_types = types

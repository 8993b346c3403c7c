"""Project-wide symbol table with lightweight annotation-driven types.

The per-file rules in :mod:`repro.analysis.rules` see one AST at a time;
the coherence pass needs to know, across the whole ``src/repro`` tree,
*which class* an attribute write lands on (``cpu.rq.enqueue`` mutates a
``RunQueue`` even though the statement lives in ``scheduler.py``).  This
module builds that map: every class, its fields and their types, every
function/method, and a small type-inference engine good enough for the
codebase's own idioms.

The inference is deliberately shallow -- it is a *linter's* type engine,
not a type checker:

* parameter and return annotations are trusted (``Optional[X]`` unwraps
  to ``X``: the analyzer cares where attributes live, not nullability);
* a field's type comes from its ``self.x: T`` annotation, or from
  ``self.x = ClassName(...)`` / an annotated parameter on the right-hand
  side of its ``__init__`` assignment;
* locals are tracked flow-insensitively (last assignment wins), which is
  exactly enough to resolve the alias idiom ``rq = cpu.rq; rq.load(...)``;
* anything unresolvable is ``None`` and downstream passes must treat it
  conservatively.

Everything here is pure and deterministic: same trees in, same table out.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Typing/builtin container heads whose element type we track.  ``Dict``
#: maps to its *value* type (iteration idioms in this codebase go through
#: ``.values()``).
_CONTAINERS = {
    "List": "elem", "Sequence": "elem", "Set": "elem", "FrozenSet": "elem",
    "Tuple": "elem", "Iterator": "elem", "Iterable": "elem", "Deque": "elem",
    "Dict": "value", "Mapping": "value", "DefaultDict": "value",
    "list": "elem", "set": "elem", "frozenset": "elem", "tuple": "elem",
    "dict": "value",
}

#: Methods of builtin containers that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "popleft", "remove", "setdefault", "sort", "update",
})


@dataclass(frozen=True)
class TypeRef:
    """A resolved type: a bare class/builtin name plus one element slot.

    ``List[Task]`` becomes ``TypeRef("List", TypeRef("Task"))``; subscripting
    or iterating it yields the element.  Class names are *bare* (``RunQueue``)
    -- the table resolves them to definitions, tolerating the single-project
    assumption that bare class names are unique.
    """

    name: str
    elem: Optional["TypeRef"] = None


@dataclass
class FunctionInfo:
    """One function or method definition."""

    name: str
    #: ``module.Class.method`` or ``module.function`` (nested defs get
    #: ``module.outer.inner``).
    qualname: str
    module: str
    display_path: str
    node: ast.AST
    #: Bare name of the enclosing class, None for module-level functions.
    cls: Optional[str] = None

    @property
    def is_init(self) -> bool:
        return self.name == "__init__"


@dataclass
class ClassInfo:
    """One class definition with its fields and methods."""

    name: str
    qualname: str
    module: str
    display_path: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Field name -> inferred type (annotation-first, ctor-call fallback).
    field_types: Dict[str, Optional[TypeRef]] = field(default_factory=dict)


def type_from_annotation(node: Optional[ast.AST]) -> Optional[TypeRef]:
    """Parse an annotation AST into a :class:`TypeRef` (best effort).

    ``Optional[X]``/``Union[X, None]`` unwrap to ``X``; string annotations
    (forward references) are re-parsed; unsupported shapes yield None.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return type_from_annotation(node)
    if isinstance(node, ast.Name):
        return TypeRef(node.id)
    if isinstance(node, ast.Attribute):
        # ``typing.Optional`` style: keep only the final component.
        return TypeRef(node.attr)
    if isinstance(node, ast.Subscript):
        head = type_from_annotation(node.value)
        if head is None:
            return None
        args: List[ast.AST] = (
            list(node.slice.elts)
            if isinstance(node.slice, ast.Tuple)
            else [node.slice]
        )
        if head.name in ("Optional", "Union"):
            for arg in args:
                if isinstance(arg, ast.Constant) and arg.value is None:
                    continue
                inner = type_from_annotation(arg)
                if inner is not None:
                    return inner
            return None
        slot = _CONTAINERS.get(head.name)
        if slot is None:
            return TypeRef(head.name)
        if slot == "value" and len(args) >= 2:
            return TypeRef(head.name, type_from_annotation(args[1]))
        return TypeRef(head.name, type_from_annotation(args[0]))
    return None


def _qual(*parts: str) -> str:
    return ".".join(p for p in parts if p)


class SymbolTable:
    """Classes, functions, and field types of one analyzed file set."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        #: Bare class name -> definitions (normally exactly one).
        self.by_name: Dict[str, List[ClassInfo]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: Bare ``module.function`` index for same-module call resolution.
        self._module_functions: Dict[Tuple[str, str], FunctionInfo] = {}
        self._env_cache: Dict[str, Dict[str, Optional[TypeRef]]] = {}
        self._mutating_cache: Dict[str, Set[str]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls, files: Sequence[Tuple[str, str, ast.Module]]
    ) -> "SymbolTable":
        """Build from ``(module, display_path, tree)`` triples: two passes
        -- declarations first, then field types (whose inference needs the
        full class index).
        """
        table = cls()
        for module, display, tree in files:
            table._collect(module, display, tree)
        for info in table.classes.values():
            table._infer_fields(info)
        return table

    def _collect(self, module: str, display: str, tree: ast.Module) -> None:
        def walk(nodes: Iterable[ast.stmt], prefix: str,
                 cls_name: Optional[str], cls_info: Optional[ClassInfo]
                 ) -> None:
            for node in nodes:
                if isinstance(node, ast.ClassDef):
                    qual = _qual(prefix, node.name)
                    info = ClassInfo(
                        name=node.name, qualname=qual, module=module,
                        display_path=display, node=node,
                        bases=[b.id for b in node.bases
                               if isinstance(b, ast.Name)],
                    )
                    self.classes[qual] = info
                    self.by_name.setdefault(node.name, []).append(info)
                    walk(node.body, qual, node.name, info)
                elif isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qual = _qual(prefix, node.name)
                    fn = FunctionInfo(
                        name=node.name, qualname=qual, module=module,
                        display_path=display, node=node, cls=cls_name,
                    )
                    self.functions[qual] = fn
                    if cls_info is not None:
                        cls_info.methods.setdefault(node.name, fn)
                    elif prefix == module:
                        self._module_functions[(module, node.name)] = fn
                    # Nested defs are plain functions (no self binding).
                    walk(node.body, qual, None, None)

        walk(tree.body, module, None, None)

    def _infer_fields(self, info: ClassInfo) -> None:
        """Field types from class-level and ``self.x`` annotations, with a
        ctor-call / annotated-parameter fallback for plain assignments."""
        for stmt in info.node.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                info.field_types[stmt.target.id] = type_from_annotation(
                    stmt.annotation
                )
        for method in info.methods.values():
            node = method.node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            env = self._param_env(node, info.name)
            for stmt in ast.walk(node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                ann: Optional[ast.expr] = None
                if isinstance(stmt, ast.AnnAssign):
                    target, value, ann = stmt.target, stmt.value, stmt.annotation
                elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                if (
                    target is None
                    or not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                name = target.attr
                if ann is not None:
                    info.field_types[name] = type_from_annotation(ann)
                elif name not in info.field_types:
                    info.field_types[name] = self.infer_expr(value, env)

    def _param_env(
        self, fn: ast.AST, cls_name: Optional[str]
    ) -> Dict[str, Optional[TypeRef]]:
        env: Dict[str, Optional[TypeRef]] = {}
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return env
        params = list(fn.args.posonlyargs) + list(fn.args.args) + list(
            fn.args.kwonlyargs
        )
        for arg in params:
            env[arg.arg] = type_from_annotation(arg.annotation)
        if cls_name is not None and params and params[0].arg in ("self", "cls"):
            env[params[0].arg] = TypeRef(cls_name)
        return env

    # -- lookups -----------------------------------------------------------

    def resolve_class(self, name: Optional[str]) -> Optional[ClassInfo]:
        """The unique class with this bare name, or None (missing or
        ambiguous -- ambiguity is treated as unresolvable, conservatively).
        """
        if name is None:
            return None
        matches = self.by_name.get(name, [])
        return matches[0] if len(matches) == 1 else None

    def field_type(self, cls_name: str, attr: str) -> Optional[TypeRef]:
        """A field's type, walking base classes by bare name."""
        seen: Set[str] = set()
        queue = [cls_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.resolve_class(current)
            if info is None:
                continue
            if attr in info.field_types:
                return info.field_types[attr]
            queue.extend(info.bases)
        return None

    def method(self, cls_name: str, attr: str) -> Optional[FunctionInfo]:
        """A method (or property function) by name, walking bases."""
        seen: Set[str] = set()
        queue = [cls_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.resolve_class(current)
            if info is None:
                continue
            if attr in info.methods:
                return info.methods[attr]
            queue.extend(info.bases)
        return None

    def module_function(
        self, module: str, name: str
    ) -> Optional[FunctionInfo]:
        return self._module_functions.get((module, name))

    def return_type(self, fn: FunctionInfo) -> Optional[TypeRef]:
        node = fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return type_from_annotation(node.returns)
        return None

    # -- local type environments -------------------------------------------

    def env_of(self, fn: FunctionInfo) -> Dict[str, Optional[TypeRef]]:
        """Flow-insensitive local types for one function (memoized).

        Parameters seed the map; then every ``name = expr`` /
        ``name: T = expr``, ``for name in iterable`` and comprehension
        generator binds its target to the inferred type.  Conflicting
        re-bindings resolve to the *last* inference that produced a type
        -- good enough to chase the read-only aliases the rules care about.
        """
        cached = self._env_cache.get(fn.qualname)
        if cached is not None:
            return cached
        env = self._param_env(fn.node, fn.cls)
        node = fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    tgt = stmt.targets[0]
                    if isinstance(tgt, ast.Name):
                        inferred = self.infer_expr(stmt.value, env)
                        if inferred is not None or tgt.id not in env:
                            env[tgt.id] = inferred
                elif isinstance(stmt, ast.AnnAssign):
                    if isinstance(stmt.target, ast.Name):
                        env[stmt.target.id] = type_from_annotation(
                            stmt.annotation
                        )
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    if isinstance(stmt.target, ast.Name):
                        env[stmt.target.id] = self._elem_of(
                            self.infer_expr(stmt.iter, env)
                        )
                elif isinstance(stmt, (
                    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp
                )):
                    for gen in stmt.generators:
                        if isinstance(gen.target, ast.Name):
                            env[gen.target.id] = self._elem_of(
                                self.infer_expr(gen.iter, env)
                            )
        self._env_cache[fn.qualname] = env
        return env

    @staticmethod
    def _elem_of(ref: Optional[TypeRef]) -> Optional[TypeRef]:
        if ref is None:
            return None
        if ref.name in _CONTAINERS:
            return ref.elem
        return None

    # -- expression inference ----------------------------------------------

    def infer_expr(
        self,
        expr: Optional[ast.AST],
        env: Dict[str, Optional[TypeRef]],
        _depth: int = 0,
    ) -> Optional[TypeRef]:
        """Best-effort type of an expression under a local environment."""
        if expr is None or _depth > 12:
            return None
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.infer_expr(expr.value, env, _depth + 1)
            if base is None:
                return None
            # A method/property access types as its return annotation --
            # that is what makes ``sched.cpus[c].rq.nr_running`` chase
            # through the property once the subscript has resolved
            # through ``_elem_of``.
            prop = self.method(base.name, expr.attr)
            if prop is not None:
                return self.return_type(prop)
            return self.field_type(base.name, expr.attr)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if self.resolve_class(func.id) is not None:
                    return TypeRef(func.id)
                if func.id in ("list", "set", "dict", "tuple", "frozenset"):
                    return TypeRef(func.id)
                # Same-module function call: use its return annotation.
                for fn in self._module_functions.values():
                    if fn.name == func.id:
                        return self.return_type(fn)
                return None
            if isinstance(func, ast.Attribute):
                base = self.infer_expr(func.value, env, _depth + 1)
                if base is None:
                    return None
                target = self.method(base.name, func.attr)
                if target is not None:
                    return self.return_type(target)
                return None
            return None
        if isinstance(expr, ast.Subscript):
            return self._elem_of(self.infer_expr(expr.value, env, _depth + 1))
        if isinstance(expr, ast.BoolOp):
            for operand in expr.values:
                inferred = self.infer_expr(operand, env, _depth + 1)
                if inferred is not None:
                    return inferred
            return None
        if isinstance(expr, ast.IfExp):
            return (
                self.infer_expr(expr.body, env, _depth + 1)
                or self.infer_expr(expr.orelse, env, _depth + 1)
            )
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            inner = dict(env)
            for gen in expr.generators:
                if isinstance(gen.target, ast.Name):
                    inner[gen.target.id] = self._elem_of(
                        self.infer_expr(gen.iter, inner, _depth + 1)
                    )
            return TypeRef("List", self.infer_expr(expr.elt, inner, _depth + 1))
        if isinstance(expr, ast.List):
            elem = (
                self.infer_expr(expr.elts[0], env, _depth + 1)
                if expr.elts else None
            )
            return TypeRef("List", elem)
        if isinstance(expr, ast.Await):
            return self.infer_expr(expr.value, env, _depth + 1)
        return None

    # -- mutation knowledge ------------------------------------------------

    def mutating_methods(self, cls_name: str) -> Set[str]:
        """Method names of ``cls_name`` that mutate ``self`` state.

        A method mutates when it (a) assigns/aug-assigns/subscript-stores
        through ``self.attr``, (b) calls a builtin mutator on a ``self``
        field, or (c) calls another mutating method of the same class
        (computed to a fixpoint).  Used to treat ``x.field.insert(...)``
        as a write to ``field`` when ``field`` holds a project class.
        """
        cached = self._mutating_cache.get(cls_name)
        if cached is not None:
            return cached
        info = self.resolve_class(cls_name)
        if info is None:
            self._mutating_cache[cls_name] = set()
            return set()
        direct: Set[str] = set()
        self_calls: Dict[str, Set[str]] = {}
        for name, method in info.methods.items():
            calls: Set[str] = set()
            writes = False
            for node in ast.walk(method.node):
                target: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    for tgt in node.targets:
                        if _is_self_attr_store(tgt):
                            writes = True
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    target = node.target
                    if _is_self_attr_store(target):
                        writes = True
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    recv = node.func.value
                    if (
                        isinstance(recv, ast.Attribute)
                        and isinstance(recv.value, ast.Name)
                        and recv.value.id == "self"
                        and node.func.attr in MUTATOR_METHODS
                    ):
                        writes = True
                    elif (
                        isinstance(recv, ast.Name) and recv.id == "self"
                    ):
                        calls.add(node.func.attr)
            if writes:
                direct.add(name)
            self_calls[name] = calls
        # Fixpoint over self-calls.
        changed = True
        while changed:
            changed = False
            for name, calls in self_calls.items():
                if name not in direct and calls & direct:
                    direct.add(name)
                    changed = True
        self._mutating_cache[cls_name] = direct
        return direct


def _is_self_attr_store(node: ast.AST) -> bool:
    """``self.attr`` or ``self.attr[...]`` as an assignment target."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )

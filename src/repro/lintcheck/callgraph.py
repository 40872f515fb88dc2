"""Project-scoped call graph and def-use model for whole-program rules.

The per-line rules in :mod:`repro.lintcheck.rules` see one module at a
time; the dataflow rules (:mod:`repro.lintcheck.cachesafety`,
:mod:`repro.lintcheck.taint`) need to follow a value across function and
module boundaries.  This module builds the shared substrate: every
module of the package containing the linted files is parsed once into a
:class:`Project` — functions and methods indexed by qualified name,
imports resolved per module, classes linked to their bases — and calls
are resolved statically by name:

* ``helper(...)``        — same-module function or an imported one;
* ``self.method(...)``   — the enclosing class, then its bases;
* ``param.method(...)``  — the class named by the parameter annotation
  (string annotations like ``"PostOpcTimingFlow"`` included);
* ``mod.func(...)``      — through the module's import aliases.

Resolution is deliberately conservative: anything dynamic (computed
attributes, values from containers, ``getattr``) resolves to ``None``
and the dataflow rules treat the call as opaque.

:func:`solve` is the one interprocedural summary fixpoint every
whole-program rule uses; :class:`BodyWalker` is the statement walk the
units and taint evaluators share.
"""

from __future__ import annotations

import ast
import heapq
import os
import re
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Generic, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Set, Tuple, TypeVar, Union,
)

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: both def flavors — async methods are indexed like sync ones, with
#: :attr:`FunctionInfo.is_async` telling them apart (the concurrency
#: rules need to know which side of the event loop a body runs on)
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: a summary value (return unit, taint labels, lock set, ...)
V = TypeVar("V")


def module_name_for(path: str) -> Tuple[str, str]:
    """(root_dir, dotted module name) for a ``.py`` file.

    Walks up while ``__init__.py`` marks the directory as a package, so
    ``src/repro/flow/stages.py`` maps to ``("src", "repro.flow.stages")``
    and a loose script maps to its own stem.
    """
    directory = os.path.dirname(os.path.abspath(path))
    parts = [os.path.splitext(os.path.basename(path))[0]]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    module = ".".join(reversed(parts))
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    return directory, module


def annotation_simple_name(node: Optional[ast.expr]) -> Optional[str]:
    """The class-ish simple name an annotation points at, if any.

    ``FlowConfig`` -> ``FlowConfig``; ``"PostOpcTimingFlow"`` (a string
    annotation) -> ``PostOpcTimingFlow``; ``Optional["FlowConfig"]``
    unwraps to the inner name.  Containers and unions keep the *last*
    identifier — good enough for the parameter-role resolution the
    dataflow rules need, and harmless when wrong (calls just become
    unresolvable).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = _IDENTIFIER_RE.findall(node.value)
        return names[-1] if names else None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        outer = annotation_simple_name(node.value)
        if outer in ("Optional", "Final", "Annotated", "ClassVar"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                return annotation_simple_name(inner.elts[0])
            return annotation_simple_name(inner)
        return outer
    return None


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    path: str
    node: FunctionNode
    class_qualname: Optional[str] = None
    is_property: bool = False

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    @property
    def display(self) -> str:
        """Short human label: ``Class.method`` or ``func``."""
        parts = self.qualname.split(".")
        if self.class_qualname is not None:
            return ".".join(parts[-2:])
        return parts[-1]

    @property
    def params(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        names.extend(a.arg for a in args.kwonlyargs)
        return names

    def param_annotation(self, param: str) -> Optional[str]:
        args = self.node.args
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            if a.arg == param:
                return annotation_simple_name(a.annotation)
        return None


@dataclass
class ClassInfo:
    """One class definition with its method table."""

    qualname: str
    module: str
    path: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ModuleInfo:
    """One parsed module of the project."""

    name: str
    path: str
    tree: ast.Module
    #: local binding -> dotted import target ("pkg.mod" or "pkg.mod.obj")
    imports: Dict[str, str] = field(default_factory=dict)
    #: module-level ``NAME = <constant>`` assignments (shape-hash input)
    constants: Dict[str, ast.expr] = field(default_factory=dict)
    #: top-level function name -> qualname
    functions: Dict[str, str] = field(default_factory=dict)
    #: top-level class name -> qualname
    classes: Dict[str, str] = field(default_factory=dict)


def _is_property_def(node: FunctionNode) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "property":
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr == "cached_property":
            return True
    return False


class Project:
    """Every module reachable from the linted files, cross-indexed.

    ``selected`` holds the (absolute) paths the user actually asked to
    lint; sibling modules of their packages are loaded as *context* so
    calls resolve, but findings are only anchored in selected files.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.classes_by_name: Dict[str, List[str]] = {}
        self.selected: Set[str] = set()
        #: path of the checked-in stage fingerprint file (stale-version
        #: heuristic); None disables that rule for the run
        self.stage_fingerprints_path: Optional[str] = None
        #: scratch space for rules to share derived analyses (the
        #: cache-safety rules reuse one stage traversal this way)
        self.analysis_cache: Dict[str, Any] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_files(
        cls,
        paths: Sequence[str],
        stage_fingerprints_path: Optional[str] = None,
    ) -> "Project":
        project = cls()
        project.stage_fingerprints_path = stage_fingerprints_path
        to_load: Dict[str, Tuple[str, str]] = {}  # abspath -> (modname, display)
        for path in paths:
            if not path.endswith(".py") or not os.path.isfile(path):
                continue
            abspath = os.path.abspath(path)
            project.selected.add(abspath)
            root, modname = module_name_for(path)
            to_load[abspath] = (modname, path)
            # Pull in the rest of the top-level package as context, so
            # cross-module calls from the selected files resolve.
            top = modname.split(".")[0]
            package_dir = os.path.join(root, top)
            if os.path.isfile(os.path.join(package_dir, "__init__.py")):
                for walk_root, dirnames, filenames in os.walk(package_dir):
                    dirnames.sort()
                    dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                    for filename in sorted(filenames):
                        if not filename.endswith(".py"):
                            continue
                        sibling = os.path.join(walk_root, filename)
                        sibling_abs = os.path.abspath(sibling)
                        if sibling_abs not in to_load:
                            _, sib_mod = module_name_for(sibling)
                            to_load[sibling_abs] = (sib_mod, sibling)
        for abspath in sorted(to_load):
            modname, display = to_load[abspath]
            project._load_module(abspath, modname, display)
        return project

    def _load_module(self, abspath: str, modname: str, display: str) -> None:
        try:
            with open(abspath, "r", encoding="utf-8") as fh:
                text = fh.read()
            tree = ast.parse(text, filename=display)
        except (OSError, SyntaxError, ValueError):
            return  # the per-module engine reports unparseable files
        if modname in self.modules:
            return
        info = ModuleInfo(name=modname, path=display, tree=tree)
        self.modules[modname] = info
        self._index_imports(info)
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.constants[target.id] = stmt.value
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{modname}.{stmt.name}"
                info.functions[stmt.name] = qualname
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=modname, path=display, node=stmt
                )
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(info, stmt)

    def _index_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{info.name}.{node.name}"
        bases: List[str] = []
        for base in node.bases:
            base_name = annotation_simple_name(base)
            if base_name:
                bases.append(base_name)
        cls_info = ClassInfo(
            qualname=qualname, module=info.name, path=info.path,
            node=node, bases=bases,
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qualname = f"{qualname}.{item.name}"
                is_prop = _is_property_def(item)
                cls_info.methods[item.name] = method_qualname
                if is_prop:
                    cls_info.properties.add(item.name)
                self.functions[method_qualname] = FunctionInfo(
                    qualname=method_qualname, module=info.name, path=info.path,
                    node=item, class_qualname=qualname, is_property=is_prop,
                )
        info.classes[node.name] = qualname
        self.classes[qualname] = cls_info
        self.classes_by_name.setdefault(node.name, []).append(qualname)

    def _index_imports(self, info: ModuleInfo) -> None:
        package_parts = info.name.split(".")[:-1]
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        info.imports[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        info.imports[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = package_parts[: len(package_parts) - (node.level - 1)]
                    if node.level > len(package_parts) + 1:
                        continue
                else:
                    base = []
                prefix = list(base)
                if node.module:
                    prefix.extend(node.module.split("."))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    info.imports[bound] = ".".join(prefix + [alias.name])

    # -- queries ------------------------------------------------------------

    def is_selected(self, path: str) -> bool:
        return os.path.abspath(path) in self.selected

    def iter_selected_modules(self) -> Iterator[ModuleInfo]:
        for name in sorted(self.modules):
            info = self.modules[name]
            if self.is_selected(info.path):
                yield info

    def resolve_class(
        self, simple_name: str, prefer_module: Optional[str] = None
    ) -> Optional[ClassInfo]:
        candidates = self.classes_by_name.get(simple_name)
        if not candidates:
            return None
        if prefer_module is not None:
            for qualname in candidates:
                if self.classes[qualname].module == prefer_module:
                    return self.classes[qualname]
            # Same top-level package beats an unrelated homonym.
            top = prefer_module.split(".")[0]
            for qualname in candidates:
                if qualname.split(".")[0] == top:
                    return self.classes[qualname]
        return self.classes[sorted(candidates)[0]]

    def resolve_method(
        self,
        cls: ClassInfo,
        method: str,
        _seen: Optional[Set[str]] = None,
    ) -> Optional[FunctionInfo]:
        """Look a method up on a class, then on its bases (by name)."""
        seen = _seen if _seen is not None else set()
        if cls.qualname in seen:
            return None
        seen.add(cls.qualname)
        if method in cls.methods:
            return self.functions[cls.methods[method]]
        for base_name in cls.bases:
            base = self.resolve_class(base_name, prefer_module=cls.module)
            if base is not None:
                found = self.resolve_method(base, method, _seen=seen)
                if found is not None:
                    return found
        return None

    def class_of(self, func: FunctionInfo) -> Optional[ClassInfo]:
        if func.class_qualname is None:
            return None
        return self.classes.get(func.class_qualname)

    def is_subclass_of(self, cls: ClassInfo, base_simple_name: str) -> bool:
        """Transitive base check by simple name (in-project bases only)."""
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            for base_name in current.bases:
                if base_name == base_simple_name:
                    return True
                base = self.resolve_class(base_name, prefer_module=current.module)
                if base is not None:
                    stack.append(base)
        return False

    def iter_subclasses(self, base_simple_name: str) -> Iterator[ClassInfo]:
        """Every project class transitively deriving from the named base."""
        for qualname in sorted(self.classes):
            cls = self.classes[qualname]
            if cls.name != base_simple_name and self.is_subclass_of(
                cls, base_simple_name
            ):
                yield cls

    def resolve_call(
        self,
        caller: FunctionInfo,
        func: ast.expr,
        local_classes: Optional[Mapping[str, str]] = None,
    ) -> Optional[FunctionInfo]:
        """Statically resolve the callee of ``func(...)`` from ``caller``.

        ``local_classes`` maps local names to class simple names (roles
        the dataflow rules track beyond what annotations say).  Returns
        None for anything dynamic.
        """
        module = self.modules.get(caller.module)
        if module is None:
            return None
        if isinstance(func, ast.Name):
            qualname = module.functions.get(func.id)
            if qualname is not None:
                return self.functions[qualname]
            target = module.imports.get(func.id)
            if target is not None and target in self.functions:
                return self.functions[target]
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            receiver, method = func.value.id, func.attr
            cls = self._receiver_class(caller, receiver, local_classes)
            if cls is not None:
                return self.resolve_method(cls, method)
            target = module.imports.get(receiver)
            if target is not None:
                qualname = f"{target}.{method}"
                if qualname in self.functions:
                    return self.functions[qualname]
            return None
        return None

    def resolve_property(
        self,
        caller: FunctionInfo,
        receiver: str,
        attr: str,
        local_classes: Optional[Mapping[str, str]] = None,
    ) -> Optional[FunctionInfo]:
        """The property getter behind ``receiver.attr``, if it is one."""
        cls = self._receiver_class(caller, receiver, local_classes)
        if cls is None:
            return None
        found = self.resolve_method(cls, attr)
        if found is not None and found.is_property:
            return found
        return None

    def _receiver_class(
        self,
        caller: FunctionInfo,
        receiver: str,
        local_classes: Optional[Mapping[str, str]] = None,
    ) -> Optional[ClassInfo]:
        if local_classes and receiver in local_classes:
            return self.resolve_class(local_classes[receiver],
                                      prefer_module=caller.module)
        if receiver == "self" and caller.class_qualname is not None:
            return self.classes.get(caller.class_qualname)
        annotated = caller.param_annotation(receiver)
        if annotated is not None:
            return self.resolve_class(annotated, prefer_module=caller.module)
        return None

    def referenced_module_constants(
        self, func: FunctionInfo
    ) -> List[Tuple[str, str, str]]:
        """(module, name, constant dump) for module-level constants the
        function body reads — part of the stale-version shape, so editing
        ``CANONICAL_PERIOD_PS = 1000.0`` counts as a code-shape change."""
        module = self.modules.get(func.module)
        if module is None or not module.constants:
            return []
        out: List[Tuple[str, str, str]] = []
        seen: Set[str] = set()
        for node in ast.walk(func.node):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in module.constants
                and node.id not in seen
            ):
                seen.add(node.id)
                out.append((module.name, node.id,
                            ast.dump(module.constants[node.id])))
        return sorted(out)


def solve(
    keys: Iterable[str],
    initial: Mapping[str, V],
    transfer: Callable[[str, Callable[[str], Optional[V]]], V],
) -> Dict[str, V]:
    """The interprocedural summary fixpoint, over function qualnames.

    ``transfer(key, read)`` returns ``key``'s summary; ``read(other)``
    returns ``other``'s current summary (seeded from ``initial``, None
    when it has none) and records that ``key`` depends on it.  Every key
    is evaluated once; after that a key is re-evaluated only when a
    summary it read has changed.  Pending keys run in sorted order, so
    the result does not depend on dict or set order.  A total budget of
    ten evaluations per key is the backstop for a transfer that never
    settles, not a convergence criterion.
    """
    values: Dict[str, V] = dict(initial)
    readers: Dict[str, Set[str]] = {}
    pending = sorted(set(keys))  # a sorted list is a valid heap
    queued = set(pending)
    budget = 10 * len(pending)
    while pending and budget:
        budget -= 1
        key = heapq.heappop(pending)
        queued.discard(key)

        def read(other: str) -> Optional[V]:
            readers.setdefault(other, set()).add(key)
            return values.get(other)

        value = transfer(key, read)
        if value != values.get(key):
            values[key] = value
            for reader in readers.get(key, ()):
                if reader not in queued:
                    queued.add(reader)
                    heapq.heappush(pending, reader)
    return values


class BodyWalker(Generic[V]):
    """One forward pass over a function body, generic in the value domain.

    The statement walk the units and taint evaluators share: assignments
    bind, both arms of every branch and loop run against one environment
    (an over-approximation), and nested defs/classes are skipped (they get
    their own summaries).  Subclasses supply :meth:`eval`, :meth:`_bind`
    and the hooks for annotated/augmented assignment, ``return``, and the
    value a ``for`` loop or comprehension iterates.
    """

    def eval(self, expr: ast.expr) -> V:
        raise NotImplementedError

    def _bind(self, target: ast.expr, value: V, source: Optional[ast.expr]) -> None:
        raise NotImplementedError

    def _ann_assign(self, stmt: ast.AnnAssign) -> None:
        raise NotImplementedError

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        raise NotImplementedError

    def _return(self, value: V) -> None:
        raise NotImplementedError

    def _iterate(self, iterable: ast.expr) -> V:
        """Value bound to the loop target: by default the iterable's own
        (iterating a sequence of X yields X per element)."""
        return self.eval(iterable)

    def exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, value, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            self._ann_assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._return(self.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._iterate(stmt.iter), None)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self.eval(stmt.test)
            self.exec_block(stmt.body)
            self.exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value, None)
            self.exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body)
            for handler in stmt.handlers:
                self.exec_block(handler.body)
            self.exec_block(stmt.orelse)
            self.exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)

    def _enter_generators(self, generators: Sequence[ast.comprehension]) -> None:
        """Bind a comprehension's targets and evaluate its conditions."""
        for gen in generators:
            self._bind(gen.target, self._iterate(gen.iter), None)
            for condition in gen.ifs:
                self.eval(condition)


def dotted_name(module: ModuleInfo, expr: ast.expr) -> Optional[str]:
    """Fully-qualified dotted name of ``expr`` via the module's imports.

    ``np.random.default_rng`` -> ``numpy.random.default_rng`` when the
    module did ``import numpy as np``; a bare imported name resolves to
    its target (``from time import time`` makes ``time`` ->
    ``time.time``), any other bare name to itself, and everything local
    or dynamic to None."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = module.imports.get(node.id)
    if root is None:
        return node.id if not parts else None
    return ".".join([root] + list(reversed(parts)))


def call_simple_name(call: ast.Call) -> Optional[str]:
    """``f`` for ``f(...)`` and ``obj.f(...)``; None for anything else."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def frozen_env(env: Mapping[str, str]) -> FrozenSet[Tuple[str, str]]:
    """Hashable view of a role/class environment (memoization key)."""
    return frozenset(env.items())

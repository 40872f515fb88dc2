"""The built-in rule set of the determinism/contract checker.

Every rule documents the invariant it protects; scopes follow the
guarantees, not the directory layout for its own sake — e.g. unordered
iteration only corrupts behaviour where order reaches an artifact key,
a journal line, or an export stream, so that rule pins ``repro/flow/``.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Set, Tuple, cast

from repro.lintcheck.cachesafety import STAGE_BASE, returned_dicts, stage_name_and_version
from repro.lintcheck.callgraph import (
    ModuleInfo, dotted_name, index_imports, module_name_for, walk_skipping_functions,
)
from repro.lintcheck.core import Finding, LintRule, ModuleSource, register


def _dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _parent_map(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _inside_sorted_call(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """True when ``node`` sits under the arguments of a ``sorted(...)``
    call — the sort re-establishes a deterministic order downstream."""
    current: Optional[ast.AST] = node
    while current is not None:
        parent = parents.get(current)
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted"
            and current is not parent.func
        ):
            return True
        current = parent
    return False


def _scope_nodes(roots: List[ast.AST]) -> Iterator[ast.AST]:
    """Every node of one scope.  A nested def is yielded with its
    decorators, defaults and annotations, but its body is its own scope."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        children = ast.iter_child_nodes(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            children = (child for child in children if child not in node.body)
        stack.extend(children)


# ---------------------------------------------------------------------------
# Rule 1: unseeded-rng
# ---------------------------------------------------------------------------

#: the only sanctioned constructors of randomness; everything else on the
#: ``random`` / ``numpy.random`` modules draws from hidden global state
_RANDOM_ALLOWED = {"Random"}
_NUMPY_RANDOM_ALLOWED = {
    "default_rng", "RandomState", "Generator", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}


@register
class UnseededRngRule(LintRule):
    """All randomness must flow from an explicitly seeded generator.

    Module-level calls (``random.gauss``, ``np.random.normal``,
    ``random.seed``) draw from interpreter-global state that any import
    or test-ordering change silently perturbs — which breaks
    bit-identical resume.  Constructing a generator *without* a seed
    (``random.Random()``, ``default_rng()``) is flagged for the same
    reason.  Calls resolve through the module's imports
    (:func:`~repro.lintcheck.callgraph.index_imports`), so ``np.random``
    and from-imported names are caught under any alias, and through plain
    ``name = <random module>`` assignments of the enclosing module or
    function scopes (``r = np.random; r.normal()``).
    """

    id = "unseeded-rng"
    title = "RNG must be an explicit seeded generator"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        info = ModuleInfo(name=module_name_for(module.path)[1],
                          path=module.path, tree=module.tree)
        index_imports(info)
        yield from self._check_scope(module, info, [module.tree])

    def _check_scope(self, module: ModuleSource, info: ModuleInfo,
                     roots: List[ast.AST]) -> Iterator[Finding]:
        """Check one module or function scope; nested defs recurse with
        this scope's module aliases in view."""
        nodes = list(_scope_nodes(roots))
        assigns = sorted(
            (node for node in nodes if isinstance(node, ast.Assign)
             and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)),
            key=lambda node: (node.lineno, node.col_offset),
        )
        for node in assigns:
            target = dotted_name(info, node.value)
            if target is not None and target in ("random", "numpy.random"):
                name = cast(ast.Name, node.targets[0]).id
                info = replace(info, imports={**info.imports, name: target})
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(module, info, list(node.body))
            if not isinstance(node, ast.Call):
                continue
            target = dotted_name(info, node.func)
            package, _, attr = (target or "").rpartition(".")
            if package == "random":
                allowed, remedy = _RANDOM_ALLOWED, "an explicit `random.Random(seed)`"
            elif package == "numpy.random":
                allowed, remedy = _NUMPY_RANDOM_ALLOWED, "`numpy.random.default_rng(seed)`"
            else:
                continue
            spelled = ast.unparse(node.func)
            if attr in allowed:
                if not self._has_seed(node):
                    yield self.finding(
                        module, node,
                        f"`{spelled}()` constructed without a seed; pass an "
                        "explicit seed so reruns are bit-identical",
                    )
            elif isinstance(node.func, ast.Name):
                yield self.finding(
                    module, node,
                    f"module-level RNG call `{target}` uses hidden global "
                    "state; draw from an explicit seeded generator",
                )
            else:
                yield self.finding(
                    module, node,
                    f"module-level RNG call `{spelled}` uses hidden global "
                    f"state; draw from {remedy}",
                )

    @staticmethod
    def _has_seed(call: ast.Call) -> bool:
        if call.args:
            first = call.args[0]
            return not (isinstance(first, ast.Constant) and first.value is None)
        return any(kw.arg == "seed" and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        ) for kw in call.keywords)


# ---------------------------------------------------------------------------
# Rule 2: unordered-iteration
# ---------------------------------------------------------------------------


@register
class UnorderedIterationRule(LintRule):
    """Set iteration in hashing/journaling/export paths needs ``sorted``.

    ``repro/flow/`` turns iteration order into artifact keys, journal
    lines and export streams; iterating a ``set``/``frozenset`` there
    leaks ``PYTHONHASHSEED`` into supposedly content-addressed output.
    Flagged: ``for`` loops and comprehensions whose iterable is a set
    literal, a set/frozenset constructor, a set-typed annotation, or a
    local assigned from one — unless the iteration sits under a
    ``sorted(...)`` call.
    """

    id = "unordered-iteration"
    title = "sort set iteration in hash/journal/export paths"

    def applies_to(self, path: str) -> bool:
        return "repro/flow/" in path or "repro/flow" == path.rstrip("/")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        parents = _parent_map(module.tree)
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(
            node for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            set_vars = self._set_origin_locals(scope)
            for node in self._own_nodes(scope):
                iters: List[ast.expr] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp, ast.DictComp)):
                    iters.extend(gen.iter for gen in node.generators)
                for iterable in iters:
                    if not self._is_set_like(iterable, set_vars):
                        continue
                    if _inside_sorted_call(iterable, parents):
                        continue
                    yield self.finding(
                        module, iterable,
                        "iteration order of a set/frozenset depends on "
                        "PYTHONHASHSEED and poisons hashes/journals/exports; "
                        "wrap the iterable in sorted(...)",
                    )

    def _own_nodes(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without re-entering nested function scopes (they
        are visited as scopes of their own, with their own locals)."""
        children = (
            scope.body if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            else [scope]
        )
        yield from walk_skipping_functions(children)

    def _set_origin_locals(self, scope: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in self._own_nodes(scope):
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if self._is_set_annotation(node.annotation) or (
                    node.value is not None and self._is_set_expr(node.value, names)
                ):
                    names.add(node.target.id)
        return names

    def _is_set_like(self, node: ast.expr, set_vars: Set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in set_vars
        return self._is_set_expr(node, set_vars)

    def _is_set_expr(self, node: ast.expr, set_vars: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp):
            return (
                self._is_set_like(node.left, set_vars)
                or self._is_set_like(node.right, set_vars)
            )
        return False

    @staticmethod
    def _is_set_annotation(annotation: ast.expr) -> bool:
        target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
        dotted = _dotted_name(target)
        return bool(dotted) and dotted[-1] in (
            "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"
        )


# ---------------------------------------------------------------------------
# Rule 3: stage-contract
# ---------------------------------------------------------------------------


@register
class StageContractRule(LintRule):
    """Every FlowStage subclass declares its cache-key contract statically.

    ``name`` and an integer ``version`` are folded into every artifact
    key; a subclass inheriting them silently shares (or silently
    invalidates) cache entries.  Artifact dicts returned by ``run`` must
    use string-literal keys so the declared artifact names stay
    statically auditable.
    """

    id = "stage-contract"
    title = "FlowStage subclasses declare name + integer version"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(
                (dotted := _dotted_name(base)) and dotted[-1] == STAGE_BASE
                for base in node.bases
            ):
                continue
            name, version = stage_name_and_version(node)
            if not name:
                yield self.finding(
                    module, node,
                    f"stage {node.name!r} must declare a non-empty class-level "
                    "string `name` (it is part of every artifact key)",
                )
            if version is None:
                yield self.finding(
                    module, node,
                    f"stage {node.name!r} must declare a class-level integer "
                    "`version` (bump it when output semantics change, so "
                    "persistent caches recompute instead of serving stale "
                    "artifacts)",
                )
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "run":
                    yield from self._check_artifact_keys(module, node, item)

    def _check_artifact_keys(
        self, module: ModuleSource, cls: ast.ClassDef, run: ast.FunctionDef
    ) -> Iterator[Finding]:
        returned, _ = returned_dicts(run)
        for artifacts in returned:
            for key in artifacts.keys:
                if key is None:
                    continue  # dict unpacking merges already-checked dicts
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    yield self.finding(
                        module, key,
                        f"stage {cls.name!r}: artifact keys returned by run() "
                        "must be string literals so the stage's outputs are "
                        "statically auditable",
                    )


# ---------------------------------------------------------------------------
# Rule 4: broad-except
# ---------------------------------------------------------------------------


@register
class BroadExceptRule(LintRule):
    """Broad catches in the flow layer must re-raise or be waived.

    The exit-code contract only holds if failures travel through the
    FlowError taxonomy; an ``except Exception`` that swallows is a latent
    contract hole.  Compliant handlers contain a ``raise`` (bare re-raise
    or wrapping in a FlowError subclass); deliberate tolerance (cache
    corruption, top-level CLI mapping) carries an explicit waiver with
    its justification.
    """

    id = "broad-except"
    title = "flow-layer broad except must re-raise, wrap, or waive"

    def applies_to(self, path: str) -> bool:
        return "repro/flow/" in path or path.endswith("repro/__main__.py")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if any(isinstance(inner, ast.Raise)
                   for inner in walk_skipping_functions(node.body)):
                continue
            yield self.finding(
                module, node,
                "broad except swallows the failure outside the FlowError "
                "taxonomy; re-raise, wrap in a FlowError subclass, or waive "
                "with a one-line justification",
            )

    def _is_broad(self, type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True  # bare except
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(item) for item in type_node.elts)
        dotted = _dotted_name(type_node)
        return bool(dotted) and dotted[-1] in ("Exception", "BaseException")


# ---------------------------------------------------------------------------
# Rule 5: mutable-default
# ---------------------------------------------------------------------------

_MUTABLE_CTORS = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict"}


@register
class MutableDefaultRule(LintRule):
    """No mutable default arguments, anywhere.

    A mutable default is shared across calls: state leaks between flow
    runs and between tests, the classic source of
    works-alone-fails-in-suite bugs.  Use ``None`` plus an inside-the-
    function default (or ``dataclasses.field(default_factory=...)``).
    """

    id = "mutable-default"
    title = "no mutable default arguments"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            label = getattr(node, "name", "<lambda>")
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module, default,
                        f"mutable default argument in {label!r} is shared "
                        "across calls; default to None and create the value "
                        "inside the function",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            return bool(dotted) and dotted[-1] in _MUTABLE_CTORS
        return False

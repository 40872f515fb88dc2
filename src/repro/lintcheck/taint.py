"""Inter-procedural entropy taint analysis.

The syntactic ``hash-entropy`` rule only sees a source and a sink in the
same function.  This module follows a value: every project function gets
a *taint summary* — which entropy sources (and which of its own
parameters) can reach its return value — solved over the call graph by
the shared :func:`~repro.lintcheck.callgraph.solve`, so ``time.time()``
laundered through two helpers is still attached to the ``stable_hash``
argument it finally lands in.  Summaries only grow, and a label's chain
never repeats a function (recursion adds no hop), so the solve
terminates on its own.  Findings carry the full source→sink path::

    entropy-taint time.time() (corpus/taint_chain.py:6) -> _now -> _label
    -> stable_hash() argument

Sources: ``time.*``, unseeded ``random``/``numpy.random``,
``os.urandom``, ``uuid.*``, ``secrets.*``, wall-clock ``datetime``
constructors, builtin ``id()``/``hash()``, and unsorted iteration over a
set (dict iteration is insertion-ordered on every supported Python and
is exempt).  Seeded constructors (``random.Random(0)``,
``default_rng(7)``) are not sources, and ``sorted()``/``min()``/``max()``
sanitize order-taint.

Sinks: arguments of ``stable_hash`` (the Merkle artifact key), values of
the dict a ``FlowStage.run()`` returns (cached artifacts), and arguments
of ``record_*`` journal methods (the replayable run journal).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.lintcheck.callgraph import (
    BodyWalker,
    FunctionInfo,
    ModuleInfo,
    Project,
    dotted_name,
    solve,
)
from repro.lintcheck.core import Finding, ProjectRule, register

KIND_ENTROPY = "entropy"
KIND_ORDER = "order"

#: dotted-prefix sources (resolved through each module's import aliases)
_SOURCE_PREFIXES = ("time.", "random.", "numpy.random.", "uuid.", "secrets.")
#: exact dotted sources
_SOURCE_EXACT = frozenset({"os.urandom", "os.getpid", "os.times", "time", "uuid"})
#: builtins that depend on interpreter state (addresses, PYTHONHASHSEED)
_SOURCE_BUILTINS = frozenset({"id", "hash"})
#: wall-clock datetime constructors (``datetime.datetime.now()`` etc.)
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
#: RNG constructors/seeders that are deterministic *when given a seed*
_SEEDABLE = frozenset({
    "random.Random", "random.seed",
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.seed",
})
#: calls whose result does not depend on argument order or entropy
_SCRUB_ALL = frozenset({"len", "isinstance", "issubclass", "type", "callable"})
#: calls that erase iteration-order dependence but keep entropy
_SCRUB_ORDER = frozenset({"sorted", "min", "max", "sum", "any", "all",
                          "set", "frozenset"})


@dataclass(frozen=True, order=True)
class TaintLabel:
    """One entropy source observed to reach a value."""

    kind: str
    source: str            # human description incl. path:line
    chain: Tuple[str, ...]  # functions the value passed through

    def through(self, func_display: str) -> "TaintLabel":
        if func_display in self.chain:
            return self  # recursion adds no hop: chains stay cycle-free
        return TaintLabel(self.kind, self.source, self.chain + (func_display,))

    def describe(self, sink: str) -> str:
        hops: Tuple[str, ...] = self.chain + (sink,)
        return f"{self.source} -> {' -> '.join(hops)}"


@dataclass(frozen=True, order=True)
class ParamTaint:
    """Summary placeholder: 'whatever taint parameter ``index`` carries'."""

    index: int


Label = Union[TaintLabel, ParamTaint]
Labels = FrozenSet[Label]
_EMPTY: Labels = frozenset()
#: a callee's return-taint summary, None while unknown
Reader = Callable[[str], Optional[Labels]]
#: (call node, sink description, labels reaching it)
SinkHit = Tuple[ast.AST, str, Labels]


def _is_source(dotted: str, call: ast.Call) -> bool:
    if dotted in _SEEDABLE:
        return not (call.args or call.keywords)  # seedless => entropy
    if dotted in _SOURCE_EXACT or dotted in _SOURCE_BUILTINS:
        return True
    if any(dotted.startswith(prefix) for prefix in _SOURCE_PREFIXES):
        return True
    if dotted.startswith("datetime.") and dotted.rsplit(".", 1)[-1] in _DATETIME_ATTRS:
        return True
    return False


def _root_name(expr: ast.expr) -> Optional[str]:
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


class _Evaluator(BodyWalker[Labels]):
    """Single forward pass over one function body.

    Tracks per-variable label sets and which variables hold sets (so
    iterating one adds order-taint).  With ``hits`` given, every tainted
    sink call is appended to it."""

    def __init__(
        self,
        project: Project,
        module: ModuleInfo,
        func: Optional[FunctionInfo],
        read: Reader,
        hits: Optional[List[SinkHit]] = None,
    ) -> None:
        self.project = project
        self.module = module
        self.func = func
        self.read = read
        self.hits = hits
        self.env: Dict[str, Labels] = {}
        self.setvars: Set[str] = set()
        self.returns: Labels = _EMPTY

    # -- statement hooks ----------------------------------------------------

    def _ann_assign(self, stmt: ast.AnnAssign) -> None:
        if stmt.value is not None:
            self._bind(stmt.target, self.eval(stmt.value), stmt.value)

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        labels = self.eval(stmt.value)
        if isinstance(stmt.target, ast.Name):
            self.env[stmt.target.id] = self.env.get(stmt.target.id, _EMPTY) | labels

    def _return(self, value: Labels) -> None:
        self.returns = self.returns | value

    def _iterate(self, iterable: ast.expr) -> Labels:
        labels = self.eval(iterable)
        if self._is_setlike(iterable):
            labels = labels | frozenset({self._order_label(iterable)})
        return labels

    def _bind(self, target: ast.expr, labels: Labels,
              source: Optional[ast.expr]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = labels
            if source is not None and self._is_setlike(source):
                self.setvars.add(target.id)
            else:
                self.setvars.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, labels, None)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, labels, None)

    # -- expressions --------------------------------------------------------

    def eval(self, expr: ast.expr) -> Labels:
        if isinstance(expr, ast.Constant):
            return _EMPTY
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, _EMPTY)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.Attribute):
            return self.eval(expr.value)
        if isinstance(expr, ast.Subscript):
            return self.eval(expr.value) | self.eval(expr.slice)
        if isinstance(expr, ast.BinOp):
            return self.eval(expr.left) | self.eval(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self.eval(expr.operand)
        if isinstance(expr, ast.BoolOp):
            out: Labels = _EMPTY
            for value in expr.values:
                out = out | self.eval(value)
            return out
        if isinstance(expr, ast.Compare):
            out = self.eval(expr.left)
            for comparator in expr.comparators:
                out = out | self.eval(comparator)
            return out
        if isinstance(expr, ast.IfExp):
            return self.eval(expr.test) | self.eval(expr.body) | self.eval(expr.orelse)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            out = _EMPTY
            for element in expr.elts:
                out = out | self.eval(element)
            return out
        if isinstance(expr, ast.Dict):
            out = _EMPTY
            for key in expr.keys:
                if key is not None:
                    out = out | self.eval(key)
            for value in expr.values:
                out = out | self.eval(value)
            return out
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(expr.generators, [expr.elt])
        if isinstance(expr, ast.DictComp):
            return self._eval_comprehension(expr.generators,
                                            [expr.key, expr.value])
        if isinstance(expr, (ast.JoinedStr, ast.FormattedValue)):
            out = _EMPTY
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    out = out | self.eval(child)
            return out
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value)
        if isinstance(expr, (ast.Await, ast.YieldFrom)):
            return self.eval(expr.value)
        if isinstance(expr, ast.Yield):
            return self.eval(expr.value) if expr.value is not None else _EMPTY
        if isinstance(expr, ast.Lambda):
            return _EMPTY
        if isinstance(expr, ast.NamedExpr):
            labels = self.eval(expr.value)
            self._bind(expr.target, labels, expr.value)
            return labels
        return _EMPTY

    def _eval_comprehension(
        self, generators: Sequence[ast.comprehension], elts: Sequence[ast.expr]
    ) -> Labels:
        self._enter_generators(generators)
        out: Labels = _EMPTY
        for elt in elts:
            out = out | self.eval(elt)
        return out

    def _is_setlike(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Set) or isinstance(expr, ast.SetComp):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("set", "frozenset"):
                return True
        if isinstance(expr, ast.Name):
            return expr.id in self.setvars
        return False

    def _order_label(self, expr: ast.expr) -> TaintLabel:
        return TaintLabel(
            KIND_ORDER,
            f"unsorted set iteration ({self.module.path}:{expr.lineno})",
            (),
        )

    def _eval_call(self, call: ast.Call) -> Labels:
        arg_labels: List[Labels] = [self.eval(arg) for arg in call.args]
        kw_labels: Dict[str, Labels] = {}
        anon_kw: Labels = _EMPTY
        for keyword in call.keywords:
            labels = self.eval(keyword.value)
            if keyword.arg is None:
                anon_kw = anon_kw | labels
            else:
                kw_labels[keyword.arg] = labels
        everything: Labels = anon_kw
        for labels in arg_labels:
            everything = everything | labels
        for labels in kw_labels.values():
            everything = everything | labels

        dotted = dotted_name(self.module, call.func)
        self._check_sinks(call, dotted, everything)

        if dotted is not None and _is_source(dotted, call):
            return frozenset({TaintLabel(
                KIND_ENTROPY,
                f"{dotted}() ({self.module.path}:{call.lineno})",
                (),
            )}) | everything
        if dotted in _SCRUB_ALL:
            return _EMPTY
        if dotted in _SCRUB_ORDER:
            return frozenset(
                label for label in everything
                if not (isinstance(label, TaintLabel) and label.kind == KIND_ORDER)
            )
        if dotted in ("list", "tuple"):
            # list(s)/tuple(s) of a set materializes its arbitrary order
            if call.args and self._is_setlike(call.args[0]):
                return everything | frozenset({self._order_label(call.args[0])})
            return everything

        callee = self._resolve(call)
        if callee is not None:
            return self._apply_summary(call, callee, arg_labels, kw_labels,
                                       everything)
        # Opaque call: taint flows through, receiver included — and a
        # mutating method (`out.append(name)`) taints its receiver.
        receiver = _root_name(call.func)
        if receiver is not None:
            everything = everything | self.env.get(receiver, _EMPTY)
            if isinstance(call.func, ast.Attribute) and everything:
                self.env[receiver] = self.env.get(receiver, _EMPTY) | everything
        return everything

    def _resolve(self, call: ast.Call) -> Optional[FunctionInfo]:
        if self.func is None:
            return None
        return self.project.resolve_call(self.func, call.func, None)

    def _apply_summary(
        self,
        call: ast.Call,
        callee: FunctionInfo,
        arg_labels: List[Labels],
        kw_labels: Dict[str, Labels],
        fallback: Labels,
    ) -> Labels:
        summary = self.read(callee.qualname)
        if summary is None:
            return fallback
        params = callee.params
        offset = 1 if (
            callee.class_qualname is not None
            and isinstance(call.func, ast.Attribute)
        ) else 0
        out: Labels = _EMPTY
        for label in summary:
            if isinstance(label, ParamTaint):
                position = label.index - offset
                param = params[label.index] if label.index < len(params) else None
                if 0 <= position < len(arg_labels):
                    out = out | arg_labels[position]
                elif param is not None and param in kw_labels:
                    out = out | kw_labels[param]
            else:
                out = out | frozenset({label})
        return out

    def _check_sinks(
        self, call: ast.Call, dotted: Optional[str], tainted: Labels
    ) -> None:
        if self.hits is None or not tainted:
            return
        if dotted is not None and dotted.rsplit(".", 1)[-1] == "stable_hash":
            self.hits.append((call, "stable_hash() argument", tainted))
        elif (
            isinstance(call.func, ast.Attribute)
            and call.func.attr.startswith("record_")
        ):
            self.hits.append((call, f"journal {call.func.attr}()", tainted))


# ---------------------------------------------------------------------------
# Summaries (fixpoint) and the rule
# ---------------------------------------------------------------------------


def compute_summaries(project: Project) -> Dict[str, Labels]:
    """Return-taint summary per function qualname, solved to a fixpoint."""
    cached = project.analysis_cache.get("taint-summaries")
    if isinstance(cached, dict):
        return cached

    def transfer(qualname: str, read: Reader) -> Labels:
        func = project.functions[qualname]
        evaluator = _Evaluator(project, project.modules[func.module], func, read)
        for index, param in enumerate(func.params):
            evaluator.env[param] = frozenset({ParamTaint(index)})
        evaluator.exec_block(func.node.body)
        return frozenset(
            label.through(func.display)
            if isinstance(label, TaintLabel) else label
            for label in evaluator.returns
        )

    summaries = solve(project.functions,
                      {name: _EMPTY for name in project.functions}, transfer)
    project.analysis_cache["taint-summaries"] = summaries
    return summaries


def _stage_run_qualnames(project: Project) -> Set[str]:
    out: Set[str] = set()
    for cls in project.iter_subclasses("FlowStage"):
        if "run" in cls.methods:
            out.add(cls.methods["run"])
    return out


@register
class EntropyTaintRule(ProjectRule):
    """No entropy may reach a determinism sink, however indirectly.

    Subsumes the syntactic ``hash-entropy`` rule at the dataflow level:
    the source may live any number of calls away from the sink, and the
    finding names every hop in between.
    """

    id = "entropy-taint"
    title = "entropy flows into a determinism sink (hash/artifact/journal)"

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = compute_summaries(project)
        run_methods = _stage_run_qualnames(project)
        for module in project.iter_selected_modules():
            for qualname in sorted(project.functions):
                func = project.functions[qualname]
                if func.module != module.name or func.path != module.path:
                    continue
                yield from self._check_function(
                    project, module, func, summaries,
                    is_stage_run=qualname in run_methods,
                )

    def _check_function(
        self,
        project: Project,
        module: ModuleInfo,
        func: FunctionInfo,
        summaries: Dict[str, Labels],
        is_stage_run: bool,
    ) -> Iterator[Finding]:
        hits: List[SinkHit] = []
        evaluator = _Evaluator(project, module, func, summaries.get, hits)
        evaluator.exec_block(func.node.body)
        emitted: Set[Tuple[int, str, str]] = set()
        for node, sink_desc, labels in hits:
            yield from self._emit(module, node, sink_desc, labels, emitted)
        if is_stage_run:
            yield from self._check_run_returns(module, func, evaluator, emitted)

    def _check_run_returns(
        self,
        module: ModuleInfo,
        func: FunctionInfo,
        evaluator: _Evaluator,
        emitted: Set[Tuple[int, str, str]],
    ) -> Iterator[Finding]:
        for node in ast.walk(func.node):
            if not (isinstance(node, ast.Return) and node.value is not None):
                continue
            labels = evaluator.eval(node.value)
            yield from self._emit(
                module, node, "stage run() artifact dict", labels, emitted
            )

    def _emit(
        self,
        module: ModuleInfo,
        node: ast.AST,
        sink_desc: str,
        labels: Labels,
        emitted: Set[Tuple[int, str, str]],
    ) -> Iterator[Finding]:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        for label in sorted(
            label for label in labels if isinstance(label, TaintLabel)
        ):
            key = (line, sink_desc, label.source)
            if key in emitted:
                continue
            emitted.add(key)
            if label.kind == KIND_ORDER:
                consequence = "the value depends on set iteration order"
            else:
                consequence = "the value changes run to run"
            yield Finding(
                module.path, line, col, self.id,
                f"{label.describe(sink_desc)} — {consequence}; seed, sort, "
                "or drop the nondeterministic input (waive with a "
                "justification if the flow is deliberate telemetry)",
            )

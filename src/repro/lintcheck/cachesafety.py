"""Dataflow cache-safety analysis of the flow's stage graph.

The Merkle artifact key of a stage is ``stable_hash((fingerprint, name,
version, config_slice(), parent keys))`` — the cache is only sound if
everything a stage's ``run()`` actually reads is captured by one of
those five terms.  This module checks that invariant statically, per
:class:`~repro.flow.stages.FlowStage` subclass, by walking the project
call graph from ``run()`` and classifying every reachable read:

* ``config.<attr>``        must appear in the stage's ``config_slice()``;
* ``artifacts[<name>]``    must be produced by a stage its ``requires()``
  declares (the parent-key term of the Merkle hash);
* ``flow.<attr>``          must be a pure function of the flow
  fingerprint, or execution-neutral by contract (executor/context).

Any other read is a ``cache-undeclared-input`` finding: a cached
artifact could be served although one of its real inputs changed.

The companion ``stale-version`` heuristic hashes the *shape* of the
``run()``-reachable code (AST dumps of every reachable function, plus
referenced module constants) against a checked-in fingerprint file: if
the shape changed while ``version`` stayed at the recorded value, the
stage is flagged — persistent caches written by the old code would be
served with new semantics.  Refresh the file with
``repro lint --write-stage-fingerprints`` after refactor-only changes.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.lintcheck.callgraph import (
    ClassInfo,
    FunctionInfo,
    FunctionNode,
    Project,
    walk_calls,
    walk_skipping_functions,
)
from repro.lintcheck.core import Finding, ProjectRule, register

#: the stage base class the analysis keys on (matched by simple name, so
#: fixture packages can carry their own mini FlowStage)
STAGE_BASE = "FlowStage"

#: flow attributes that are pure functions of the flow fingerprint — the
#: fingerprint term of the artifact key already captures them (netlist,
#: technology and calibrated-simulator content, plus everything derived
#: from those at construction/placement time)
FINGERPRINT_COVERED_FLOW_ATTRS = frozenset({
    "fingerprint", "netlist", "tech", "cells", "model", "liberty",
    "simulator", "engine", "placement", "gate_rects", "owned_polygons",
    "_placement", "_gate_rects", "_owned_polygons", "_engine",
    "_routed_engine",
})

#: flow attributes that choose *how* artifacts are computed, never *what*
#: they are: the executor is bit-identical-to-serial by contract, the
#: context is the cache itself, the graph is the schedule, and the state
#: lock only serializes the lazy builders the fingerprint already covers
EXECUTION_NEUTRAL_FLOW_ATTRS = frozenset({
    "executor", "context", "graph", "_state_lock",
})

ROLE_FLOW = "flow"
ROLE_CONFIG = "config"
ROLE_ARTIFACTS = "artifacts"

#: default name of the checked-in stage fingerprint file
STAGE_FINGERPRINTS_FILE = ".repro-stage-fingerprints.json"


@dataclass(frozen=True)
class Read:
    """One reachable read, with the call chain that led to it."""

    attr: str
    path: str
    line: int
    col: int
    chain: Tuple[str, ...]

    def via(self) -> str:
        return f" via {' -> '.join(self.chain)}" if self.chain else ""


@dataclass
class RunInputScan:
    """Everything ``run()`` transitively reads, by input category."""

    config_reads: Dict[str, Read] = field(default_factory=dict)
    flow_reads: Dict[str, Read] = field(default_factory=dict)
    artifact_reads: Dict[str, Read] = field(default_factory=dict)
    #: qualnames of every traversed function (the stale-version shape)
    visited: Set[str] = field(default_factory=set)


#: one node of the role walk: a function, its role bindings, and the
#: call chain that reached it
_RoleNode = Tuple[FunctionInfo, Dict[str, str], Tuple[str, ...]]


def scan_callable(
    project: Project,
    start: FunctionInfo,
    roles: Mapping[str, str],
) -> RunInputScan:
    """Walk the call graph from ``start`` tracking role-bound parameters.

    ``roles`` maps ``start``'s parameter names to ``ROLE_FLOW`` /
    ``ROLE_CONFIG`` / ``ROLE_ARTIFACTS``.  Role bindings follow bare-name
    arguments into statically resolvable callees (``self`` carries the
    receiver's role), so a helper three calls deep that reads
    ``config.n_slices`` is still attributed to the stage.  A function is
    scanned once per distinct role binding.
    """
    scan = RunInputScan()
    flow_class = _role_class(start, roles, ROLE_FLOW)
    config_class = _role_class(start, roles, ROLE_CONFIG)

    def step(node: _RoleNode) -> List[_RoleNode]:
        return _scan_one(project, *node, scan, flow_class, config_class)

    reached = walk_calls(
        [(start, dict(roles), ())], step,
        key=lambda node: (node[0].qualname, frozenset(node[1].items())),
    )
    scan.visited = {func.qualname for func, _, _ in reached}
    return scan


def _role_class(
    start: FunctionInfo, roles: Mapping[str, str], role: str
) -> Optional[str]:
    for param, bound in roles.items():
        if bound == role:
            annotated = start.param_annotation(param)
            if annotated is not None:
                return annotated
    return None


def _scan_one(
    project: Project,
    func: FunctionInfo,
    env: Dict[str, str],
    chain: Tuple[str, ...],
    scan: RunInputScan,
    flow_class: Optional[str],
    config_class: Optional[str],
) -> List[_RoleNode]:
    """Record ``func``'s role reads into ``scan``; return its callees
    entered with a role binding."""
    successors: List[_RoleNode] = []
    local_classes: Dict[str, str] = {}
    for name, role in env.items():
        if role == ROLE_FLOW and flow_class is not None:
            local_classes[name] = flow_class
        elif role == ROLE_CONFIG and config_class is not None:
            local_classes[name] = config_class
    reads_by_role = {
        ROLE_CONFIG: scan.config_reads,
        ROLE_FLOW: scan.flow_reads,
    }
    consumed_call_funcs: Set[int] = set()
    for node in ast.walk(func.node):
        if isinstance(node, ast.Call):
            _scan_call(project, func, node, env, chain, scan, successors,
                       local_classes, consumed_call_funcs)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if id(node) in consumed_call_funcs:
                continue
            if not isinstance(node.value, ast.Name):
                continue
            role = env.get(node.value.id)
            if role in reads_by_role:
                read = Read(node.attr, func.path, node.lineno,
                            node.col_offset, chain)
                reads_by_role[role].setdefault(node.attr, read)
                if role == ROLE_FLOW:
                    getter = project.resolve_property(
                        func, node.value.id, node.attr, local_classes
                    )
                    if getter is not None and getter.params:
                        successors.append((
                            getter,
                            {getter.params[0]: ROLE_FLOW},
                            chain + (getter.display,),
                        ))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            if (
                isinstance(node.value, ast.Name)
                and env.get(node.value.id) == ROLE_ARTIFACTS
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                read = Read(node.slice.value, func.path, node.lineno,
                            node.col_offset, chain)
                scan.artifact_reads.setdefault(node.slice.value, read)
    return successors


def _scan_call(
    project: Project,
    func: FunctionInfo,
    call: ast.Call,
    env: Dict[str, str],
    chain: Tuple[str, ...],
    scan: RunInputScan,
    successors: List[_RoleNode],
    local_classes: Dict[str, str],
    consumed_call_funcs: Set[int],
) -> None:
    # artifacts.get("name", default) is an artifact read, not a call edge.
    if (
        isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and env.get(call.func.value.id) == ROLE_ARTIFACTS
    ):
        consumed_call_funcs.add(id(call.func))
        if (
            call.func.attr == "get"
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            name = call.args[0].value
            read = Read(name, func.path, call.lineno, call.col_offset, chain)
            scan.artifact_reads.setdefault(name, read)
        return

    callee = project.resolve_call(func, call.func, local_classes)
    if callee is None:
        return
    params = callee.params
    callee_env: Dict[str, str] = {}
    offset = 0
    if (
        isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and callee.class_qualname is not None
    ):
        receiver_role = env.get(call.func.value.id)
        if params:
            offset = 1
            if receiver_role is not None:
                callee_env[params[0]] = receiver_role
        consumed_call_funcs.add(id(call.func))
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Name) and arg.id in env:
            position = offset + index
            if position < len(params):
                callee_env[params[position]] = env[arg.id]
    for keyword in call.keywords:
        if (
            keyword.arg is not None
            and keyword.arg in params
            and isinstance(keyword.value, ast.Name)
            and keyword.value.id in env
        ):
            callee_env[keyword.arg] = env[keyword.value.id]
    if callee_env:
        successors.append((callee, callee_env, chain + (callee.display,)))


# ---------------------------------------------------------------------------
# Stage discovery and per-stage analysis
# ---------------------------------------------------------------------------


@dataclass
class StageAnalysis:
    """Static contract vs. reachable reads of one FlowStage subclass."""

    cls: ClassInfo
    stage_name: Optional[str]
    version: Optional[int]
    run: Optional[FunctionInfo]
    declared_parents: Set[str] = field(default_factory=set)
    declared_config: Set[str] = field(default_factory=set)
    #: None when no class in the hierarchy defines ``provides()``
    declared_provides: Optional[Set[str]] = None
    produced: Set[str] = field(default_factory=set)
    scan: Optional[RunInputScan] = None


# The stage readers: the only code that reads a stage's static contract.


def stage_name_and_version(node: ast.ClassDef) -> Tuple[Optional[str], Optional[int]]:
    """The class-level ``name`` (a string) and ``version`` (an int, not a
    bool) a stage declares itself; None for either that is missing or of
    another type.  The first constant assigned to a name counts."""
    constants: Dict[str, object] = {}
    for item in node.body:
        if isinstance(item, ast.Assign):
            targets = item.targets
        elif isinstance(item, ast.AnnAssign):
            targets = [item.target]
        else:
            continue
        if isinstance(item.value, ast.Constant):
            for target in targets:
                if isinstance(target, ast.Name):
                    constants.setdefault(target.id, item.value.value)
    name = constants.get("name")
    version = constants.get("version")
    return (
        name if isinstance(name, str) else None,
        version if isinstance(version, int) and not isinstance(version, bool) else None,
    )


def _returns(func: FunctionNode) -> List[ast.Return]:
    """The ``return`` statements of ``func`` itself.  A nested def's
    ``return`` is not a return of the method that encloses it, so nested
    function bodies are skipped."""
    return [
        node for node in walk_skipping_functions(func.body)
        if isinstance(node, ast.Return)
    ]


def returned_dicts(func: FunctionNode) -> Tuple[List[ast.Dict], bool]:
    """The dict literals ``func`` returns, and whether every ``return``
    of ``func`` is one."""
    returns = _returns(func)
    dicts = [node.value for node in returns if isinstance(node.value, ast.Dict)]
    return dicts, bool(returns) and len(dicts) == len(returns)


def _returned_literals(project: Project, cls: ClassInfo, method: str) -> Optional[Set[str]]:
    """Union of the string literals the stage's ``method`` returns; None
    when no class in the hierarchy defines it.

    ``requires`` may branch on the config (selective OPC does); the union
    over every return is the sound superset of the declared edges.
    """
    func = project.resolve_method(cls, method)
    if func is None:
        return None
    return {
        inner.value
        for node in _returns(func.node) if node.value is not None
        for inner in ast.walk(node.value)
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str)
    }


def _declared_config_reads(project: Project, cls: ClassInfo) -> Set[str]:
    """Config attributes the stage's ``config_slice()`` exposes —
    collected transitively with the same walker, so a slice built by a
    helper still counts."""
    config_slice = project.resolve_method(cls, "config_slice")
    if config_slice is None:
        return set()
    params = config_slice.params
    roles: Dict[str, str] = {}
    if len(params) >= 3:
        roles[params[1]] = ROLE_FLOW
        roles[params[2]] = ROLE_CONFIG
    elif len(params) == 2:
        roles[params[1]] = ROLE_CONFIG
    if not roles:
        return set()
    return set(scan_callable(project, config_slice, roles).config_reads)


def _run_roles(run: FunctionInfo) -> Dict[str, str]:
    """Role bindings for a stage ``run(self, flow, config, artifacts, ...)``.

    Bound by position (the stage-graph calling convention), falling back
    to parameter names for fixture stages with abbreviated signatures.
    """
    params = run.params
    roles: Dict[str, str] = {}
    positional = [ROLE_FLOW, ROLE_CONFIG, ROLE_ARTIFACTS]
    if params and params[0] == "self":
        params = params[1:]
    for param, role in zip(params, positional):
        roles[param] = role
    for param in params:
        if param in (ROLE_FLOW, ROLE_CONFIG, ROLE_ARTIFACTS):
            roles[param] = param
    return roles


def analyze_stages(project: Project) -> List[StageAnalysis]:
    """One :class:`StageAnalysis` per FlowStage subclass with its own
    ``run()``; results are cached on the project (both dataflow rules and
    the fingerprint writer share one traversal)."""
    cached = project.analysis_cache.get("cachesafety")
    if isinstance(cached, list):
        return cached
    analyses: List[StageAnalysis] = []
    for cls in project.iter_subclasses(STAGE_BASE):
        name, version = stage_name_and_version(cls.node)
        analysis = StageAnalysis(cls=cls, stage_name=name, version=version, run=None)
        if "run" in cls.methods:
            run = project.functions[cls.methods["run"]]
            analysis.run = run
            dicts, _ = returned_dicts(run.node)
            analysis.produced = {
                key.value for returned in dicts for key in returned.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
            analysis.declared_parents = (
                _returned_literals(project, cls, "requires") or set()
            )
            analysis.declared_config = _declared_config_reads(project, cls)
            analysis.declared_provides = _returned_literals(project, cls, "provides")
            analysis.scan = scan_callable(project, run, _run_roles(run))
        analyses.append(analysis)
    project.analysis_cache["cachesafety"] = analyses
    return analyses


def _artifact_producers(analyses: List[StageAnalysis]) -> Dict[str, str]:
    producers: Dict[str, str] = {}
    for analysis in analyses:
        if analysis.stage_name is None:
            continue
        # provides() covers stages whose run() returns a built-up name
        # (opaque to returned_dicts) — both views feed the map.
        for artifact in sorted(analysis.produced | (analysis.declared_provides or set())):
            producers.setdefault(artifact, analysis.stage_name)
    return producers


def _anchor(project: Project, read: Read, fallback: FunctionInfo) -> Tuple[str, int, int]:
    """Prefer the read site; fall back to the stage's run() definition
    when the read lives in a context module outside the linted set."""
    if project.is_selected(read.path):
        return read.path, read.line, read.col
    return fallback.path, fallback.node.lineno, fallback.node.col_offset


@register
class CacheUndeclaredInputRule(ProjectRule):
    """Everything ``run()`` reads must be in the stage's Merkle key.

    An undeclared input is a cache-poisoning hazard: two runs whose
    configs differ in that input hash to the same artifact key, and the
    second run is served the first run's artifacts.
    """

    id = "cache-undeclared-input"
    title = "stage run() reads an input missing from its artifact key"

    def check_project(self, project: Project) -> Iterator[Finding]:
        analyses = analyze_stages(project)
        producers = _artifact_producers(analyses)
        for analysis in analyses:
            if analysis.run is None or analysis.scan is None:
                continue
            if not project.is_selected(analysis.cls.path):
                continue
            yield from self._check_stage(project, analysis, producers)

    def _check_stage(
        self,
        project: Project,
        analysis: StageAnalysis,
        producers: Dict[str, str],
    ) -> Iterator[Finding]:
        assert analysis.run is not None and analysis.scan is not None
        stage = analysis.cls.name
        scan = analysis.scan
        for attr in sorted(scan.config_reads):
            if attr in analysis.declared_config:
                continue
            read = scan.config_reads[attr]
            path, line, col = _anchor(project, read, analysis.run)
            yield Finding(
                path, line, col, self.id,
                f"stage {stage!r}: run() reads `config.{attr}`{read.via()} "
                "but config_slice() does not expose it — the artifact key "
                "misses this input, so a cached artifact can be served for "
                "a config that changes it",
            )
        for name in sorted(scan.artifact_reads):
            read = scan.artifact_reads[name]
            producer = producers.get(name)
            if producer is not None and producer in analysis.declared_parents:
                continue
            path, line, col = _anchor(project, read, analysis.run)
            if producer is None:
                detail = "which no stage in the graph produces"
            else:
                detail = (
                    f"produced by stage {producer!r}, which requires() does "
                    "not declare — the Merkle key omits that upstream edge"
                )
            yield Finding(
                path, line, col, self.id,
                f"stage {stage!r}: run() reads artifacts[{name!r}]"
                f"{read.via()} {detail}",
            )
        for attr in sorted(scan.flow_reads):
            if (
                attr in FINGERPRINT_COVERED_FLOW_ATTRS
                or attr in EXECUTION_NEUTRAL_FLOW_ATTRS
            ):
                continue
            read = scan.flow_reads[attr]
            path, line, col = _anchor(project, read, analysis.run)
            yield Finding(
                path, line, col, self.id,
                f"stage {stage!r}: run() reads `flow.{attr}`{read.via()}, "
                "which is neither covered by the flow fingerprint nor "
                "execution-neutral — expose it through config_slice() or "
                "fold it into the fingerprint",
            )


@register
class StageEdgeContractRule(ProjectRule):
    """``provides()`` must agree with what ``run()`` actually returns.

    The stage loop trusts the declared edges: ``StageGraph.validate``
    checks duplicate producers against ``provides()``, and
    ``StageGraph.execute`` wires parent outputs to children from the same
    declaration.
    A stage that returns an artifact it never declared leaves the graph
    blind to the edge (two stages could silently produce it); a declared
    artifact ``run()`` never returns breaks every consumer that
    ``requires()`` the stage for it.
    """

    id = "stage-edge-contract"
    title = "stage provides() disagrees with what run() returns"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for analysis in analyze_stages(project):
            if analysis.run is None:
                continue
            if not project.is_selected(analysis.cls.path):
                continue
            yield from self._check_stage(analysis)

    def _check_stage(self, analysis: StageAnalysis) -> Iterator[Finding]:
        assert analysis.run is not None
        stage = analysis.cls.name
        anchor = (analysis.cls.path, analysis.run.node.lineno,
                  analysis.run.node.col_offset)
        declared = analysis.declared_provides
        if declared is None:
            if analysis.produced:
                yield Finding(
                    *anchor, self.id,
                    f"stage {stage!r}: run() returns artifacts "
                    f"({', '.join(sorted(analysis.produced))}) but no "
                    "provides() is defined anywhere in the class hierarchy "
                    "— the stage graph cannot attribute these edges",
                )
            return
        for name in sorted(analysis.produced - declared):
            yield Finding(
                *anchor, self.id,
                f"stage {stage!r}: run() returns artifact {name!r} that "
                "provides() does not declare — duplicate-producer "
                "validation and scheduler input wiring are blind to it",
            )
        # Only when every return of run() is a literal dict is `produced`
        # the complete output set, not a lower bound (a stage returning a
        # built-up name is opaque here).
        _, complete = returned_dicts(analysis.run.node)
        if complete:
            for name in sorted(declared - analysis.produced):
                yield Finding(
                    *anchor, self.id,
                    f"stage {stage!r}: provides() declares artifact "
                    f"{name!r} but run() never returns it — a consumer "
                    "requiring this stage for that artifact gets a "
                    "KeyError at merge time",
                )


# ---------------------------------------------------------------------------
# stale-version heuristic
# ---------------------------------------------------------------------------


def _code_dump(node: FunctionNode) -> str:
    """``ast.dump`` of a function without its leading docstring."""
    if ast.get_docstring(node, clean=False) is not None:
        node = copy.copy(node)
        node.body = node.body[1:]
    return ast.dump(node)


def stage_shape(project: Project, analysis: StageAnalysis) -> str:
    """Content hash of the ``run()``-reachable code of one stage:
    AST dumps of every reachable function plus the module constants they
    reference.  Formatting, comments and docstrings do not move it; logic
    does.

    Reachable means the role walk's functions plus every function they
    name in a statically resolvable call or reference, whatever the
    arguments: ``run_hold(flow.engine, ...)`` passes no role, and the
    worker handed to ``map_chunks`` is never called by name, yet both
    decide the stage's artifact."""
    assert analysis.scan is not None

    def referenced(func: FunctionInfo) -> List[FunctionInfo]:
        refs = (project.resolve_call(func, node) for node in ast.walk(func.node)
                if isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load))
        return [callee for callee in refs if callee is not None]

    seeds = [project.functions[name] for name in sorted(analysis.scan.visited)]
    reached = walk_calls(seeds, referenced, key=lambda func: func.qualname)
    parts: List[str] = []
    for func in sorted(reached, key=lambda func: func.qualname):
        parts.append(f"{func.qualname}\x1e{_code_dump(func.node)}")
        for module, name, dump in project.referenced_module_constants(func):
            parts.append(f"{module}.{name}\x1e{dump}")
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


def _python_minor() -> str:
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


def load_stage_fingerprints(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


def write_stage_fingerprints(project: Project, path: str) -> int:
    """Record (version, shape) for every analyzable stage in the linted
    files; returns the number of stages written."""
    stages: Dict[str, Dict[str, object]] = {}
    for analysis in analyze_stages(project):
        if (
            analysis.stage_name is None
            or analysis.version is None
            or analysis.scan is None
            or not project.is_selected(analysis.cls.path)
        ):
            continue
        stages[analysis.stage_name] = {
            "class": analysis.cls.name,
            "version": analysis.version,
            "shape": stage_shape(project, analysis),
        }
    payload = {
        "comment": (
            "stage version fingerprints for the stale-version lint rule; "
            "refresh with `repro lint --write-stage-fingerprints` after "
            "refactor-only changes to run()-reachable code"
        ),
        # AST dumps differ across interpreter versions; the checker only
        # compares shapes produced by the same minor version.
        "python": _python_minor(),
        "stages": {name: stages[name] for name in sorted(stages)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(stages)


@register
class StaleVersionRule(ProjectRule):
    """A stage whose run()-reachable code changed must bump ``version``.

    The version is the only key term that distinguishes *semantics*
    changes — without a bump, a persistent cache written by the old code
    keeps serving artifacts the new code would compute differently.
    Heuristic: compares the current code shape against the checked-in
    fingerprint file; silent when the file is absent or the stage is new.
    """

    id = "stale-version"
    title = "stage code changed shape but version was not bumped"

    def check_project(self, project: Project) -> Iterator[Finding]:
        path = project.stage_fingerprints_path
        if path is None and os.path.isfile(STAGE_FINGERPRINTS_FILE):
            path = STAGE_FINGERPRINTS_FILE
        if path is None or not os.path.isfile(path):
            return
        payload = load_stage_fingerprints(path)
        if payload.get("python") != _python_minor():
            return  # shapes from another interpreter version don't compare
        recorded_raw = payload.get("stages")
        recorded: Dict[str, Any] = (
            recorded_raw if isinstance(recorded_raw, dict) else {}
        )
        for analysis in analyze_stages(project):
            if (
                analysis.stage_name is None
                or analysis.version is None
                or analysis.scan is None
                or not project.is_selected(analysis.cls.path)
            ):
                continue
            entry = recorded.get(analysis.stage_name)
            if not isinstance(entry, dict):
                continue
            if entry.get("class") != analysis.cls.name:
                continue  # a different project's stage happens to share a name
            shape = stage_shape(project, analysis)
            if entry.get("version") == analysis.version and entry.get("shape") != shape:
                yield Finding(
                    analysis.cls.path,
                    analysis.cls.node.lineno,
                    analysis.cls.node.col_offset,
                    self.id,
                    f"stage {analysis.cls.name!r} ({analysis.stage_name}): "
                    "run()-reachable code changed shape but `version` is "
                    f"still {analysis.version} — persistent caches written "
                    "by the old code would be served with new semantics; "
                    "bump the version, or refresh the fingerprint file "
                    "(`repro lint --write-stage-fingerprints`) if the "
                    "change is refactor-only",
                )

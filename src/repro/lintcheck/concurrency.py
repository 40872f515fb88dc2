"""Concurrency-safety rules: lock discipline, lock order, async blocking.

The flow became a concurrent system — an asyncio scheduler and job
service driving thread-pool stages over a lock-protected shared cache —
and the determinism guarantee now also rests on thread/async safety.
Three whole-program rules, sharing one :class:`ConcurrencyModel` built
from the :class:`~repro.lintcheck.callgraph.Project`, prove the three
properties that matter:

``unguarded-shared-state``
    Per class, the guarded-attribute set is *inferred* from accesses
    inside ``with self._lock:`` bodies (lock attributes are seeded by
    ``threading.Lock/RLock/Condition`` assignments).  Any read or write
    of a guarded attribute in a method reachable from a thread entry
    point (``asyncio.to_thread``, ``executor.submit``,
    ``Thread(target=...)``, journal listeners) without the lock held is
    flagged, with the full entry->access call chain in the message.
    A second pattern catches attributes of lock-owning classes that are
    mutated from thread context but *never* guarded at all.

``lock-order-inversion``
    A static lock-acquisition graph (nested ``with`` blocks, plus calls
    made while holding a lock into functions that transitively acquire
    another) is checked for cycles; a non-reentrant ``threading.Lock``
    re-acquired while already held is reported as a guaranteed
    self-deadlock.

``blocking-in-async``
    Blocking operations (``time.sleep``, file I/O, ``subprocess``,
    socket calls, lock acquisition — directly or transitively through
    sync callees) reachable from ``async def`` bodies are flagged
    unless routed through ``asyncio.to_thread``.  The inverse is also
    checked: asyncio primitives touched from thread context.

The per-function tables (locks held at every call site, transitive
acquire sets, the shortest chain to a blocking operation) are solved by
the shared :func:`~repro.lintcheck.callgraph.solve`: lock sets only grow
over a finite lattice, and shortest chains never revisit a function.
The static model is deliberately lexical and conservative in the same
way :mod:`repro.lintcheck.taint` is; the runtime companion
:mod:`repro.lintcheck.lcsan` validates it against observed executions.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

from repro.lintcheck.callgraph import FunctionInfo, ModuleInfo, Project, dotted_name, solve
from repro.lintcheck.core import Finding, ProjectRule, register

_CACHE_KEY = "concurrency-model"

#: (class qualname, attribute name) — identity of one instance lock
LockId = Tuple[str, str]
LockSet = FrozenSet[LockId]

#: threading factories that create a lock attribute; value = reentrant
_LOCK_FACTORIES: Dict[str, bool] = {
    "threading.Lock": False,
    "threading.RLock": True,
    "threading.Condition": True,
}

#: receiver methods that mutate the receiver in place
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "update", "remove",
    "discard", "pop", "popleft", "popitem", "clear", "setdefault", "sort",
    "reverse",
})

#: methods whose accesses are construction, not shared-state traffic
_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

#: calls that block the calling thread (event-loop poison)
_BLOCKING_DOTTED = frozenset({
    "time.sleep",
    "os.fsync", "os.replace", "os.remove", "os.unlink", "os.rename",
    "os.makedirs", "os.listdir", "os.scandir", "os.stat", "os.utime",
    "os.rmdir",
    "shutil.rmtree", "shutil.copy", "shutil.copyfile", "shutil.move",
    "socket.socket", "socket.create_connection",
    "tempfile.mkstemp", "tempfile.mkdtemp",
})

#: the asyncio API that *is* legal from a foreign thread
_THREADSAFE_ASYNCIO = frozenset({"asyncio.run_coroutine_threadsafe"})


def _short(cls_qualname: str) -> str:
    return cls_qualname.rsplit(".", 1)[-1]


def _lock_display(lock: LockId) -> str:
    return f"{_short(lock[0])}.{lock[1]}"


@dataclass(frozen=True)
class LockInfo:
    """One ``self.X = threading.Lock()``-style lock attribute."""

    cls: str
    attr: str
    reentrant: bool
    path: str
    line: int


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.<attr>`` read or write inside a method body."""

    cls: str
    attr: str
    func: str  # qualname of the containing function
    path: str
    line: int
    col: int
    kind: str  # "read" | "written"
    held: FrozenSet[LockId]

    @property
    def method_name(self) -> str:
        return self.func.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class Acquisition:
    """One lock acquisition (``with self.X`` or ``self.X.acquire()``)."""

    lock: LockId
    held: Tuple[LockId, ...]
    func: str
    path: str
    line: int
    col: int


@dataclass
class CallSite:
    """One call expression, with the locks lexically held around it."""

    node: ast.Call
    held: Tuple[LockId, ...]
    resolved: Optional[str] = None  # callee qualname, once resolved


@dataclass(frozen=True)
class ThreadEntry:
    """How a function first becomes reachable from a non-loop thread."""

    desc: str
    path: str
    line: int


@dataclass(frozen=True)
class ThreadChain:
    """Entry point plus the call chain that reaches a function from it."""

    entry: ThreadEntry
    chain: Tuple[str, ...]

    def describe(self) -> str:
        return (
            f"{self.entry.desc} ({self.entry.path}:{self.entry.line}): "
            + " -> ".join(self.chain)
        )


@dataclass(frozen=True)
class BlockedInfo:
    """Why a sync function blocks: the operation and the path to it."""

    op: str
    path: str
    line: int
    chain: Tuple[str, ...]  # callee displays from the function down


@dataclass
class ConcurrencyModel:
    """Everything the three concurrency rules share, built in one pass."""

    locks: Dict[str, Dict[str, LockInfo]] = field(default_factory=dict)
    accesses: List[AttrAccess] = field(default_factory=list)
    acquisitions: List[Acquisition] = field(default_factory=list)
    call_sites: Dict[str, List[CallSite]] = field(default_factory=dict)
    entries: Dict[str, ThreadEntry] = field(default_factory=dict)
    reachable: Dict[str, ThreadChain] = field(default_factory=dict)
    always_held: Dict[str, FrozenSet[LockId]] = field(default_factory=dict)

    def locks_of(self, cls_qualname: Optional[str]) -> Dict[str, LockInfo]:
        if cls_qualname is None:
            return {}
        return self.locks.get(cls_qualname, {})


def _collect_locks(project: Project, model: ConcurrencyModel) -> None:
    for cls_qualname in sorted(project.classes):
        cls = project.classes[cls_qualname]
        module = project.modules.get(cls.module)
        if module is None:
            continue
        table: Dict[str, LockInfo] = {}
        for node in ast.walk(cls.node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            dotted = dotted_name(module, value.func)
            if dotted not in _LOCK_FACTORIES:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr: Optional[str] = None
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr = target.attr
                elif isinstance(target, ast.Name):  # class-level lock
                    attr = target.id
                if attr is not None and attr not in table:
                    table[attr] = LockInfo(
                        cls=cls_qualname, attr=attr,
                        reentrant=_LOCK_FACTORIES[dotted],
                        path=cls.path, line=value.lineno,
                    )
        if table:
            model.locks[cls_qualname] = table


class _FunctionScan:
    """One lexical pass over a function body.

    Tracks the ``with self.X:`` lock stack, recording attribute
    accesses, lock acquisitions, call sites and thread entry points into
    the shared model.  Nested function/lambda bodies are scanned with an
    empty lock stack (they run later, when nothing lexical is held).
    """

    def __init__(
        self, project: Project, model: ConcurrencyModel, func: FunctionInfo
    ) -> None:
        self.project = project
        self.model = model
        self.func = func
        self.module = project.modules.get(func.module)
        cls = project.class_of(func)
        self.cls_qualname = cls.qualname if cls is not None else None
        self.cls_locks = model.locks_of(self.cls_qualname)
        self.cls_methods = cls.methods if cls is not None else {}
        self.cls_properties = cls.properties if cls is not None else set()
        self.sites = model.call_sites.setdefault(func.qualname, [])

    def run(self) -> None:
        for stmt in self.func.node.body:
            self._scan(stmt, ())

    # -- helpers -------------------------------------------------------------

    def _self_attr(self, node: ast.expr) -> Optional[ast.Attribute]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node
        return None

    def _lock_attr(self, node: ast.expr) -> Optional[LockId]:
        attr = self._self_attr(node)
        if attr is not None and attr.attr in self.cls_locks:
            assert self.cls_qualname is not None
            return (self.cls_qualname, attr.attr)
        return None

    def _record_access(
        self, node: ast.Attribute, held: Tuple[LockId, ...], kind: str
    ) -> None:
        if self.cls_qualname is None:
            return
        name = node.attr
        if (
            name in self.cls_locks
            or name in self.cls_methods
            or name in self.cls_properties
        ):
            return
        self.model.accesses.append(AttrAccess(
            cls=self.cls_qualname, attr=name, func=self.func.qualname,
            path=self.func.path, line=node.lineno, col=node.col_offset,
            kind=kind, held=frozenset(held),
        ))

    def _record_acquisition(
        self, lock: LockId, held: Tuple[LockId, ...], node: ast.expr
    ) -> None:
        self.model.acquisitions.append(Acquisition(
            lock=lock, held=held, func=self.func.qualname,
            path=self.func.path, line=node.lineno, col=node.col_offset,
        ))

    def _entry_targets(self, arg: ast.expr) -> List[FunctionInfo]:
        """Resolve a callable argument: a name, a bound method, a
        ``functools.partial(...)`` head, or every call a lambda makes."""
        if isinstance(arg, ast.Lambda):
            out: List[FunctionInfo] = []
            for sub in ast.walk(arg.body):
                if isinstance(sub, ast.Call):
                    resolved = self.project.resolve_call(self.func, sub.func)
                    if resolved is not None:
                        out.append(resolved)
            return out
        if isinstance(arg, ast.Call):
            if self.module is not None:
                dotted = dotted_name(self.module, arg.func)
                if dotted == "functools.partial" and arg.args:
                    return self._entry_targets(arg.args[0])
            return []
        resolved = self.project.resolve_call(self.func, arg)
        return [resolved] if resolved is not None else []

    def _maybe_entry(self, node: ast.Call) -> None:
        """Record ``f`` as a thread entry point for dispatches like
        ``asyncio.to_thread(f)``, ``pool.submit(f)``, ``Thread(target=f)``,
        ``journal.add_listener(f)`` (listeners fire on the writer's
        thread) and ``loop.run_in_executor(None, f)``."""
        arg: Optional[ast.expr] = None
        if self.module is not None:
            dotted = dotted_name(self.module, node.func)
            if dotted == "asyncio.to_thread" and node.args:
                arg = node.args[0]
            elif dotted == "threading.Thread":
                for keyword in node.keywords:
                    if keyword.arg == "target":
                        arg = keyword.value
        if arg is None and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in ("submit", "map_chunks", "add_listener") and node.args:
                arg = node.args[0]
            elif attr == "run_in_executor" and len(node.args) >= 2:
                arg = node.args[1]
        if arg is None:
            return
        label = "lambda" if isinstance(arg, ast.Lambda) else ast.unparse(arg)
        desc = f"{ast.unparse(node.func)}({label})"
        for target in self._entry_targets(arg):
            self.model.entries.setdefault(
                target.qualname,
                ThreadEntry(desc=desc, path=self.func.path, line=node.lineno),
            )

    # -- the walk ------------------------------------------------------------

    def _scan(self, node: ast.AST, held: Tuple[LockId, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                self._scan(stmt, ())
            return
        if isinstance(node, ast.Lambda):
            self._scan(node.body, ())
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[LockId] = []
            for item in node.items:
                lock = self._lock_attr(item.context_expr)
                if lock is not None:
                    self._record_acquisition(
                        lock, held + tuple(acquired), item.context_expr
                    )
                    acquired.append(lock)
                else:
                    self._scan(item.context_expr, held)
                if item.optional_vars is not None:
                    self._scan(item.optional_vars, held)
            inner = held + tuple(lk for lk in acquired if lk not in held)
            for stmt in node.body:
                self._scan(stmt, inner)
            return
        if isinstance(node, ast.Call):
            self._scan_call(node, held)
            return
        if isinstance(node, ast.Subscript):
            attr = self._self_attr(node.value)
            if attr is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
                self._record_access(attr, held, kind="written")
                self._scan(node.slice, held)
                return
            self._scan(node.value, held)
            self._scan(node.slice, held)
            return
        if isinstance(node, ast.Attribute):
            attr = self._self_attr(node)
            if attr is not None:
                kind = (
                    "written"
                    if isinstance(node.ctx, (ast.Store, ast.Del))
                    else "read"
                )
                self._record_access(attr, held, kind=kind)
                return
            self._scan(node.value, held)
            return
        for child in ast.iter_child_nodes(node):
            self._scan(child, held)

    def _scan_call(self, node: ast.Call, held: Tuple[LockId, ...]) -> None:
        func_expr = node.func
        if isinstance(func_expr, ast.Attribute):
            # self.<lock>.acquire(...)
            lock = self._lock_attr(func_expr.value)
            if lock is not None and func_expr.attr == "acquire":
                self._record_acquisition(lock, held, node)
                for arg in node.args:
                    self._scan(arg, held)
                for keyword in node.keywords:
                    self._scan(keyword.value, held)
                return
            # self.<attr>.append(...) and friends: in-place mutation
            attr = self._self_attr(func_expr.value)
            if attr is not None and func_expr.attr in _MUTATORS:
                self._record_access(attr, held, kind="written")
                self.sites.append(CallSite(node=node, held=held))
                for arg in node.args:
                    self._scan(arg, held)
                for keyword in node.keywords:
                    self._scan(keyword.value, held)
                return
        self.sites.append(CallSite(node=node, held=held))
        self._maybe_entry(node)
        for child in ast.iter_child_nodes(node):
            self._scan(child, held)


def _resolve_sites(project: Project, model: ConcurrencyModel) -> None:
    for qualname in sorted(model.call_sites):
        caller = project.functions.get(qualname)
        if caller is None:
            continue
        for site in model.call_sites[qualname]:
            resolved = project.resolve_call(caller, site.node.func)
            if resolved is not None and not resolved.is_property:
                site.resolved = resolved.qualname


def _reachability(project: Project, model: ConcurrencyModel) -> None:
    """BFS from the thread entry points over resolved calls.

    Async callees are not traversed: calling a coroutine function from a
    thread only builds the coroutine, it does not run the body there.
    """
    queue: deque[str] = deque()
    for qualname in sorted(model.entries):
        info = project.functions.get(qualname)
        if info is None or info.is_async:
            continue
        model.reachable[qualname] = ThreadChain(
            entry=model.entries[qualname], chain=(info.display,)
        )
        queue.append(qualname)
    while queue:
        qualname = queue.popleft()
        chain = model.reachable[qualname]
        for site in model.call_sites.get(qualname, []):
            if site.resolved is None or site.resolved in model.reachable:
                continue
            callee = project.functions[site.resolved]
            if callee.is_async:
                continue
            model.reachable[site.resolved] = ThreadChain(
                entry=chain.entry, chain=chain.chain + (callee.display,)
            )
            queue.append(site.resolved)


def _always_held(model: ConcurrencyModel) -> None:
    """Locks held at *every* known call site of a function, fixpointed so
    a helper only ever called under ``self._disk_lock`` inherits it.
    Thread entry points are pinned to the empty set — they are invoked
    bare.  Unknown (dynamic) callers are simply not seen; the inference
    stays a lint heuristic, not a proof."""
    callers: Dict[str, List[Tuple[str, Tuple[LockId, ...]]]] = {}
    for qualname in sorted(model.call_sites):
        for site in model.call_sites[qualname]:
            if site.resolved is not None:
                callers.setdefault(site.resolved, []).append(
                    (qualname, site.held)
                )

    def transfer(qualname: str, read: Callable[[str], Optional[LockSet]]) -> LockSet:
        meet: Optional[LockSet] = None
        for caller_qualname, site_held in callers[qualname]:
            effective = frozenset(site_held) | (read(caller_qualname) or frozenset())
            meet = effective if meet is None else meet & effective
        return meet or frozenset()

    model.always_held = solve(
        [qualname for qualname in callers if qualname not in model.entries],
        {}, transfer,
    )


def _transitive_acquires(project: Project, model: ConcurrencyModel) -> Dict[str, LockSet]:
    """What running each function may lock: its own acquisitions plus
    its sync callees'."""
    own: Dict[str, Set[LockId]] = {}
    for acq in model.acquisitions:
        own.setdefault(acq.func, set()).add(acq.lock)

    def transfer(qualname: str, read: Callable[[str], Optional[LockSet]]) -> LockSet:
        out = set(own.get(qualname, ()))
        for site in model.call_sites[qualname]:
            if site.resolved is not None and not project.functions[site.resolved].is_async:
                out |= read(site.resolved) or frozenset()
        return frozenset(out)

    return solve(model.call_sites, {}, transfer)


def build_model(project: Project) -> ConcurrencyModel:
    """Build (or fetch the cached) concurrency model for a project."""
    cached = project.analysis_cache.get(_CACHE_KEY)
    if isinstance(cached, ConcurrencyModel):
        return cached
    model = ConcurrencyModel()
    _collect_locks(project, model)
    for qualname in sorted(project.functions):
        _FunctionScan(project, model, project.functions[qualname]).run()
    _resolve_sites(project, model)
    _reachability(project, model)
    _always_held(model)
    project.analysis_cache[_CACHE_KEY] = model
    return model


def _effective_held(model: ConcurrencyModel, access: AttrAccess) -> LockSet:
    return access.held | model.always_held.get(access.func, frozenset())


def _flow_scoped(path: str) -> bool:
    return "repro/flow/" in path


@register
class UnguardedSharedStateRule(ProjectRule):
    """Thread-shared attributes must hold their inferred guard lock."""

    id = "unguarded-shared-state"
    title = "thread-shared attribute accessed without its guard lock"

    def applies_to(self, path: str) -> bool:
        return _flow_scoped(path)

    def check_project(self, project: Project) -> Iterator[Finding]:
        model = build_model(project)
        for cls_qualname in sorted(model.locks):
            yield from self._check_class(project, model, cls_qualname)

    def _check_class(
        self, project: Project, model: ConcurrencyModel, cls_qualname: str
    ) -> Iterator[Finding]:
        owner = _short(cls_qualname)
        accesses = [
            access for access in model.accesses
            if access.cls == cls_qualname
            and access.method_name not in _EXEMPT_METHODS
        ]
        guarded: Dict[str, Set[LockId]] = {}
        witnesses: Dict[str, ThreadChain] = {}
        methods_touching: Dict[str, Set[str]] = {}
        written: Set[str] = set()
        unlocked_writes: Dict[str, bool] = {}
        for access in accesses:
            effective = _effective_held(model, access)
            for lock in effective:
                if lock[0] == cls_qualname:
                    guarded.setdefault(access.attr, set()).add(lock)
            chain = model.reachable.get(access.func)
            if chain is not None:
                witnesses.setdefault(access.attr, chain)
            methods_touching.setdefault(access.attr, set()).add(access.func)
            if access.kind == "written":
                written.add(access.attr)
                if not effective:
                    unlocked_writes[access.attr] = True
        for access in accesses:
            if not project.is_selected(access.path):
                continue
            witness = witnesses.get(access.attr)
            if witness is None:
                continue  # never touched from thread context
            if access.attr not in written:
                continue  # immutable after construction: reads are safe
            effective = _effective_held(model, access)
            verb = "written" if access.kind == "written" else "read"
            guards = guarded.get(access.attr)
            if guards:
                if effective & guards:
                    continue
                locks_text = " or ".join(
                    sorted(_lock_display(lock) for lock in guards)
                )
                yield Finding(
                    path=access.path, line=access.line, col=access.col,
                    rule=self.id,
                    message=(
                        f"{owner}.{access.attr} is {verb} without holding "
                        f"{locks_text}; other accesses hold it, and the "
                        f"attribute is thread-shared via {witness.describe()}"
                    ),
                )
            else:
                if not unlocked_writes.get(access.attr):
                    continue  # effectively immutable after construction
                if len(methods_touching.get(access.attr, set())) < 2:
                    continue  # single-method state, no cross-method race
                yield Finding(
                    path=access.path, line=access.line, col=access.col,
                    rule=self.id,
                    message=(
                        f"{owner}.{access.attr} is {verb} with no lock held; "
                        f"the attribute is mutated and thread-shared via "
                        f"{witness.describe()} but no access ever holds one "
                        f"of {owner}'s locks"
                    ),
                )


@dataclass(frozen=True)
class _Edge:
    """First-seen witness for one lock-order edge."""

    path: str
    line: int
    via: Optional[str]  # callee display when the edge crosses a call

    def describe(self, src: LockId, dst: LockId) -> str:
        how = f" via {self.via}" if self.via else ""
        return (
            f"{_lock_display(src)} -> {_lock_display(dst)}"
            f" at {self.path}:{self.line}{how}"
        )


@register
class LockOrderInversionRule(ProjectRule):
    """The static lock-acquisition graph must stay acyclic."""

    id = "lock-order-inversion"
    title = "cyclic lock-acquisition order (potential deadlock)"

    def applies_to(self, path: str) -> bool:
        return _flow_scoped(path)

    def check_project(self, project: Project) -> Iterator[Finding]:
        model = build_model(project)
        reentrant = {
            (info.cls, info.attr): info.reentrant
            for table in model.locks.values()
            for info in table.values()
        }
        acquires = _transitive_acquires(project, model)
        edges: Dict[Tuple[LockId, LockId], _Edge] = {}
        findings: List[Finding] = []
        # Direct nested acquisitions.
        for acq in model.acquisitions:
            for held in acq.held:
                if held == acq.lock:
                    if not reentrant.get(acq.lock, True) and project.is_selected(acq.path):
                        findings.append(Finding(
                            path=acq.path, line=acq.line, col=acq.col,
                            rule=self.id,
                            message=(
                                f"non-reentrant lock {_lock_display(acq.lock)} "
                                f"is re-acquired while already held in "
                                f"{acq.func.rsplit('.', 1)[-1]}; "
                                f"threading.Lock does not reenter - this "
                                f"deadlocks"
                            ),
                        ))
                    continue
                edges.setdefault(
                    (held, acq.lock), _Edge(acq.path, acq.line, via=None)
                )
        # Calls made while holding a lock, into code that acquires more.
        for qualname in sorted(model.call_sites):
            caller = project.functions.get(qualname)
            if caller is None:
                continue
            for site in model.call_sites[qualname]:
                if not site.held or site.resolved is None:
                    continue
                callee = project.functions.get(site.resolved)
                if callee is None or callee.is_async:
                    continue
                for lock in sorted(acquires.get(site.resolved, frozenset())):
                    for held in site.held:
                        if held == lock:
                            if not reentrant.get(lock, True) and project.is_selected(caller.path):
                                findings.append(Finding(
                                    path=caller.path, line=site.node.lineno,
                                    col=site.node.col_offset, rule=self.id,
                                    message=(
                                        f"{caller.display} holds non-reentrant "
                                        f"lock {_lock_display(lock)} and calls "
                                        f"{callee.display}, which acquires it "
                                        f"again; this deadlocks"
                                    ),
                                ))
                            continue
                        edges.setdefault(
                            (held, lock),
                            _Edge(caller.path, site.node.lineno,
                                  via=callee.display),
                        )
        findings.extend(self._cycle_findings(project, edges))
        seen: Set[Finding] = set()
        for finding in sorted(findings):
            if finding not in seen:
                seen.add(finding)
                yield finding

    def _cycle_findings(
        self, project: Project, edges: Dict[Tuple[LockId, LockId], _Edge]
    ) -> List[Finding]:
        nodes = sorted({lock for pair in edges for lock in pair})
        reach: Dict[LockId, Set[LockId]] = {node: set() for node in nodes}
        for src, dst in edges:
            reach[src].add(dst)
        for mid in nodes:  # tiny graphs: closure by repeated expansion
            for src in nodes:
                if mid in reach[src]:
                    reach[src] |= reach[mid]
        grouped: Set[FrozenSet[LockId]] = set()
        for src in nodes:
            component = frozenset(
                {src}
                | {dst for dst in reach[src] if src in reach.get(dst, set())}
            )
            if len(component) > 1:
                grouped.add(component)
        findings: List[Finding] = []
        for component in sorted(grouped, key=lambda c: sorted(c)):
            inner = sorted(
                (pair, edge) for pair, edge in edges.items()
                if pair[0] in component and pair[1] in component
            )
            if not inner:
                continue
            anchor = min((edge for _, edge in inner),
                         key=lambda edge: (edge.path, edge.line))
            if not project.is_selected(anchor.path):
                continue
            names = ", ".join(sorted(_lock_display(lock) for lock in component))
            detail = "; ".join(
                edge.describe(pair[0], pair[1]) for pair, edge in inner
            )
            findings.append(Finding(
                path=anchor.path, line=anchor.line, col=0, rule=self.id,
                message=(
                    f"lock-order cycle between {names}: {detail}; two threads "
                    f"taking these locks in opposite orders deadlock"
                ),
            ))
        return findings


def _classify_blocking(
    module: Optional[ModuleInfo],
    locks: Mapping[str, LockInfo],
    node: ast.Call,
) -> Optional[str]:
    """Human label when the call blocks the calling thread, else None."""
    if module is not None:
        dotted = dotted_name(module, node.func)
        if dotted is not None:
            if dotted in _BLOCKING_DOTTED or dotted.startswith("subprocess."):
                return f"{dotted}()"
    if (
        isinstance(node.func, ast.Name)
        and node.func.id == "open"
        and (module is None or "open" not in module.imports)
    ):
        return "open()"
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "acquire"
        and isinstance(node.func.value, ast.Attribute)
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id == "self"
        and node.func.value.attr in locks
    ):
        return f"self.{node.func.value.attr}.acquire()"
    return None


def _blocking_summaries(
    project: Project, model: ConcurrencyModel
) -> Dict[str, BlockedInfo]:
    """For every sync function: the blocking operation it can hit, with
    the chain down to it.  A direct operation wins (the earliest line);
    otherwise the shortest chain through sync callees, ties going to the
    earliest call site, so the chain does not depend on visit order."""
    blocked: Dict[str, BlockedInfo] = {}
    acquisitions_by_func: Dict[str, List[Acquisition]] = {}
    for acq in model.acquisitions:
        acquisitions_by_func.setdefault(acq.func, []).append(acq)
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        if info.is_async:
            continue
        module = project.modules.get(info.module)
        locks = model.locks_of(info.class_qualname)
        candidates: List[Tuple[int, str]] = []
        for site in model.call_sites.get(qualname, []):
            op = _classify_blocking(module, locks, site.node)
            if op is not None:
                candidates.append((site.node.lineno, op))
        for acq in acquisitions_by_func.get(qualname, []):
            candidates.append((acq.line, f"acquiring {_lock_display(acq.lock)}"))
        if candidates:
            line, op = min(candidates)
            blocked[qualname] = BlockedInfo(
                op=op, path=info.path, line=line, chain=()
            )

    def transfer(
        qualname: str, read: Callable[[str], Optional[BlockedInfo]]
    ) -> Optional[BlockedInfo]:
        best: Optional[BlockedInfo] = None
        for site in model.call_sites.get(qualname, []):
            if site.resolved is None:
                continue
            callee = project.functions[site.resolved]
            inner = None if callee.is_async else read(site.resolved)
            if inner is not None and (best is None or len(inner.chain) + 1 < len(best.chain)):
                best = BlockedInfo(
                    op=inner.op, path=inner.path, line=inner.line,
                    chain=(callee.display,) + inner.chain,
                )
        return best

    solved = solve(
        [qualname for qualname, info in project.functions.items()
         if not info.is_async and qualname not in blocked],
        blocked, transfer,
    )
    return {qualname: info for qualname, info in solved.items() if info is not None}


@register
class BlockingInAsyncRule(ProjectRule):
    """``async def`` bodies must not block the event loop; thread code
    must not touch asyncio primitives."""

    id = "blocking-in-async"
    title = "blocking operation reachable from an async body"

    def applies_to(self, path: str) -> bool:
        return _flow_scoped(path)

    def check_project(self, project: Project) -> Iterator[Finding]:
        model = build_model(project)
        blocked = _blocking_summaries(project, model)
        findings: List[Finding] = []
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            if not info.is_async or not project.is_selected(info.path):
                continue
            self._scan_async_body(project, model, blocked, info, findings)
        findings.extend(self._thread_touches_asyncio(project, model))
        seen: Set[Finding] = set()
        for finding in sorted(findings):
            if finding not in seen:
                seen.add(finding)
                yield finding

    def _scan_async_body(
        self,
        project: Project,
        model: ConcurrencyModel,
        blocked: Dict[str, BlockedInfo],
        info: FunctionInfo,
        findings: List[Finding],
    ) -> None:
        module = project.modules.get(info.module)
        locks = model.locks_of(info.class_qualname)

        def visit(node: ast.AST) -> None:
            if isinstance(node, ast.Lambda):
                return  # deferred; runs wherever the callback fires
            if isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Attribute)
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == "self"
                        and expr.attr in locks
                    ):
                        findings.append(Finding(
                            path=info.path, line=expr.lineno,
                            col=expr.col_offset, rule=self.id,
                            message=(
                                f"async {info.display} acquires threading "
                                f"lock self.{expr.attr} on the event loop; "
                                f"move the critical section to "
                                f"asyncio.to_thread or use asyncio.Lock"
                            ),
                        ))
            if isinstance(node, ast.Call):
                dotted = (
                    dotted_name(module, node.func)
                    if module is not None else None
                )
                if dotted is not None and dotted.startswith("asyncio."):
                    for arg in node.args:
                        visit(arg)
                    for keyword in node.keywords:
                        visit(keyword.value)
                    return
                op = _classify_blocking(module, locks, node)
                if op is not None:
                    findings.append(Finding(
                        path=info.path, line=node.lineno,
                        col=node.col_offset, rule=self.id,
                        message=(
                            f"blocking call {op} inside async {info.display} "
                            f"runs on the event loop; route it through "
                            f"asyncio.to_thread"
                        ),
                    ))
                else:
                    resolved = project.resolve_call(info, node.func)
                    if (
                        resolved is not None
                        and not resolved.is_async
                        and resolved.qualname in blocked
                    ):
                        inner = blocked[resolved.qualname]
                        chain = " -> ".join((resolved.display,) + inner.chain)
                        findings.append(Finding(
                            path=info.path, line=node.lineno,
                            col=node.col_offset, rule=self.id,
                            message=(
                                f"async {info.display} reaches blocking "
                                f"{inner.op} ({inner.path}:{inner.line}) via "
                                f"{chain}; route the call through "
                                f"asyncio.to_thread"
                            ),
                        ))
            for child in ast.iter_child_nodes(node):
                visit(child)

        for stmt in info.node.body:
            visit(stmt)

    def _thread_touches_asyncio(
        self, project: Project, model: ConcurrencyModel
    ) -> List[Finding]:
        findings: List[Finding] = []
        for qualname in sorted(model.reachable):
            info = project.functions.get(qualname)
            if info is None or not project.is_selected(info.path):
                continue
            module = project.modules.get(info.module)
            if module is None:
                continue
            chain = model.reachable[qualname]
            for site in model.call_sites.get(qualname, []):
                dotted = dotted_name(module, site.node.func)
                if (
                    dotted is None
                    or not dotted.startswith("asyncio.")
                    or dotted in _THREADSAFE_ASYNCIO
                ):
                    continue
                findings.append(Finding(
                    path=info.path, line=site.node.lineno,
                    col=site.node.col_offset, rule=self.id,
                    message=(
                        f"{dotted}() is called from thread context "
                        f"({chain.describe()}); asyncio objects are not "
                        f"thread-safe - marshal through "
                        f"loop.call_soon_threadsafe instead"
                    ),
                ))
        return findings

"""Rule engine of the determinism/contract checker.

A :class:`LintRule` inspects one parsed module (:class:`ModuleSource`)
and yields :class:`Finding` objects.  Rules self-register into a module
registry via the :func:`register` decorator, so adding a rule is: write
the class, register it, add a firing + waiver fixture test.

Waivers are inline comments::

    risky_call()  # repro-lint: allow[broad-except]
    # repro-lint: allow[unordered-iteration] justification here
    for item in some_set:
        ...

A waiver on line ``L`` suppresses matching findings on ``L`` and ``L+1``
(so a standalone comment line waives the statement below it).  Several
rules may be waived at once: ``allow[rule-a,rule-b]``.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.flow.errors import InputValidationError

if TYPE_CHECKING:
    from repro.lintcheck.callgraph import Project

#: rule id reserved for files the parser rejects (not waivable by rules)
SYNTAX_RULE = "syntax-error"

_WAIVER_RE = re.compile(r"#\s*repro-lint:\s*allow\[([A-Za-z0-9_\-, ]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def parse_waivers(text: str) -> Dict[int, FrozenSet[str]]:
    """Line number -> rule ids waived *on that line* (1-based).

    Only the comment's own line is recorded here; the engine extends each
    waiver to the following line when filtering findings.
    """
    waivers: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _WAIVER_RE.search(line)
        if match:
            names = frozenset(
                name.strip() for name in match.group(1).split(",") if name.strip()
            )
            if names:
                waivers[lineno] = waivers.get(lineno, frozenset()) | names
    return waivers


def _decorator_waivers(
    tree: ast.Module, waivers: Dict[int, FrozenSet[str]]
) -> Dict[int, FrozenSet[str]]:
    """Extend waivers across decorator stacks.

    A finding on a decorated ``def``/``class`` is anchored at the
    statement line, but the natural place for the waiver comment is next
    to (or just above) the decorators.  Map the union of waivers found on
    any decorator line — or on the line directly above the first
    decorator — onto the statement line itself.
    """
    if not waivers:
        return {}
    extended: Dict[int, FrozenSet[str]] = {}
    for node in ast.walk(tree):
        decorators = getattr(node, "decorator_list", None)
        if not decorators:
            continue
        names: FrozenSet[str] = frozenset()
        first_line = min(dec.lineno for dec in decorators)
        for lineno in sorted({dec.lineno for dec in decorators} | {first_line - 1}):
            names = names | waivers.get(lineno, frozenset())
        if names:
            statement_line = getattr(node, "lineno", None)
            if isinstance(statement_line, int):
                extended[statement_line] = (
                    extended.get(statement_line, frozenset()) | names
                )
    return extended


@dataclass
class ModuleSource:
    """One parsed module handed to every rule."""

    path: str
    text: str
    tree: ast.Module
    waivers: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: statement line -> rules waived via its decorator lines
    decorator_waivers: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str, path: str = "<string>") -> "ModuleSource":
        tree = ast.parse(text, filename=path)
        waivers = parse_waivers(text)
        return cls(
            path=path,
            text=text,
            tree=tree,
            waivers=waivers,
            decorator_waivers=_decorator_waivers(tree, waivers),
        )

    @classmethod
    def from_file(cls, path: str) -> "ModuleSource":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read(), path=path)

    def is_waived(self, rule_id: str, line: int) -> bool:
        """True when a waiver on ``line``, the line above, or a decorator
        of the statement starting at ``line`` names the rule."""
        for waiver_line in (line, line - 1):
            if rule_id in self.waivers.get(waiver_line, frozenset()):
                return True
        return rule_id in self.decorator_waivers.get(line, frozenset())


class LintRule:
    """Base class: subclass, set :attr:`id`/:attr:`title`, implement
    :meth:`check`, and decorate with :func:`register`."""

    id: str = ""
    title: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on the module at ``path`` (POSIX-ish
        normalized).  Default: everywhere."""
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


class ProjectRule(LintRule):
    """A rule that sees the whole project, not one module at a time.

    Subclasses implement :meth:`check_project` against the call-graph
    :class:`~repro.lintcheck.callgraph.Project` built from the linted
    files; the engine runs them once per ``check_paths`` call and applies
    the usual waiver/`applies_to` filtering to their findings.
    """

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "Project") -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, LintRule] = {}


def register(rule_cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding one rule instance to the registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def _ensure_builtin_rules() -> None:
    if not _REGISTRY:
        # registration side effects
        import repro.lintcheck.cachesafety  # noqa: F401
        import repro.lintcheck.concurrency  # noqa: F401
        import repro.lintcheck.numerics  # noqa: F401
        import repro.lintcheck.rules  # noqa: F401
        import repro.lintcheck.taint  # noqa: F401
        import repro.lintcheck.units  # noqa: F401


def iter_rules() -> List[LintRule]:
    """Every registered rule, ordered by id (stable output ordering)."""
    _ensure_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rules_for(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[LintRule]:
    """The rule subset for a run; unknown ids are a validation error."""
    rules = iter_rules()
    known = {rule.id for rule in rules}
    for name in list(select or []) + list(ignore or []):
        if name not in known:
            raise InputValidationError(
                "rule", f"unknown rule {name!r}; known: {sorted(known)}"
            )
    if select:
        rules = [rule for rule in rules if rule.id in set(select)]
    if ignore:
        rules = [rule for rule in rules if rule.id not in set(ignore)]
    return rules


def _normalize(path: str) -> str:
    return path.replace(os.sep, "/")


def check_source(
    text: str,
    path: str = "<string>",
    rules: Optional[Sequence[LintRule]] = None,
    apply_waivers: bool = True,
) -> List[Finding]:
    """Run the rules over one module's source text."""
    norm = _normalize(path)
    try:
        module = ModuleSource.from_text(text, path=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 1, (exc.offset or 1) - 1,
                        SYNTAX_RULE, f"cannot parse: {exc.msg}")]
    findings: List[Finding] = []
    for rule in rules if rules is not None else iter_rules():
        if not rule.applies_to(norm):
            continue
        for found in rule.check(module):
            if apply_waivers and module.is_waived(found.rule, found.line):
                continue
            findings.append(found)
    return sorted(findings)


def _collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated .py file list.

    Explicit file arguments are linted whatever their suffix; directory
    walks pick up ``*.py`` only.  A path that exists but yields nothing,
    or does not exist at all, is a validation error — a typo must not
    silently lint nothing and exit 0.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            matched = False
            for root, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
                        matched = True
            if not matched:
                raise InputValidationError(
                    "paths", f"directory {path!r} contains no Python files"
                )
        else:
            raise InputValidationError("paths", f"no such file or directory: {path!r}")
    seen: Dict[str, None] = {}
    for name in files:
        seen.setdefault(name, None)
    return list(seen)


def collect_files(
    paths: Sequence[str], exclude: Optional[Iterable[str]] = None
) -> List[str]:
    """The exact file list a ``check_paths`` run with the same arguments
    would lint (public so the CLI can build the call-graph project for
    ``--write-stage-fingerprints`` over the same set)."""
    excludes = [_normalize(pattern) for pattern in (exclude or [])]
    collected = _collect_files(paths)
    selected = [
        file_path for file_path in collected
        if not any(pattern in _normalize(file_path) for pattern in excludes)
    ]
    if collected and not selected:
        raise InputValidationError(
            "exclude", "the exclude patterns dropped every collected file; "
            "a lint run that checks nothing must not pass silently"
        )
    return selected


def _lint_file_chunk(
    payload: Tuple[Tuple[FrozenSet[str], bool], List[str]],
) -> List[List[Finding]]:
    """Module-level (picklable) ``--jobs`` worker: lint a chunk of files
    with the registry rules named by id, one findings list per file."""
    (rule_ids, apply_waivers), chunk = payload
    rules = [rule for rule in iter_rules() if rule.id in rule_ids]
    out: List[List[Finding]] = []
    for file_path in chunk:
        with open(file_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        out.append(
            check_source(text, path=file_path, rules=rules,
                         apply_waivers=apply_waivers)
        )
    return out


def _check_modules(
    files: Sequence[str],
    rules: Sequence[LintRule],
    apply_waivers: bool,
    jobs: int,
) -> List[Finding]:
    """Per-module rule phase, optionally fanned out over processes.

    Parallel dispatch requires every rule to be the registered instance
    of its id (so workers can rebuild the rule set from the registry);
    ad-hoc rule objects fall back to the serial path.  Output is
    identical either way — one findings list per file, in file order.
    """
    _ensure_builtin_rules()
    registry_backed = all(_REGISTRY.get(rule.id) is rule for rule in rules)
    if jobs > 1 and len(files) > 1 and registry_backed:
        from repro.flow.parallel import ParallelExecutor

        executor = ParallelExecutor(jobs)
        rule_ids = frozenset(rule.id for rule in rules)
        per_file = executor.map_chunks(
            _lint_file_chunk, (rule_ids, apply_waivers), list(files)
        )
        return [finding for file_findings in per_file for finding in file_findings]
    findings: List[Finding] = []
    for file_path in files:
        with open(file_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        findings.extend(
            check_source(text, path=file_path, rules=rules,
                         apply_waivers=apply_waivers)
        )
    return findings


def _check_project(
    files: Sequence[str],
    rules: Sequence["ProjectRule"],
    apply_waivers: bool,
    stage_fingerprints: Optional[str],
) -> List[Finding]:
    """Whole-program rule phase over the call-graph project."""
    from repro.lintcheck.callgraph import Project

    project = Project.from_files(files, stage_fingerprints_path=stage_fingerprints)
    sources: Dict[str, Optional[ModuleSource]] = {}
    findings: List[Finding] = []
    for rule in rules:
        for found in rule.check_project(project):
            if not rule.applies_to(_normalize(found.path)):
                continue
            if apply_waivers:
                module = _module_source_cached(found.path, sources)
                if module is not None and module.is_waived(found.rule, found.line):
                    continue
            findings.append(found)
    return findings


def _module_source_cached(
    path: str, cache: Dict[str, Optional[ModuleSource]]
) -> Optional[ModuleSource]:
    if path not in cache:
        try:
            cache[path] = ModuleSource.from_file(path)
        except (OSError, SyntaxError, ValueError):
            cache[path] = None
    return cache[path]


def check_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[LintRule]] = None,
    apply_waivers: bool = True,
    exclude: Optional[Iterable[str]] = None,
    jobs: int = 1,
    stage_fingerprints: Optional[str] = None,
) -> List[Finding]:
    """Lint files and directory trees; findings sorted by (path, line).

    ``exclude`` drops any collected file whose normalized path contains
    one of the given substrings (e.g. the checker's own deliberately
    violating fixture corpus).  ``jobs`` fans the per-module rules out
    over worker processes (serial fallback below 2); the whole-program
    :class:`ProjectRule` phase always runs in-process, after the module
    phase, and ``stage_fingerprints`` names the checked-in fingerprint
    file the ``stale-version`` rule compares against.
    """
    selected = collect_files(paths, exclude=exclude)
    active: Sequence[LintRule] = list(rules) if rules is not None else iter_rules()
    module_rules = [rule for rule in active if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in active if isinstance(rule, ProjectRule)]
    findings = _check_modules(selected, module_rules, apply_waivers, jobs)
    if project_rules:
        findings.extend(
            _check_project(selected, project_rules, apply_waivers,
                           stage_fingerprints)
        )
    return sorted(findings)

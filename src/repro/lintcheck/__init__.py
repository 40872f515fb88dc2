"""Static analysis for flow determinism and contract hygiene.

The flow's correctness guarantees — bit-identical resume, stable artifact
keys, ordered journals, the FlowError exit-code taxonomy — all rest on
coding invariants (seeded RNG, no wall-clock entropy near hashing,
sorted set iteration, declared stage versions) that no runtime test can
enforce exhaustively.  :mod:`repro.lintcheck` enforces them statically:
an AST-based rule engine with a pluggable registry, inline
``# repro-lint: allow[RULE]`` waivers, and a ``repro lint`` CLI
subcommand whose exit codes fold into the flow's 0/1/3 contract.

On top of the per-module rules sits a whole-program dataflow layer
(:mod:`repro.lintcheck.callgraph` / :mod:`~repro.lintcheck.cachesafety`
/ :mod:`~repro.lintcheck.taint`): cache-safety of every ``FlowStage``
(everything ``run()`` reads must be in its Merkle artifact key) and
inter-procedural entropy taint from sources like ``time.time()`` to
determinism sinks like ``stable_hash``, with full source→sink paths.

Stage rules read a stage's contract through the one set of stage
readers in :mod:`~repro.lintcheck.cachesafety` (nested defs skipped: their
``return`` is not the method's), and reachability is the one
breadth-first :func:`~repro.lintcheck.callgraph.walk_calls`.
"""

from repro.lintcheck.core import (
    Finding,
    LintRule,
    ModuleSource,
    ProjectRule,
    check_paths,
    check_source,
    collect_files,
    iter_rules,
    parse_waivers,
    register,
    rules_for,
)

# Importing the rule modules registers the built-in rule set.
from repro.lintcheck import cachesafety as _cachesafety_rules  # noqa: F401
from repro.lintcheck import concurrency as _concurrency_rules  # noqa: F401
from repro.lintcheck import numerics as _numerics_rules  # noqa: F401
from repro.lintcheck import rules as _builtin_rules  # noqa: F401
from repro.lintcheck import taint as _taint_rules  # noqa: F401
from repro.lintcheck import units as _units_rules  # noqa: F401

__all__ = [
    "Finding",
    "LintRule",
    "ModuleSource",
    "ProjectRule",
    "check_paths",
    "check_source",
    "collect_files",
    "iter_rules",
    "parse_waivers",
    "register",
    "rules_for",
]

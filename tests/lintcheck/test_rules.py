"""Per-rule coverage: each rule fires on a violating snippet and is
suppressed by a `# repro-lint: allow[...]` waiver on / above the line."""

import textwrap

import pytest

from repro.lintcheck import check_source, iter_rules, rules_for
from repro.flow.errors import InputValidationError

FLOW_PATH = "src/repro/flow/fake_module.py"


def lint(snippet, path="src/repro/anywhere.py", **kwargs):
    return check_source(textwrap.dedent(snippet), path=path, **kwargs)


def rule_ids(findings):
    return [finding.rule for finding in findings]


class TestUnseededRng:
    def test_module_level_call_fires(self):
        findings = lint("""
            import random
            x = random.random()
        """)
        assert rule_ids(findings) == ["unseeded-rng"]
        assert findings[0].line == 3

    def test_numpy_alias_fires(self):
        findings = lint("""
            import numpy as np
            x = np.random.normal()
        """)
        assert rule_ids(findings) == ["unseeded-rng"]

    def test_from_import_fires(self):
        findings = lint("""
            from random import shuffle
            shuffle([1, 2])
        """)
        assert rule_ids(findings) == ["unseeded-rng"]

    def test_seedless_constructor_fires(self):
        findings = lint("""
            import random
            rng = random.Random()
        """)
        assert rule_ids(findings) == ["unseeded-rng"]
        assert "without a seed" in findings[0].message

    def test_seeded_generators_clean(self):
        assert lint("""
            import random
            import numpy as np
            rng = random.Random(7)
            nprng = np.random.default_rng(seed=7)
            x = rng.random() + float(nprng.normal())
        """) == []

    def test_assigned_module_alias_fires(self):
        findings = lint("""
            import numpy as np
            alias = np.random
            def draw():
                r = alias
                return alias.normal() + r.uniform()
        """)
        assert rule_ids(findings) == ["unseeded-rng", "unseeded-rng"]

    def test_function_alias_stays_in_its_scope(self):
        assert rule_ids(lint("""
            import numpy as np
            def global_draw():
                r = np.random
                return r.uniform()
            def seeded_draw(r):
                return r.uniform()
        """)) == ["unseeded-rng"]

    def test_waiver_suppresses(self):
        assert lint("""
            import random
            x = random.random()  # repro-lint: allow[unseeded-rng]
        """) == []


class TestUnorderedIteration:
    def test_scoped_to_flow_paths(self):
        snippet = """
            def walk(items):
                seen = set(items)
                return [x for x in seen]
        """
        assert lint(snippet, path=FLOW_PATH) != []
        assert lint(snippet, path="src/repro/litho/other.py") == []

    def test_for_loop_over_set_literal_fires(self):
        findings = lint("""
            for item in {"b", "a"}:
                print(item)
        """, path=FLOW_PATH)
        assert rule_ids(findings) == ["unordered-iteration"]

    def test_annotated_set_variable_fires(self):
        findings = lint("""
            from typing import Set
            def dump(extra):
                layers: Set[str] = extra
                return [x for x in layers]
        """, path=FLOW_PATH)
        assert rule_ids(findings) == ["unordered-iteration"]

    def test_sorted_wrapping_clean(self):
        assert lint("""
            def walk(items):
                seen = set(items)
                for x in sorted(seen):
                    print(x)
                return sorted(repr(x) for x in seen)
        """, path=FLOW_PATH) == []

    def test_waiver_suppresses(self):
        assert lint("""
            def walk(items):
                seen = set(items)
                # repro-lint: allow[unordered-iteration] membership probe only
                return [x for x in seen]
        """, path=FLOW_PATH) == []


class TestStageContract:
    def test_missing_version_fires(self):
        findings = lint("""
            from repro.flow.stages import FlowStage
            class MyStage(FlowStage):
                name = "mine"
        """)
        assert rule_ids(findings) == ["stage-contract"]
        assert "version" in findings[0].message

    def test_missing_name_fires(self):
        findings = lint("""
            from repro.flow.stages import FlowStage
            class MyStage(FlowStage):
                version = 2
        """)
        assert rule_ids(findings) == ["stage-contract"]
        assert "name" in findings[0].message

    def test_bool_version_rejected(self):
        findings = lint("""
            from repro.flow.stages import FlowStage
            class MyStage(FlowStage):
                name = "mine"
                version = True
        """)
        assert rule_ids(findings) == ["stage-contract"]

    def test_computed_artifact_key_fires(self):
        findings = lint("""
            from repro.flow.stages import FlowStage
            class MyStage(FlowStage):
                name = "mine"
                version = 1
                def run(self, flow, config, artifacts, counters, context):
                    key = "a" + "b"
                    return {key: 1}
        """)
        assert rule_ids(findings) == ["stage-contract"]
        assert "string literals" in findings[0].message

    def test_compliant_stage_clean(self):
        assert lint("""
            from repro.flow.stages import FlowStage
            class MyStage(FlowStage):
                name = "mine"
                version = 4
                def run(self, flow, config, artifacts, counters, context):
                    return {"artifact": 1, "other": 2}
        """) == []

    def test_unrelated_class_clean(self):
        assert lint("""
            class NotAStage:
                pass
        """) == []

    def test_waiver_suppresses(self):
        assert lint("""
            from repro.flow.stages import FlowStage
            # repro-lint: allow[stage-contract] prototype stage
            class MyStage(FlowStage):
                name = "mine"
        """) == []


class TestBroadExcept:
    def test_swallowing_handler_fires(self):
        findings = lint("""
            try:
                x = 1
            except Exception:
                x = 0
        """, path=FLOW_PATH)
        assert rule_ids(findings) == ["broad-except"]

    def test_scoped_outside_flow_clean(self):
        assert lint("""
            try:
                x = 1
            except Exception:
                x = 0
        """, path="src/repro/litho/other.py") == []

    def test_reraising_handler_clean(self):
        assert lint("""
            from repro.flow.errors import StageError
            try:
                x = 1
            except Exception as exc:
                raise StageError("s", None, exc) from exc
        """, path=FLOW_PATH) == []

    def test_raise_in_nested_def_does_not_count(self):
        findings = lint("""
            try:
                x = 1
            except Exception:
                def helper():
                    raise RuntimeError("not a re-raise")
                x = 0
        """, path=FLOW_PATH)
        assert rule_ids(findings) == ["broad-except"]

    def test_waiver_suppresses(self):
        assert lint("""
            try:
                x = 1
            # repro-lint: allow[broad-except] tolerance is the feature here
            except Exception:
                x = 0
        """, path=FLOW_PATH) == []


class TestMutableDefault:
    def test_list_default_fires(self):
        findings = lint("""
            def f(items=[]):
                return items
        """)
        assert rule_ids(findings) == ["mutable-default"]

    def test_kwonly_set_default_fires(self):
        findings = lint("""
            def f(*, seen=set()):
                return seen
        """)
        assert rule_ids(findings) == ["mutable-default"]

    def test_none_default_clean(self):
        assert lint("""
            def f(items=None, k=3, name="x", frozen=()):
                return items
        """) == []

    def test_waiver_suppresses(self):
        assert lint("""
            def f(items=[]):  # repro-lint: allow[mutable-default]
                return items
        """) == []


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n")
        assert rule_ids(findings) == ["syntax-error"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(InputValidationError):
            rules_for(select=["no-such-rule"])

    def test_rule_registry_is_stable_and_complete(self):
        ids = [rule.id for rule in iter_rules()]
        assert ids == sorted(ids)
        assert set(ids) == {
            "broad-except", "mutable-default",
            "stage-contract", "stage-edge-contract", "unordered-iteration",
            "unseeded-rng", "cache-undeclared-input", "stale-version",
            "entropy-taint", "unguarded-shared-state",
            "lock-order-inversion", "blocking-in-async",
            "unit-mismatch", "missing-grid-conversion",
            "unit-unsafe-return", "dtype-drift", "silent-broadcast",
            "python-loop-over-ndarray",
        }

    def test_decorator_line_waiver_covers_decorated_statement(self):
        # The finding anchors at the `def`, but the waiver sits on the
        # decorator line above it (satellite fix).
        snippet = """
            import functools

            @functools.lru_cache  # repro-lint: allow[mutable-default]
            def f(items=[]):
                return items
        """
        assert lint(snippet) == []
        assert rule_ids(lint(snippet, apply_waivers=False)) == ["mutable-default"]

    def test_waiver_above_decorator_stack_covers_statement(self):
        snippet = """
            import functools

            # repro-lint: allow[mutable-default] justified fixture
            @functools.lru_cache
            @functools.wraps(print)
            def f(items=[]):
                return items
        """
        assert lint(snippet) == []

    def test_unwaived_decorated_def_still_fires(self):
        snippet = """
            import functools

            @functools.lru_cache
            def f(items=[]):
                return items
        """
        assert rule_ids(lint(snippet)) == ["mutable-default"]

    def test_no_waivers_mode_reports_waived_finding(self):
        snippet = """
            def f(items=[]):  # repro-lint: allow[mutable-default]
                return items
        """
        assert lint(snippet) == []
        assert rule_ids(lint(snippet, apply_waivers=False)) == ["mutable-default"]

    def test_findings_carry_location(self):
        findings = lint("""
            def f(items=[]):
                return items
        """)
        (finding,) = findings
        assert finding.path == "src/repro/anywhere.py"
        assert finding.line == 2
        assert finding.render().startswith("src/repro/anywhere.py:2:")

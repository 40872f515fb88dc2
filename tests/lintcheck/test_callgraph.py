"""The call-graph substrate: module naming, import resolution, class
tables, static call/property resolution over the real flow package, and
the summary solver every whole-program rule runs on."""

import ast
import os

import pytest

from repro.lintcheck import collect_files, concurrency, taint, units
from repro.lintcheck.callgraph import (
    Project,
    annotation_simple_name,
    module_name_for,
    solve,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
STAGES_PY = os.path.join(REPO_ROOT, "src", "repro", "flow", "stages.py")
CORPUS = os.path.join(REPO_ROOT, "tests", "lintcheck", "corpus")
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


@pytest.fixture(scope="module")
def project():
    return Project.from_files([STAGES_PY])


def _annotation(expr_text):
    return annotation_simple_name(ast.parse(expr_text, mode="eval").body)


class TestNaming:
    def test_module_name_walks_packages(self):
        _, name = module_name_for(STAGES_PY)
        assert name == "repro.flow.stages"

    def test_loose_script_is_its_own_module(self, tmp_path):
        script = tmp_path / "script.py"
        script.write_text("x = 1\n")
        _, name = module_name_for(str(script))
        assert name == "script"

    @pytest.mark.parametrize("text,expected", [
        ("FlowConfig", "FlowConfig"),
        ("'PostOpcTimingFlow'", "PostOpcTimingFlow"),
        ("Optional['FlowConfig']", "FlowConfig"),
        ("Dict[str, Any]", "Dict"),
        ("42", None),
    ])
    def test_annotation_simple_name(self, text, expected):
        assert _annotation(text) == expected


class TestProject:
    def test_selected_file_pulls_in_package_context(self, project):
        assert project.is_selected(STAGES_PY)
        assert "repro.flow.postopc" in project.modules
        assert not project.is_selected(project.modules["repro.flow.postopc"].path)

    def test_all_shipped_stages_discovered(self, project):
        names = {cls.name for cls in project.iter_subclasses("FlowStage")}
        assert {"PlaceStage", "DrawnStaStage", "TagCriticalStage", "OpcStage",
                "MetrologyStage", "BackAnnotateStage", "PostStaStage",
                "HoldStage", "PowerStage"} <= names

    def test_resolve_method_walks_bases(self, project):
        hold = project.resolve_class("HoldStage")
        install = project.resolve_method(hold, "install")
        assert install is not None
        assert install.class_qualname.endswith(".FlowStage")

    def test_resolve_call_on_annotated_receiver(self, project):
        run = project.functions["repro.flow.stages.TagCriticalStage.run"]
        call = next(
            node for node in ast.walk(run.node)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "tag_critical_gates"
        )
        callee = project.resolve_call(run, call.func)
        assert callee is not None
        assert callee.qualname.endswith("PostOpcTimingFlow.tag_critical_gates")

    def test_resolve_property_finds_getter(self, project):
        run = project.functions["repro.flow.stages.MetrologyStage.run"]
        getter = project.resolve_property(run, "flow", "gate_rects")
        assert getter is not None
        assert getter.is_property

    def test_dynamic_call_resolves_to_none(self, project):
        run = project.functions["repro.flow.stages.MetrologyStage.run"]
        dynamic = ast.parse("callbacks[0](x)", mode="eval").body
        assert project.resolve_call(run, dynamic.func) is None

    def test_referenced_module_constants_track_edits(self, project):
        run = project.functions["repro.flow.stages.DrawnStaStage.run"]
        constants = project.referenced_module_constants(run)
        assert any(name == "CANONICAL_PERIOD_PS" for _, name, _ in constants)


def round_robin(keys, initial, transfer):
    """The reference fixpoint: sweep every key in sorted order until a
    whole sweep changes nothing."""
    values = dict(initial)
    for _ in range(100):
        changed = False
        for key in sorted(keys):
            value = transfer(key, values.get)
            if value != values.get(key):
                values[key] = value
                changed = True
        if not changed:
            return values
    raise AssertionError("round-robin sweep did not converge")


class TestSolve:
    def test_chain_resolves_in_one_pass_per_change(self):
        # c reads b reads a: sorted order evaluates a first, so b and c
        # each see a settled input and nothing is re-run.
        deps = {"a": None, "b": "a", "c": "b"}
        evaluated = []

        def transfer(key, read):
            evaluated.append(key)
            dep = deps[key]
            return 1 if dep is None else (read(dep) or 0) + 1

        assert solve(deps, {}, transfer) == {"a": 1, "b": 2, "c": 3}
        assert evaluated == ["a", "b", "c"]

    def test_only_readers_of_a_changed_value_rerun(self):
        # a reads c (evaluated later), so a reruns once c settles; b never
        # read anything that changed and runs once.
        evaluated = []

        def transfer(key, read):
            evaluated.append(key)
            return {"a": lambda: (read("c") or 0) + 1,
                    "b": lambda: 5,
                    "c": lambda: 7}[key]()

        assert solve(["c", "b", "a"], {}, transfer) == {"a": 8, "b": 5, "c": 7}
        assert evaluated == ["a", "b", "c", "a"]

    def test_budget_stops_a_transfer_that_never_settles(self):
        evaluated = []

        def transfer(key, read):
            evaluated.append(key)
            return (read(key) or 0) + 1  # reads itself and always grows

        assert solve(["x", "y"], {}, transfer)["x"] >= 1
        assert len(evaluated) == 20  # ten evaluations per key, in total


@pytest.mark.parametrize("paths", [
    [CORPUS],
    [os.path.join(SRC_REPRO, "flow"), os.path.join(SRC_REPRO, "lintcheck")],
], ids=["corpus", "flow+lintcheck"])
def test_summary_tables_match_round_robin(monkeypatch, paths):
    """All five summaries (return units, return taint, always-held locks,
    transitive acquires, blocking chains) equal a plain round-robin sweep
    to convergence, and the solver never reaches its evaluation budget."""
    solved_tables = []

    def checked_solve(keys, initial, transfer):
        keys = list(keys)
        evaluations = []

        def counted(key, read):
            evaluations.append(key)
            return transfer(key, read)

        solved = solve(keys, initial, counted)
        assert solved == round_robin(keys, initial, transfer)
        assert len(evaluations) < 10 * len(keys) or not keys
        solved_tables.append(solved)
        return solved

    for module in (units, taint, concurrency):
        monkeypatch.setattr(module, "solve", checked_solve)
    project = Project.from_files(collect_files(paths))
    units.compute_unit_summaries(project)
    taint.compute_summaries(project)
    model = concurrency.build_model(project)  # solves the always-held locks
    concurrency._transitive_acquires(project, model)
    concurrency._blocking_summaries(project, model)
    assert len(solved_tables) == 5

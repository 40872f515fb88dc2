"""Tests for the declarative stage graph: explicit requires()/provides()
edges, topological validation with the GraphValidationError taxonomy, and
the execute() loop on a synthetic flow (parent-output merging, failure
wrapping, interruption between stages, input narrowing)."""

import pytest

from repro.flow import (
    EXIT_VALIDATION,
    FlowConfig,
    FlowContext,
    FlowInterrupted,
    FlowStage,
    FlowTrace,
    GraphValidationError,
    InputValidationError,
    InterruptGuard,
    RunJournal,
    StageError,
    StageGraph,
    default_stage_graph,
)


def _stage(name, requires=(), provides=()):
    """A minimal config-independent stage for graph-shape tests."""

    # repro-lint: allow[stage-contract] synthetic graph-shape stage, never cached
    class _Stage(FlowStage):
        pass

    _Stage.name = name
    _Stage.requires = lambda self, config, _r=tuple(requires): _r
    _Stage.provides = lambda self, _p=tuple(provides): _p
    return _Stage()


class TestDefaultGraph:
    def test_validate_returns_topological_order(self):
        graph = default_stage_graph()
        config = FlowConfig()
        order = [s.name for s in graph.validate(config)]
        assert sorted(order) == sorted(s.name for s in graph.stages)
        # every stage appears strictly after all of its parents
        position = {name: i for i, name in enumerate(order)}
        for parent, child in graph.edges(config):
            assert position[parent] < position[child]

    def test_edges_depend_on_config(self):
        graph = default_stage_graph()
        rule = graph.edges(FlowConfig(opc_mode="rule"))
        selective = graph.edges(FlowConfig(opc_mode="selective"))
        assert ("tag_critical", "opc") not in rule
        assert ("tag_critical", "opc") in selective
        assert ("place", "sta_drawn") in rule

    def test_artifact_producers_unique_and_complete(self):
        producers = default_stage_graph().artifact_producers()
        assert producers["placement"] == "place"
        assert producers["drawn_sta"] == "sta_drawn"
        assert producers["mask_polygons"] == "opc"
        assert producers["measurements"] == "metrology"
        assert producers["derates"] == "back_annotate"

    def test_stage_lookup(self):
        graph = default_stage_graph()
        assert graph.stage("opc").name == "opc"
        with pytest.raises(KeyError):
            graph.stage("nonexistent")


class TestValidationErrors:
    def test_missing_producer(self):
        graph = StageGraph([_stage("a"), _stage("b", requires=("ghost",))])
        with pytest.raises(GraphValidationError) as excinfo:
            graph.validate(FlowConfig())
        assert excinfo.value.kind == "missing-producer"
        assert "ghost" in str(excinfo.value)

    def test_duplicate_producer(self):
        graph = StageGraph([
            _stage("a", provides=("x",)),
            _stage("b", provides=("x",)),
        ])
        with pytest.raises(GraphValidationError) as excinfo:
            graph.validate(FlowConfig())
        assert excinfo.value.kind == "duplicate-producer"

    def test_cycle(self):
        graph = StageGraph([
            _stage("a", requires=("b",)),
            _stage("b", requires=("a",)),
            _stage("c"),
        ])
        with pytest.raises(GraphValidationError) as excinfo:
            graph.validate(FlowConfig())
        assert excinfo.value.kind == "cycle"
        # the stuck stages are named; the acyclic one is not
        assert "'a'" in str(excinfo.value) and "'b'" in str(excinfo.value)
        assert "'c'" not in str(excinfo.value)

    def test_taxonomy_placement(self):
        err = GraphValidationError("cycle", "boom")
        assert isinstance(err, InputValidationError)
        assert isinstance(err, ValueError)
        assert err.exit_code == EXIT_VALIDATION

    def test_duplicate_stage_name_rejected(self):
        with pytest.raises(ValueError):
            StageGraph([_stage("a"), _stage("a")])

    def test_nameless_stage_rejected(self):
        with pytest.raises(ValueError):
            StageGraph([_stage("")])


# -- execute() on a synthetic flow --------------------------------------------


class _FakeFlow:
    """Just enough surface for stage_key/settle_stage: a fingerprint and
    a graph.  Stages carry their own behavior."""

    def __init__(self, stages):
        self.fingerprint = "fake-flow"
        self.graph = StageGraph(stages)


def _run_stage(name, requires=(), provides=None, body=None):
    """A stage whose run() returns ``body(artifacts)``, by default one
    more than the sum of the artifacts it was handed."""
    provides = (name,) if provides is None else tuple(provides)

    # repro-lint: allow[stage-contract] synthetic execute-test stage
    class _Stage(FlowStage):
        pass

    def run(self, flow, config, artifacts, counters, context):
        if body is not None:
            return body(artifacts)
        return {name: sum(artifacts.values()) + 1 if artifacts else 1}

    _Stage.name = name
    _Stage.requires = lambda self, config, _r=tuple(requires): _r
    _Stage.provides = lambda self, _p=provides: _p
    _Stage.run = run
    return _Stage()


def _execute(flow, context=None, **kwargs):
    # explicit None check: an empty FlowContext is falsy
    context = FlowContext() if context is None else context
    trace = FlowTrace()
    artifacts = flow.graph.execute(flow, FlowConfig(), context, trace,
                                   **kwargs)
    return artifacts, context, trace


class TestExecute:
    def test_diamond_runs_and_merges(self):
        flow = _FakeFlow([
            _run_stage("a"),
            _run_stage("b", requires=("a",)),
            _run_stage("c", requires=("a",)),
            _run_stage("d", requires=("b", "c")),
        ])
        artifacts, context, trace = _execute(flow)
        # d sums only its parents' outputs (2 + 2), not a's as well
        assert artifacts == {"a": 1, "b": 2, "c": 2, "d": 5}
        assert [r.name for r in trace] == ["a", "b", "c", "d"]
        assert context.consistency() == []

    def test_stage_exception_wrapped_and_nothing_downstream_runs(self):
        def fail(artifacts):
            raise RuntimeError("boom")

        flow = _FakeFlow([
            _run_stage("a"),
            _run_stage("bad", requires=("a",), body=fail),
            _run_stage("after", requires=("bad",)),
        ])
        context = FlowContext()
        with pytest.raises(StageError) as excinfo:
            _execute(flow, context=context)
        assert excinfo.value.stage == "bad"
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        # the failed stage cached nothing; its child never ran
        assert len(context) == 1
        assert "after" not in context.misses

    def test_interrupt_lets_in_flight_settle_then_raises(self, tmp_path):
        guard = InterruptGuard()

        def stop_then_finish(artifacts):
            guard.interrupted = "SIGINT"  # as the signal handler would
            return {"b": 2}

        flow = _FakeFlow([
            _run_stage("a"),
            _run_stage("b", requires=("a",), body=stop_then_finish),
            _run_stage("c", requires=("b",)),
        ])
        context = FlowContext()
        journal = RunJournal(str(tmp_path))
        with pytest.raises(FlowInterrupted) as excinfo:
            _execute(flow, context=context, journal=journal,
                     interrupt=guard)
        journal.close()
        # the in-flight stage settled, was cached and journaled; the
        # pending stage is named so resume knows where it stopped
        assert context.misses["b"] == 1
        assert excinfo.value.next_stage == "c"
        assert "c" not in context.misses
        assert list(journal.completed_stage_keys()) == ["a", "b"]

    def test_inputs_narrowed_to_declared_parents(self):
        seen = {}

        def record(artifacts):
            seen.update(artifacts)
            return {"c": 3}

        flow = _FakeFlow([
            _run_stage("a"),
            _run_stage("b", requires=("a",)),
            # c declares only b: it must not see a's artifact even though
            # the loop already holds it
            _run_stage("c", requires=("b",), body=record),
        ])
        artifacts, _context, _trace = _execute(flow)
        assert set(seen) == {"b"}
        assert set(artifacts) == {"a", "b", "c"}

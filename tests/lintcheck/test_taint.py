"""Inter-procedural entropy taint: sources, sanitizers, sinks, chains."""

import os
import textwrap

from repro.lintcheck import check_paths, rules_for, taint
from repro.lintcheck.callgraph import Project

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CORPUS = os.path.join(REPO_ROOT, "tests", "lintcheck", "corpus")

TAINT_RULES = None  # resolved lazily so registration has happened


def lint_file(tmp_path, text, name="mod.py", apply_waivers=True):
    target = tmp_path / name
    target.write_text(textwrap.dedent(text))
    rules = rules_for(select=["entropy-taint"])
    return check_paths([str(target)], rules=rules, apply_waivers=apply_waivers)


class TestDirectFlows:
    def test_direct_entropy_into_stable_hash(self, tmp_path):
        findings = lint_file(tmp_path, """
            import time
            from repro.flow.context import stable_hash

            def key(config):
                return stable_hash((config, time.time()))
        """)
        assert [f.rule for f in findings] == ["entropy-taint"]
        assert "time.time()" in findings[0].message
        assert "stable_hash() argument" in findings[0].message

    def test_variable_hop_keeps_source_location(self, tmp_path):
        findings = lint_file(tmp_path, """
            import os
            from repro.flow.context import stable_hash

            def key(config):
                salt = os.urandom(8)
                tagged = (config, salt)
                return stable_hash(tagged)
        """)
        assert len(findings) == 1
        assert "os.urandom()" in findings[0].message
        assert ":6)" in findings[0].message  # source anchored where drawn

    def test_seeded_rng_is_not_a_source(self, tmp_path):
        assert lint_file(tmp_path, """
            import random
            from repro.flow.context import stable_hash

            def key(config):
                rng = random.Random(1234)
                return stable_hash((config, rng.random()))
        """) == []

    def test_unseeded_rng_is_a_source(self, tmp_path):
        findings = lint_file(tmp_path, """
            import random
            from repro.flow.context import stable_hash

            def key(config):
                return stable_hash((config, random.random()))
        """)
        assert len(findings) == 1


class TestLaunderedChains:
    def test_two_helper_chain_carries_full_path(self, tmp_path):
        findings = lint_file(tmp_path, """
            import time
            from repro.flow.context import stable_hash

            def _now():
                return time.time()

            def _label(prefix):
                return f"{prefix}-{_now()}"

            def key(config):
                return stable_hash((config, _label("run")))
        """)
        assert len(findings) == 1
        assert "-> _now -> _label -> stable_hash() argument" in findings[0].message

    def test_corpus_chain_fixture_fires_once(self):
        rules = rules_for(select=["entropy-taint"])
        findings = check_paths(
            [os.path.join(CORPUS, "taint_chain.py")], rules=rules
        )
        assert len(findings) == 1
        assert "_now -> _label" in findings[0].message

    def test_recursive_summaries_converge_with_cycle_free_chains(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "rec.py"
        target.write_text(textwrap.dedent("""
            import time

            def walk(n, acc):
                if n <= 0:
                    return time.time()
                return walk(n - 1, acc)

            def ping(n):
                if n <= 0:
                    return time.time()
                return pong(n - 1)

            def pong(n):
                return ping(n)
        """))
        evaluations = []
        real_solve = taint.solve

        def counting_solve(keys, initial, transfer):
            def counted(key, read):
                evaluations.append(key)
                return transfer(key, read)
            return real_solve(keys, initial, counted)

        monkeypatch.setattr(taint, "solve", counting_solve)
        summaries = taint.compute_summaries(Project.from_files([str(target)]))
        for name in ("rec.walk", "rec.ping", "rec.pong"):
            labels = [label for label in summaries[name]
                      if isinstance(label, taint.TaintLabel)]
            assert 1 <= len(labels) <= 2
            for label in labels:
                assert len(set(label.chain)) == len(label.chain) <= 2
            assert evaluations.count(name) <= 4

    def test_corpus_recursive_fixture_names_shortest_chain(self):
        findings = check_paths(
            [os.path.join(CORPUS, "taint_recursive.py")],
            rules=rules_for(select=["entropy-taint"]),
        )
        assert [f.line for f in findings] == [32, 37]
        assert "-> walk -> stable_hash() argument" in findings[0].message
        assert "-> _ping -> stable_hash() argument" in findings[1].message

    def test_sanitized_helper_chain_is_clean(self, tmp_path):
        assert lint_file(tmp_path, """
            from repro.flow.context import stable_hash

            def _gates(names):
                return tuple(sorted(set(names)))

            def key(config, names):
                return stable_hash((config, _gates(names)))
        """) == []


class TestOrderTaint:
    def test_set_materialized_unsorted_fires(self, tmp_path):
        findings = lint_file(tmp_path, """
            from repro.flow.context import stable_hash

            def key(config, names):
                gates = set(names)
                return stable_hash((config, tuple(gates)))
        """)
        assert len(findings) == 1
        assert "unsorted set iteration" in findings[0].message

    def test_sorted_set_is_clean(self, tmp_path):
        assert lint_file(tmp_path, """
            from repro.flow.context import stable_hash

            def key(config, names):
                gates = set(names)
                return stable_hash((config, tuple(sorted(gates))))
        """) == []

    def test_set_loop_accumulation_fires(self, tmp_path):
        findings = lint_file(tmp_path, """
            from repro.flow.context import stable_hash

            def key(config, names):
                out = []
                for name in set(names):
                    out.append(name)
                return stable_hash((config, out))
        """)
        assert len(findings) == 1


class TestOtherSinks:
    def test_journal_record_call_is_a_sink(self, tmp_path):
        findings = lint_file(tmp_path, """
            import time

            def log_mode(journal, mode):
                journal.record_mode(mode, stamp=time.time())
        """)
        assert len(findings) == 1
        assert "record_mode()" in findings[0].message

    def test_stage_run_return_is_a_sink(self, tmp_path):
        findings = lint_file(tmp_path, """
            import time


            class FlowStage:
                name = "base"
                version = 0


            class StampStage(FlowStage):
                name = "stamp"
                version = 1

                def run(self, flow, config, artifacts, counters, context):
                    return {"stamped": time.time()}
        """)
        assert len(findings) == 1
        assert "stage run() artifact dict" in findings[0].message

    def test_clean_stage_run_return_is_silent(self, tmp_path):
        assert lint_file(tmp_path, """
            class FlowStage:
                name = "base"
                version = 0


            class PlainStage(FlowStage):
                name = "plain"
                version = 1

                def run(self, flow, config, artifacts, counters, context):
                    return {"doubled": config.alpha * 2}
        """) == []


class TestWaivers:
    def test_inline_waiver_suppresses_taint_finding(self, tmp_path):
        text = """
            import time
            from repro.flow.context import stable_hash

            def key(config):
                # repro-lint: allow[entropy-taint] deliberate telemetry salt
                return stable_hash((config, time.time()))
        """
        assert lint_file(tmp_path, text) == []
        assert lint_file(tmp_path, text, apply_waivers=False) != []

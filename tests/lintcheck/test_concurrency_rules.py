"""Concurrency rules over the corpus fixtures and the shipped tree:
lock-discipline inference (`unguarded-shared-state`), acquisition-order
cycles (`lock-order-inversion`), and event-loop blocking
(`blocking-in-async`), plus their SARIF/baseline round-trips."""

import json
import os
import textwrap

import pytest

from repro.__main__ import main
from repro.lintcheck import check_paths, collect_files
from repro.lintcheck.callgraph import Project
from repro.lintcheck.concurrency import build_model
from repro.lintcheck.core import rules_for
from repro.lintcheck.formats import apply_baseline, load_baseline, write_baseline

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_FLOW = os.path.join(REPO_ROOT, "src", "repro", "flow")
CORPUS_FLOW = os.path.join(REPO_ROOT, "tests", "lintcheck", "corpus", "repro", "flow")
RULES = ["unguarded-shared-state", "lock-order-inversion", "blocking-in-async"]
SELECT = ",".join(RULES)


def _corpus(select=RULES, **kwargs):
    return check_paths([CORPUS_FLOW], rules=rules_for(select=select), **kwargs)


@pytest.fixture(scope="module")
def findings():
    return _corpus()


def _at(findings, filename, line):
    return [f for f in findings
            if os.path.basename(f.path) == filename and f.line == line]


class TestUnguardedSharedState:
    def test_guarded_attr_bare_read_flagged_with_chain(self, findings):
        [found] = _at(findings, "concurrency_shared.py", 32)
        assert found.rule == "unguarded-shared-state"
        assert "Telemetry.events is read without holding Telemetry._lock" \
            in found.message
        # the witness carries the full thread entry -> access chain
        assert "pool.submit(pump)" in found.message
        assert "pump -> Telemetry.record" in found.message

    def test_guarded_attr_bare_write_flagged(self, findings):
        [found] = _at(findings, "concurrency_shared.py", 35)
        assert "Telemetry.rows is written without holding" in found.message

    def test_never_guarded_shared_attr_flagged(self, findings):
        [found] = _at(findings, "concurrency_shared.py", 38)
        assert "no lock held" in found.message
        assert "no access ever holds one of Telemetry's locks" in found.message

    def test_waived_access_suppressed_only_by_waiver(self, findings):
        assert _at(findings, "concurrency_shared.py", 45) == []
        unwaived = _corpus(apply_waivers=False)
        assert len(_at(unwaived, "concurrency_shared.py", 45)) == 1


class TestLockOrderInversion:
    def test_cycle_reported_with_both_orders(self, findings):
        [found] = _at(findings, "lock_order.py", 20)
        assert found.rule == "lock-order-inversion"
        assert "Pipeline._head" in found.message
        assert "Pipeline._tail" in found.message
        # one leg of the cycle goes through a call, and says so
        assert "via Pipeline._drop" in found.message
        assert "deadlock" in found.message

    def test_nonreentrant_reacquire_flagged(self, findings):
        [found] = _at(findings, "lock_order.py", 33)
        assert "does not reenter" in found.message
        assert "Pipeline._head" in found.message


class TestBlockingInAsync:
    def test_transitive_sleep_reported_with_chain(self, findings):
        [found] = _at(findings, "async_blocking.py", 39)
        assert found.rule == "blocking-in-async"
        assert "time.sleep()" in found.message
        assert "via slow_poll" in found.message
        assert "asyncio.to_thread" in found.message

    def test_two_hop_open_chain(self, findings):
        [found] = _at(findings, "async_blocking.py", 46)
        assert "open()" in found.message
        assert "persist_marker -> _write_marker" in found.message

    def test_threading_lock_in_async_body(self, findings):
        [found] = _at(findings, "async_blocking.py", 42)
        assert "self._lock" in found.message
        assert "event loop" in found.message

    def test_asyncio_from_thread_context_inverse(self, findings):
        [found] = _at(findings, "async_blocking.py", 29)
        assert "asyncio.get_event_loop()" in found.message
        assert "thread context" in found.message
        assert "_thread_body" in found.message

    def test_to_thread_routed_calls_stay_clean(self, findings):
        for line in (49, 50, 53):
            assert _at(findings, "async_blocking.py", line) == []

    def test_shortest_chain_wins_over_first_call_site(self, tmp_path):
        # f calls the three-hop a1 chain before the two-hop z1 chain; the
        # reported chain must not depend on which callee a sweep saw first.
        flow = tmp_path / "repro" / "flow"
        flow.mkdir(parents=True)
        (flow / "chains.py").write_text(textwrap.dedent("""
            import time

            def a3():
                time.sleep(1)

            def a2():
                a3()

            def a1():
                a2()

            def zz():
                time.sleep(1)

            def z1():
                zz()

            def f():
                a1()
                z1()

            async def main():
                f()
        """))
        [found] = check_paths([str(flow)],
                              rules=rules_for(select=["blocking-in-async"]))
        assert "via f -> z1 -> zz;" in found.message


class TestThreadEntries:
    def test_map_chunks_worker_is_not_a_thread_entry(self, tmp_path):
        # A map_chunks worker runs on the caller's thread or in a pool
        # process, never on a second thread of this process.
        flow = tmp_path / "repro" / "flow"
        flow.mkdir(parents=True)
        (flow / "dispatch.py").write_text(textwrap.dedent("""
            class Sweep:
                def run(self, executor, pool):
                    executor.map_chunks(self.tile, None, [])
                    pool.submit(self.pump)

                def tile(self, payload):
                    return []

                def pump(self):
                    pass
        """))
        model = build_model(Project.from_files(collect_files([str(flow)])))
        assert sorted(q.rsplit(".", 1)[-1] for q in model.entries) == ["pump"]


class TestShippedFlowAcceptance:
    """The issue's gate: the shipped flow tree lints clean under the
    three rules after the audit — and only because the audited waivers
    are in place."""

    def test_shipped_flow_is_clean(self, capsys):
        assert main(["lint", "--select", SELECT, SRC_FLOW]) == 0
        assert "clean (3 rules)" in capsys.readouterr().out

    def test_audited_waivers_stay_visible_to_no_waivers(self, capsys):
        assert main(["lint", "--select", SELECT, "--no-waivers", SRC_FLOW]) == 1
        out = capsys.readouterr().out
        # the deliberate on-loop orphan scan in the audit
        assert "service.py" in out


class TestRoundTrips:
    def test_sarif_carries_chain_messages(self, capsys):
        assert main(["lint", CORPUS_FLOW, "--select", SELECT,
                     "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        [run] = document["runs"]
        fired = {res["ruleId"] for res in run["results"]}
        assert set(RULES) <= fired
        chained = [res["message"]["text"] for res in run["results"]
                   if res["ruleId"] == "blocking-in-async"
                   and "->" in res["message"]["text"]]
        assert chained  # call-chain paths survive the SARIF encoding

    def test_baseline_round_trip(self, tmp_path, findings):
        path = str(tmp_path / "baseline.json")
        assert write_baseline(findings, path) == len(findings) > 0
        kept, suppressed = apply_baseline(findings, load_baseline(path))
        assert kept == []
        assert suppressed == len(findings)

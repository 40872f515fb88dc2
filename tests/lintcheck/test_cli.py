"""`repro lint` CLI: exit-code contract, output format, corpus, and the
shipped tree staying green."""

import os
import subprocess

import pytest

from repro.__main__ import main
from repro.lintcheck import check_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")
CORPUS = os.path.join(REPO_ROOT, "tests", "lintcheck", "corpus")


class TestExitCodes:
    def test_shipped_tree_is_green(self, capsys):
        assert main(["lint", SRC]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_1_with_file_line_rule(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(items=[]):\n    return items\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:1:" in out
        assert "mutable-default" in out

    def test_missing_path_exit_3(self, capsys):
        assert main(["lint", os.path.join(str(REPO_ROOT), "no-such-dir")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_exit_3(self, capsys):
        assert main(["lint", SRC, "--select", "no-such-rule"]) == 3

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("unseeded-rng", "hash-entropy", "unordered-iteration",
                        "stage-contract", "stage-edge-contract",
                        "broad-except", "mutable-default",
                        "cache-undeclared-input", "stale-version",
                        "entropy-taint", "unguarded-shared-state",
                        "lock-order-inversion", "blocking-in-async"):
            assert rule_id in out

    def test_select_restricts_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n"
            "def f(items=[]):\n"
            "    return random.random()\n"
        )
        assert main(["lint", str(bad), "--select", "unseeded-rng",
                     "--ignore", "unseeded-rng"]) == 0
        assert main(["lint", str(bad), "--select", "unseeded-rng"]) == 1

    def test_comma_separated_select(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n"
            "def f(items=[]):\n"
            "    return random.random()\n"
        )
        assert main(["lint", str(bad),
                     "--select", "unseeded-rng,mutable-default"]) == 1
        out = capsys.readouterr().out
        assert "unseeded-rng" in out and "mutable-default" in out
        assert main(["lint", str(bad), "--select", "unseeded-rng",
                     "--ignore", "unseeded-rng,mutable-default"]) == 0

    def test_exclude_drops_matching_files(self):
        assert main(["lint", CORPUS, "--exclude", "corpus"]) == 3  # nothing left
        assert main(["lint", CORPUS]) == 1


class TestCorpus:
    """The checker checking itself: every rule fires somewhere in the
    corpus, and the fully-waived file contributes nothing."""

    def test_every_rule_fires_in_corpus(self):
        # stale-version is absent by design: it needs a fingerprint file
        # recorded for the corpus stages, exercised in test_cachesafety.
        findings = check_paths([CORPUS])
        fired = {finding.rule for finding in findings}
        assert fired == {
            "unseeded-rng", "hash-entropy", "unordered-iteration",
            "stage-contract", "stage-edge-contract", "broad-except",
            "mutable-default", "cache-undeclared-input", "entropy-taint",
            "unguarded-shared-state", "lock-order-inversion",
            "blocking-in-async",
            "unit-mismatch", "missing-grid-conversion", "unit-unsafe-return",
            "dtype-drift", "silent-broadcast", "python-loop-over-ndarray",
        }

    def test_corpus_findings_match_golden(self, monkeypatch, capsys):
        # The corpus is the spec: every finding, message text included,
        # is pinned.  Regenerate with
        #   PYTHONPATH=src python -m repro lint tests/lintcheck/corpus \
        #       --no-waivers --format json > tests/lintcheck/corpus_findings.json
        monkeypatch.chdir(REPO_ROOT)
        rc = main(["lint", "tests/lintcheck/corpus", "--no-waivers",
                   "--format", "json"])
        assert rc == 1
        with open(os.path.join(REPO_ROOT, "tests", "lintcheck",
                               "corpus_findings.json"), encoding="utf-8") as fh:
            golden = fh.read()
        assert capsys.readouterr().out == golden

    def test_waived_file_is_clean(self):
        waived = os.path.join(CORPUS, "waived_ok.py")
        assert check_paths([waived]) == []
        # ...and only because of the waivers:
        assert check_paths([waived], apply_waivers=False) != []

    def test_scoped_rules_fire_only_under_flow_paths(self):
        findings = check_paths([CORPUS])
        for finding in findings:
            if finding.rule in ("unordered-iteration", "broad-except"):
                assert "repro" + os.sep + "flow" in finding.path or \
                    "repro/flow" in finding.path


class TestNoWaiversFlag:
    def test_no_waivers_reports_audited_sites(self, capsys):
        # The four deliberate broad-except sites (cache corruption
        # tolerance, worker fault tolerance, sweep partial-failure
        # capture) must stay visible to an audit run.
        assert main(["lint", SRC, "--no-waivers", "--select", "broad-except"]) == 1
        out = capsys.readouterr().out
        assert "context.py" in out
        assert "parallel.py" in out
        assert "sweep.py" in out


@pytest.mark.parametrize("design_flag", [[], ["--select", "stage-contract"]])
def test_shipped_stage_graph_satisfies_contract(design_flag):
    """All nine shipped stages declare name + version (satellite fix)."""
    stages_py = os.path.join(SRC, "repro", "flow", "stages.py")
    assert main(["lint", stages_py] + design_flag) == 0


class TestDataflowAcceptance:
    """The PR's acceptance gates, straight from the issue."""

    def test_shipped_flow_has_no_undeclared_inputs(self):
        flow_dir = os.path.join(SRC, "repro", "flow")
        assert main(["lint", "--select", "cache-undeclared-input", flow_dir]) == 0

    def test_hidden_read_corpus_stage_exits_1_naming_attr_and_class(self, capsys):
        package = os.path.join(CORPUS, "cache_safety")
        assert main(["lint", "--select", "cache-undeclared-input", package]) == 1
        out = capsys.readouterr().out
        assert "HiddenReadStage" in out
        assert "hidden_knob" in out
        assert "CleanStage" not in out

    def test_laundered_entropy_chain_reported_with_path(self, capsys):
        chain = os.path.join(CORPUS, "taint_chain.py")
        assert main(["lint", "--select", "entropy-taint", chain]) == 1
        out = capsys.readouterr().out
        assert "time.time()" in out
        assert "_now -> _label -> stable_hash() argument" in out
        # seeded / sorted variants stay clean: exactly one finding
        assert out.count("entropy-taint") == 2  # finding line + summary

    def test_jobs_output_matches_serial(self, capsys):
        assert main(["lint", CORPUS]) == 1
        serial = capsys.readouterr().out
        assert main(["lint", CORPUS, "--jobs", "4"]) == 1
        assert capsys.readouterr().out == serial


class TestBaselineFlags:
    def test_write_then_apply_baseline_round_trips(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", CORPUS, "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", CORPUS, "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "suppressed" in out
        assert "clean" in out

    def test_new_finding_not_in_baseline_still_fails(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        tracked = tmp_path / "tracked.py"
        tracked.write_text("def f(items=[]):\n    return items\n")
        assert main(["lint", str(tracked), "--write-baseline", str(baseline)]) == 0
        tracked.write_text(
            "import random\n"
            "x = random.random()\n"
            "def f(items=[]):\n"
            "    return items\n"
        )
        capsys.readouterr()
        assert main(["lint", str(tracked), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "unseeded-rng" in out
        assert "mutable-default" not in out  # grandfathered

    def test_corrupt_baseline_exit_3(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("not json")
        assert main(["lint", CORPUS, "--baseline", str(baseline)]) == 3


def _git(*args, cwd):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t"] + list(args),
        cwd=cwd, check=True, capture_output=True,
    )


class TestChangedFlag:
    """`--changed` scopes the run to git-touched files: the pre-commit
    fast path."""

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        _git("init", "-q", cwd=tmp_path)
        (tmp_path / "clean.py").write_text("X = 1\n")
        (tmp_path / "bad.py").write_text(
            "def f(items=[]):\n    return items\n")
        _git("add", "-A", cwd=tmp_path)
        _git("commit", "-qm", "seed", cwd=tmp_path)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_nothing_changed_is_clean(self, repo, capsys):
        assert main(["lint", str(repo), "--changed"]) == 0
        assert "no changed Python files" in capsys.readouterr().out

    def test_modified_file_is_linted_others_skipped(self, repo, capsys):
        (repo / "bad.py").write_text(
            "import random\nx = random.random()\n")
        assert main(["lint", str(repo), "--changed"]) == 1
        out = capsys.readouterr().out
        assert "unseeded-rng" in out
        assert "clean.py" not in out

    def test_untracked_file_is_picked_up(self, repo, capsys):
        (repo / "fresh.py").write_text(
            "def g(items=[]):\n    return items\n")
        assert main(["lint", str(repo), "--changed"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out and "mutable-default" in out

    def test_changed_findings_match_full_run_on_touched_files(
            self, repo, capsys):
        (repo / "bad.py").write_text(
            "import random\n"
            "def f(items=[]):\n"
            "    return random.random()\n"
        )
        main(["lint", str(repo / "bad.py")])
        full = capsys.readouterr().out
        main(["lint", str(repo), "--changed"])
        changed = capsys.readouterr().out
        assert changed == full

    def test_outside_git_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nowhere"))
        (tmp_path / "mod.py").write_text("X = 1\n")
        assert main(["lint", str(tmp_path), "--changed"]) == 3
        assert "git" in capsys.readouterr().err

    def test_detached_head_checkout(self, repo, capsys):
        """CI checkouts are detached; the diff base is HEAD's commit."""
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        _git("checkout", "-q", "--detach", head, cwd=repo)
        (repo / "bad.py").write_text("import random\nx = random.random()\n")
        assert main(["lint", str(repo), "--changed"]) == 1
        out = capsys.readouterr().out
        assert "unseeded-rng" in out
        assert "clean.py" not in out

    def test_renamed_file_lints_new_path_only(self, repo, capsys):
        """A staged rename lints the post-rename path; the old path is
        gone and must not be resurrected into the file list."""
        _git("mv", "bad.py", "moved.py", cwd=repo)
        # touch it so rename detection still pairs old->new (R score < 100%
        # keeps both paths in the -z stream, the case the parser must split)
        (repo / "moved.py").write_text(
            "import random\n\n\ndef f(items=[]):\n    return random.random()\n")
        _git("add", "-A", cwd=repo)
        assert main(["lint", str(repo), "--changed"]) == 1
        out = capsys.readouterr().out
        assert "moved.py" in out
        assert "bad.py" not in out

    def test_repo_with_no_commits_diffs_against_empty_tree(
            self, tmp_path, monkeypatch, capsys):
        _git("init", "-q", cwd=tmp_path)
        (tmp_path / "fresh.py").write_text("def g(items=[]):\n    return items\n")
        _git("add", "-A", cwd=tmp_path)  # staged but never committed
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(tmp_path), "--changed"]) == 1
        assert "mutable-default" in capsys.readouterr().out

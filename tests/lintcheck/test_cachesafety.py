"""Cache-safety dataflow rules: undeclared-input detection over the
corpus fixture package and the stale-version fingerprint workflow."""

import json
import os
import textwrap

import pytest

from repro.__main__ import main
from repro.lintcheck.cachesafety import analyze_stages
from repro.lintcheck.callgraph import Project

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CORPUS_PKG = os.path.join(REPO_ROOT, "tests", "lintcheck", "corpus", "cache_safety")


@pytest.fixture(scope="module")
def corpus_analyses():
    project = Project.from_files([os.path.join(CORPUS_PKG, "stages.py")])
    return {analysis.cls.name: analysis for analysis in analyze_stages(project)}


class TestRunInputScan:
    def test_flow_read_found_through_two_helpers(self, corpus_analyses):
        scan = corpus_analyses["HiddenReadStage"].scan
        assert "hidden_knob" in scan.flow_reads
        assert scan.flow_reads["hidden_knob"].chain == ("_scale", "_pick_knob")

    def test_config_read_found_through_helper(self, corpus_analyses):
        scan = corpus_analyses["HiddenReadStage"].scan
        assert "secret" in scan.config_reads
        assert scan.config_reads["secret"].chain == ("_scale",)

    def test_artifact_reads_collected(self, corpus_analyses):
        assert "ghost" in corpus_analyses["HiddenReadStage"].scan.artifact_reads
        assert "hidden" in corpus_analyses["SkipsParentStage"].scan.artifact_reads

    def test_declared_contract_extracted(self, corpus_analyses):
        clean = corpus_analyses["CleanStage"]
        assert clean.declared_parents == {"hidden_read"}
        assert clean.declared_config == {"gain"}
        assert clean.produced == {"scaled"}

    def test_clean_stage_has_no_undeclared_reads(self, corpus_analyses):
        clean = corpus_analyses["CleanStage"]
        assert set(clean.scan.config_reads) <= clean.declared_config
        assert set(clean.scan.flow_reads) <= {"netlist"}


class TestStageEdgeContract:
    def test_declared_artifact_never_returned_past_a_nested_def(
        self, tmp_path, capsys
    ):
        # The nested def's `return` is not a return of run(): run() still
        # returns only literal dicts, so "ghost" is provably never produced.
        pkg = tmp_path / "nestedpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "base.py").write_text(textwrap.dedent("""
            class FlowStage:
                name = "base"
                version = 0

                def provides(self):
                    return ()
        """))
        (pkg / "stages.py").write_text(textwrap.dedent("""
            from .base import FlowStage


            class NestedDefStage(FlowStage):
                name = "nested_def"
                version = 1

                def provides(self):
                    return ("real", "ghost")

                def run(self, flow, config, artifacts, counters, context):
                    def double(value):
                        return value * 2

                    return {"real": double(1)}
        """))
        assert main(["lint", str(pkg), "--select", "stage-edge-contract"]) == 1
        out = capsys.readouterr().out
        assert "NestedDefStage" in out
        assert "declares artifact 'ghost' but run() never returns it" in out


def _write_mini_package(tmp_path, run_extra="0", version=1):
    pkg = tmp_path / "minipkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "base.py").write_text(textwrap.dedent("""
        class FlowStage:
            name = "base"
            version = 0

            def requires(self, config):
                return ()

            def config_slice(self, flow, config):
                return None

            def run(self, flow, config, artifacts, counters, context):
                raise NotImplementedError
    """))
    (pkg / "stages.py").write_text(textwrap.dedent(f"""
        from .base import FlowStage


        class TinyStage(FlowStage):
            name = "tiny"
            version = {version}

            def config_slice(self, flow, config):
                return (config.alpha,)

            def run(self, flow, config, artifacts, counters, context):
                return {{"out": config.alpha + {run_extra}}}
    """))
    return pkg


class TestStaleVersion:
    def test_fingerprint_write_check_mutate_bump_cycle(self, tmp_path, capsys):
        pkg = _write_mini_package(tmp_path)
        fingerprints = tmp_path / "fp.json"
        args = ["--stage-fingerprints", str(fingerprints)]

        assert main(["lint", str(pkg), "--write-stage-fingerprints"] + args) == 0
        assert "1 stage fingerprint(s)" in capsys.readouterr().out

        select = ["lint", str(pkg), "--select", "stale-version"] + args
        assert main(select) == 0  # unchanged code, recorded shape matches
        capsys.readouterr()

        _write_mini_package(tmp_path, run_extra="1")  # logic changed, same version
        assert main(select) == 1
        out = capsys.readouterr().out
        assert "stale-version" in out
        assert "TinyStage" in out

        _write_mini_package(tmp_path, run_extra="1", version=2)  # bumped
        assert main(select) == 0

    def test_refreshing_fingerprints_clears_finding(self, tmp_path, capsys):
        pkg = _write_mini_package(tmp_path)
        fingerprints = tmp_path / "fp.json"
        args = ["--stage-fingerprints", str(fingerprints)]
        assert main(["lint", str(pkg), "--write-stage-fingerprints"] + args) == 0
        _write_mini_package(tmp_path, run_extra="2")
        assert main(["lint", str(pkg), "--select", "stale-version"] + args) == 1
        assert main(["lint", str(pkg), "--write-stage-fingerprints"] + args) == 0
        assert main(["lint", str(pkg), "--select", "stale-version"] + args) == 0

    def test_other_interpreter_fingerprints_are_skipped(self, tmp_path):
        pkg = _write_mini_package(tmp_path)
        fingerprints = tmp_path / "fp.json"
        args = ["--stage-fingerprints", str(fingerprints)]
        assert main(["lint", str(pkg), "--write-stage-fingerprints"] + args) == 0
        _write_mini_package(tmp_path, run_extra="3")
        payload = json.loads(fingerprints.read_text())
        payload["python"] = "0.0"  # shapes from another AST generation
        fingerprints.write_text(json.dumps(payload))
        assert main(["lint", str(pkg), "--select", "stale-version"] + args) == 0

    def test_missing_fingerprint_file_is_silent(self, tmp_path):
        pkg = _write_mini_package(tmp_path)
        assert main(["lint", str(pkg), "--select", "stale-version",
                     "--stage-fingerprints", str(tmp_path / "absent.json")]) == 0

    def test_comment_only_edit_keeps_shape(self, tmp_path):
        pkg = _write_mini_package(tmp_path)
        fingerprints = tmp_path / "fp.json"
        args = ["--stage-fingerprints", str(fingerprints)]
        assert main(["lint", str(pkg), "--write-stage-fingerprints"] + args) == 0
        stages = pkg / "stages.py"
        stages.write_text(stages.read_text() + "\n# a trailing comment\n")
        assert main(["lint", str(pkg), "--select", "stale-version"] + args) == 0

    def test_docstring_only_edit_keeps_shape(self, tmp_path, capsys):
        def documented(pkg, doc):
            stages = pkg / "stages.py"
            signature = "def run(self, flow, config, artifacts, counters, context):\n"
            stages.write_text(stages.read_text().replace(
                signature, f'{signature}        """{doc}"""\n'))

        pkg = _write_mini_package(tmp_path)
        documented(pkg, "The alpha knob, passed through.")
        fingerprints = tmp_path / "fp.json"
        args = ["--stage-fingerprints", str(fingerprints)]
        assert main(["lint", str(pkg), "--write-stage-fingerprints"] + args) == 0
        select = ["lint", str(pkg), "--select", "stale-version"] + args

        _write_mini_package(tmp_path)
        documented(pkg, "Rewritten: the alpha knob, unchanged, as the artifact.")
        assert main(select) == 0
        _write_mini_package(tmp_path)  # the docstring removed
        assert main(select) == 0

        _write_mini_package(tmp_path, run_extra="1")  # one token of logic
        documented(pkg, "The alpha knob, passed through.")
        capsys.readouterr()
        assert main(select) == 1
        assert "TinyStage" in capsys.readouterr().out


    def test_edit_behind_reexported_non_role_call_is_flagged(self, tmp_path, capsys):
        # run() hands the helper no role-bound name, and reaches it only
        # through a package re-export; its edit must still move the shape.
        pkg = _write_mini_package(tmp_path)
        helpers = pkg / "helpers"
        helpers.mkdir()
        (helpers / "__init__.py").write_text("from .impl import halve\n")
        (pkg / "stages.py").write_text(textwrap.dedent("""
            from .base import FlowStage
            from .helpers import halve


            class TinyStage(FlowStage):
                name = "tiny"
                version = 1

                def run(self, flow, config, artifacts, counters, context):
                    return {"out": halve(flow.netlist.size)}
        """))
        impl = helpers / "impl.py"
        impl.write_text("def halve(value):\n    return value / 2\n")
        fingerprints = tmp_path / "fp.json"
        args = ["--stage-fingerprints", str(fingerprints)]
        assert main(["lint", str(pkg), "--write-stage-fingerprints"] + args) == 0
        select = ["lint", str(pkg), "--select", "stale-version"] + args
        assert main(select) == 0
        impl.write_text("def halve(value):\n    return value / 3\n")
        capsys.readouterr()
        assert main(select) == 1
        assert "TinyStage" in capsys.readouterr().out


def test_shipped_fingerprints_match_tree_on_this_interpreter():
    """The committed fingerprint file must stay in sync with stages.py
    (on the interpreter generation that wrote it; others skip)."""
    committed = os.path.join(REPO_ROOT, ".repro-stage-fingerprints.json")
    assert os.path.isfile(committed)
    flow_dir = os.path.join(REPO_ROOT, "src", "repro", "flow")
    assert main(["lint", flow_dir, "--select", "stale-version",
                 "--stage-fingerprints", committed]) == 0

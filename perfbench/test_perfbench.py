"""Self-checks of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

They run every workload at its smoke size, untraced and traced, so they
take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )


@pytest.fixture(scope="module", params=run.WORKLOADS)
def smoke(request):
    """Untraced and traced smoke results of one workload."""
    results = {}
    for trace in ("0", "1"):
        done = _run("--workload", request.param, "--seed", "5", "--seconds", "0.5",
                    "--trace", trace, "--smoke")
        assert done.returncode == 0, done.stderr
        results[trace] = (done.stdout, json.loads(done.stdout.strip().splitlines()[-1]))
    return request.param, results


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workload.END_TO_END
    assert BENCHMARK["paths"] == ["perfbench"]


def test_smoke_prints_every_metric_with_its_unit(smoke):
    name, results = smoke
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        stdout, final = results[trace]
        assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {k: v["unit"] for k, v in final["metrics"].items()}
        assert got == want
        for metric, unit in want.items():
            assert any(line.split()[:1] == [metric] and line.rstrip().endswith(unit)
                       for line in stdout.splitlines()), metric
    for metric, value in results["0"][1]["metrics"].items():
        assert value["value"] > 0, metric


def test_each_layer_is_exercised_by_its_workload(smoke):
    name, results = smoke
    metrics = results["1"][1]["metrics"]
    for layer, entry in layers.load_ledger()["layers"].items():
        exercised = {w for ws in entry["moves"].values() for w in ws}
        if name in exercised:
            assert metrics[f"{layer}.calls"]["value"] > 0, layer
    if name == "fabric1k-ssta":
        assert metrics["litho.aerial_image.calls"]["value"] == 0


def test_install_wraps_and_uninstall_restores():
    sites = [s for group in layers.layer_sites().values() for s in group]
    originals = {site: layers.current(site) for site in sites}
    assert layers.wrapped_sites() == []
    recorder = layers.Recorder()
    recorder.install()
    try:
        assert sorted(layers.wrapped_sites()) == sorted(sites + list(layers.COUNT_HOOKS))
    finally:
        recorder.uninstall()
    assert layers.wrapped_sites() == []
    assert all(layers.current(site) is fn for site, fn in originals.items())


def test_span_self_time_excludes_children():
    recorder = layers.Recorder()
    recorder.active = True

    def inner():
        return 1

    def outer():
        return recorder.span("inner", inner, (), {}, None)

    recorder.span("outer", outer, (), {}, None)
    assert recorder.layers["outer"].calls == recorder.layers["inner"].calls == 1
    total = sum(recorder.layers["outer"].durations)
    assert recorder.layers["outer"].self_s < total


def test_every_warm_up_has_a_stored_reference():
    for spec in workload.WORKLOADS.values():
        for smoke in (True, False):
            subject = workload.Subject(spec, workload.REFERENCE_SEED, smoke=smoke)
            assert workload.reference_path(workload.reference_name(subject)).is_file()


@pytest.mark.parametrize("name, tol", [
    ("c17-model-opc", workload.WNS_TOL_PS),
    ("c17-model-opc.smoke", workload.WNS_TOL_PS),
    ("fabric1k-ssta", workload.EXACT_TOL_PS),
])
def test_reference_digest_tolerance(name, tol):
    reference = json.loads(workload.reference_path(name).read_text())
    assert workload._close_digest(reference, reference, tol) is None
    samples = reference["mc_wns_ps"]
    jitter = dict(reference, mc_wns_ps=[v + tol / 10 for v in samples])
    assert workload._close_digest(jitter, reference, tol) is None
    wrong = dict(reference, mc_wns_ps=samples[:-1] + [samples[-1] + 10 * tol])
    assert workload._close_digest(wrong, reference, tol) is not None
    assert workload._close_digest(dict(reference, mc_wns_ps=samples[:-1]),
                                  reference, tol) is not None
    if "cd_nm" in reference:
        cds = reference["cd_nm"]
        jitter = dict(reference, cd_nm={k: v + 1e-9 for k, v in cds.items()})
        assert workload._close_digest(jitter, reference, tol) is None
        key = sorted(cds)[0]
        wrong = dict(reference, cd_nm=dict(cds, **{key: cds[key] + 3}))
        assert workload._close_digest(wrong, reference, tol) is not None
    else:
        wrong = dict(reference, critical_gates=reference["critical_gates"][1:])
        assert workload._close_digest(wrong, reference, tol) is not None


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run("--workload", "fabric1k-ssta", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

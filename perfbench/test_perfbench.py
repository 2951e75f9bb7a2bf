"""The benchmark's own tests: seconds-long runs of every workload path at
``--size tiny``.  Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import graftcert  # noqa: E402
import graftcert.network  # noqa: E402
import graftcert.verifier  # noqa: E402
from graftcert.errors import GraftcertError  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of what the benchmark sees in a checkout: the sources, the
    benchmark and BENCHMARK.json."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(os.path.join(ROOT, "src", "graftcert"), root / "src" / "graftcert",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


def _run(cwd, *args):
    return subprocess.run(
        [*BENCHMARK["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(checkout, workload, trace):
    proc = _run(checkout, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_artifacts(checkout):
    """A second run of the same seed is checked against the first one's
    metrics.json and checkpoint digests."""
    for _ in range(2):
        proc = _run(checkout, "--workload", "pipeline-moons", "--seed", "5",
                    "--seconds", "0", "--size", "tiny")
        assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_fails_without_a_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_verdict_flips():
    ref = ["verified", "timeout", "attacked", "misclassified"]
    same = [{"index": i, "verdict": v} for i, v in enumerate(ref)]
    assert workloads.verdict_flips(same, ref) == []
    budget = [dict(r, verdict=v) for r, v in zip(same, ["timeout", "verified", "timeout", "timeout"])]
    assert workloads.verdict_flips(budget, ref) == []
    flipped = [dict(r, verdict=v) for r, v in zip(same, ["falsified", "timeout", "verified", "verified"])]
    assert len(workloads.verdict_flips(flipped, ref)) == 3


def test_check_fires_on_a_corrupted_reference(tmp_path):
    wl = workloads.CertifyMnist(0, "tiny", str(tmp_path))
    wl.prepare()
    state = wl.setup()
    honest = wl.run_pass(state, GraftcertError)
    assert honest.digests and not honest.problems
    verdicts = json.loads((tmp_path / "certify-mnist-0" / "metrics.json").read_text())
    got = [r["verdict"] for r in verdicts["per_example"]]
    # a verdict that can never change (misclassified) keeps the test meaningful
    # whichever verdicts the tiny network produces
    wl.reference = ["misclassified" if v == "verified" else "verified" for v in got]
    corrupted = wl.run_pass(state, GraftcertError)
    assert any("reference" in p for p in corrupted.problems)


def test_trace_leaves_no_wrapper_bound(tmp_path):
    original = graftcert.network.forward_batch
    wl = workloads.PipelineMoons(0, "tiny", str(tmp_path))
    cfg = wl.setup()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert graftcert.verifier.forward_batch is not original
        assert spans.bound_wrappers()
        result = wl.run_pass(cfg, GraftcertError)
    finally:
        tracer.uninstall()
    assert spans.bound_wrappers() == []
    assert graftcert.verifier.forward_batch is original
    assert graftcert.forward_batch is original
    assert result.digests
    metrics = tracer.layer_metrics()
    assert metrics["pipeline.run_pipeline.total_s"] > 0
    assert metrics["verifier.bab_verify.root_decided"] == metrics["verifier.bab_verify.calls"]
    assert metrics["network.forward_batch.rows"] >= metrics["network.forward_batch.calls"] > 0
    tracer.write(tmp_path / "spans.csv.gz")
    assert (tmp_path / "spans.csv.gz").stat().st_size > 0


def test_calibrator_samples_every_pass_and_unbinds(tmp_path):
    original = graftcert.network.forward_batch
    wl = workloads.PipelineMoons(0, "tiny", str(tmp_path))
    cfg = wl.setup()
    calibrator = calibrate.Calibrator()
    calibrator.install()
    try:
        assert graftcert.verifier.forward_batch is not original
        for _ in range(2):
            calibrator.begin_pass()
            assert wl.run_pass(cfg, GraftcertError).digests
            calibrator.end_pass()
    finally:
        calibrator.uninstall()
    assert spans.bound_wrappers() == []
    assert graftcert.verifier.forward_batch is original
    assert len(calibrator.pass_s) == 2 and all(calibrator.pass_speed)
    assert calibrator.normalised(calibrator.pass_s) > 0
    assert calibrator.normalised([None, None]) is None

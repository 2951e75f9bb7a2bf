"""The benchmark workloads, their inputs and their output checks.

Every workload is a closed loop with one client: each call starts when the
previous one returns.  A *pass* is one round of identical, deterministic
calls; the loop repeats passes.  The inputs are configs and synthetic-data
specs made from the workload seed; graftcert receives nothing else.

certify-mnist
    ``evaluate_network`` on each of the first test examples of the
    MNIST-shaped acceptance protocol (protocol seed 0, eps 0.1, 512 domains,
    deterministic mode), then ``report`` on their records.  The network is
    the ``grafted.json`` that ``run_pipeline`` writes for that protocol,
    built by the code under test (see ``build_network``).  The workload seed
    seeds the attacks and BaB restarts.  It does not pick the examples: one
    example costs 0.1 to 7 s, so a seed-chosen slice of the few examples a
    run can afford would measure the slice rather than the code.
pipeline-moons
    ``run_pipeline`` on ``cli.default_config()`` with ``num_verify`` widened
    to the whole 300-example test split.  The seed draws the test split;
    training never reads it, so every seed trains the same network.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import graftcert
# called through their modules, so the traced run's rebinding reaches them
from graftcert import cli, data, network, pipeline
from graftcert.pipeline import ExperimentConfig
from graftcert.verifier import VerifyBudget

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference_certify.json")

# tests/test_acceptance.py::_mnist_protocol_cfg at protocol seed 0
_BLOBS = {
    "kind": "synthetic", "generator": "blobs", "dim": 784, "classes": 10,
    "std": 0.05, "std_max": 0.15, "center_seed": 7,
    "center_low": 0.05, "center_high": 0.95, "clusters_per_class": 2,
}
_PROTOCOL = {
    "dataset": {"train": dict(_BLOBS, n=4000, seed=1000), "test": dict(_BLOBS, n=400, seed=2000)},
    "architecture": [784, 128, 128, 128, 10],
    "eps_train": 0.1,
    "eps_verify": 0.1,
    "clip": [0.0, 1.0],
    "graft_fraction": 0.5,
    "method": "graft",
    "warmup_epochs": 5,
    "warmup_lr": 0.05,
    "train": {
        "epochs": 18, "batch_size": 128, "lr": 0.02, "weight_decay": 5e-4,
        "milestones": [10, 15], "seed": 0,
    },
    "train_l1": 7e-4,
    "train_attack_steps": 5,
    "finetune": {
        "epochs": 12, "batch_size": 128, "weight_lr": 5e-3, "weight_decay": 5e-4, "seed": 0,
    },
    "finetune_l1": 1e-3,
    "budget": {"time_limit": 30.0, "max_domains": 512},
    "num_verify": 50,
    "score_subset": 512,
    "seed": 0,
    "deterministic": True,
}
CERTIFY_EXAMPLES = 4


def mnist_protocol(size: str) -> dict:
    """The protocol config; ``tiny`` shrinks it for the benchmark's tests."""
    doc = copy.deepcopy(_PROTOCOL)
    if size == "tiny":
        for split, n in (("train", 300), ("test", 60)):
            doc["dataset"][split].update(dim=16, classes=3, clusters_per_class=1, n=n)
        doc["architecture"] = [16, 12, 12, 3]
        doc["warmup_epochs"] = 1
        doc["train"].update(epochs=2, milestones=[1])
        doc["finetune"]["epochs"] = 1
        doc["score_subset"] = 64
        doc["budget"]["max_domains"] = 32
    return doc


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class PassResult:
    """One pass, reduced to what the metrics and checks need.  ``steps``
    maps each timed call to its wall seconds (absent when it raised);
    ``bab_seconds`` maps example index to BaB seconds for the examples that
    reached BaB."""

    examples: int
    failed: int = 0
    steps: dict[str, float] = field(default_factory=dict)
    bab_seconds: dict[int, float] = field(default_factory=dict)
    va: float = 0.0
    sa: float = 0.0
    ra: float = 0.0
    unr: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _record_report(result: PassResult, records, rep, out_dir: str) -> None:
    for r in records:
        if r["verdict"] in ("verified", "falsified", "timeout"):
            result.bab_seconds[r["index"]] = r["time_seconds"]
    result.va, result.sa, result.ra, result.unr = rep.va, rep.sa, rep.ra, rep.unr
    result.digests["metrics"] = sha256(os.path.join(out_dir, "metrics.json"))
    if not rep.va <= rep.ra + 1e-9 <= rep.sa + 2e-9:
        result.problems.append(f"metric order violated: VA {rep.va} RA {rep.ra} SA {rep.sa}")


def verdict_flips(records, reference: list[str]) -> list[str]:
    """Examples that moved between ``verified`` and any of attacked /
    falsified / misclassified against the reference verdicts.  A move to or
    from ``timeout`` is a budget effect and allowed."""
    flips = []
    for r in records:
        i = r["index"]
        if i >= len(reference):
            continue
        ref, got = reference[i], r["verdict"]
        if "timeout" not in (ref, got) and (ref == "verified") != (got == "verified"):
            flips.append(f"example {i}: reference {ref}, got {got}")
    return flips


def _timed(result: PassResult, key: str, errors, fn, *args, **kwargs):
    """Call ``fn`` and record its wall seconds under ``key``; a raised
    ``errors`` is logged and returns None."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except errors as exc:
        print(f"perfbench: {key} failed: {exc}", file=sys.stderr)
        return None
    result.steps[key] = time.perf_counter() - t0
    return out


def _child(*args: str, timeout: float | None = None) -> float:
    """Run this file in a child process; returns its wall seconds.  Without
    a timeout the wait blocks instead of polling, so the time is exact."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(graftcert.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args], check=True, env=env, timeout=timeout
    )
    return time.perf_counter() - t0


def network_dir(work_dir: str) -> str:
    return os.path.join(work_dir, "certify-network")


def build_network(work_dir: str, size: str) -> float:
    """Build the certify-mnist network once per checkout and source digest:
    ``run_pipeline`` on the protocol, in a child process so its memory does
    not reach the measuring process.  Returns the build seconds (0 when it
    was already built)."""
    target = network_dir(work_dir)
    if os.path.isfile(os.path.join(target, "grafted.json")):
        return 0.0
    tmp = f"{target}.tmp{os.getpid()}"
    seconds = _child("build", tmp, size, timeout=600)
    os.replace(tmp, target)
    return seconds


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """``prepare`` builds what is not timed, ``setup`` is the timed set-up,
    ``run_pass`` one pass of the closed loop."""

    name = ""

    def __init__(self, seed: int, size: str, work_dir: str):
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, f"{self.name}-{seed}")

    def prepare(self) -> float:
        return 0.0

    def setup(self):
        raise NotImplementedError

    def run_pass(self, state, errors) -> PassResult:
        raise NotImplementedError

    def setup_seconds(self) -> float:
        """Wall seconds of a fresh process that imports graftcert and sets
        the workload up: what a user waits for before the first call."""
        return _child("setup", self.name, str(self.seed), self.size, self.work_dir)


class CertifyMnist(Workload):
    name = "certify-mnist"

    def __init__(self, seed: int, size: str, work_dir: str):
        super().__init__(seed, size, work_dir)
        self.workers = min(len(os.sched_getaffinity(0)), 2)
        self.reference = None

    def prepare(self) -> float:
        seconds = build_network(self.work_dir, self.size)
        if self.size == "full":
            with open(REFERENCE, encoding="utf-8") as fh:
                ref = json.load(fh)
            # the recorded verdicts describe one network; another one (say,
            # after a change to training) is checked for metric order only
            net_sha = sha256(os.path.join(network_dir(self.work_dir), "grafted.json"))
            if ref["network_sha256"] == net_sha:
                self.reference = ref["verdicts"]
        return seconds

    def setup(self):
        doc = mnist_protocol(self.size)
        test = data.load_dataset(doc["dataset"]["test"])
        net = network.load_checkpoint(os.path.join(network_dir(self.work_dir), "grafted.json"))
        return doc, net, test

    def run_pass(self, state, errors) -> PassResult:
        doc, net, test = state
        budget = VerifyBudget(**doc["budget"])
        result = PassResult(CERTIFY_EXAMPLES)
        records, unrs = [], []
        # one call per example, so each example is timed on its own
        for i in range(CERTIFY_EXAMPLES):
            out = _timed(
                result, f"example {i}", errors, pipeline.evaluate_network,
                net, test.subset([i]),
                eps_verify=doc["eps_verify"], clip=tuple(doc["clip"]), budget=budget,
                num_verify=1, seed=self.seed * CERTIFY_EXAMPLES + i,
                deterministic=True, workers=self.workers,
            )
            if out is None:
                result.failed += 1
                continue
            (record,), unr = out
            records.append(dict(record, index=i))
            unrs.append(unr)
        if not records:
            return result
        classes = doc["architecture"][-1]
        rep = _timed(
            result, "report", errors, pipeline.report,
            records, sum(unrs) / len(unrs), self.out_dir,
            time_unit="work_units", budget_top=float(budget.max_domains * (classes - 1)),
        )
        if rep is not None:
            _record_report(result, records, rep, self.out_dir)
        if self.reference is not None:
            result.problems += verdict_flips(records, self.reference)
        return result


class PipelineMoons(Workload):
    name = "pipeline-moons"

    def doc(self) -> dict:
        doc = cli.default_config()
        doc["dataset"]["test"]["seed"] += self.seed
        doc["num_verify"] = doc["dataset"]["test"]["n"]
        if self.size == "tiny":
            doc["dataset"]["train"]["n"] = 120
            doc["dataset"]["test"]["n"] = doc["num_verify"] = 60
            doc["train"].update(epochs=2, milestones=[1])
            doc["finetune"]["epochs"] = 1
        return dict(doc, out_dir=self.out_dir)

    def setup(self):
        doc = self.doc()
        for split in ("train", "test"):
            data.load_dataset(doc["dataset"][split])
        return ExperimentConfig.from_dict(doc)

    def run_pass(self, cfg, errors) -> PassResult:
        result = PassResult(cfg.num_verify)
        rep = _timed(result, "run_pipeline", errors, pipeline.run_pipeline, cfg)
        if rep is None:
            result.failed = cfg.num_verify
            return result
        with open(os.path.join(self.out_dir, "verdicts.json"), encoding="utf-8") as fh:
            records = json.load(fh)["records"]
        _record_report(result, records, rep, self.out_dir)
        result.digests["checkpoint"] = sha256(os.path.join(self.out_dir, "grafted.json"))
        return result


WORKLOADS = {w.name: w for w in (CertifyMnist, PipelineMoons)}


if __name__ == "__main__":
    if sys.argv[1] == "build":
        out, size = sys.argv[2:]
        cfg = mnist_protocol(size)
        cfg["num_verify"] = 1
        pipeline.run_pipeline(ExperimentConfig.from_dict(dict(cfg, out_dir=out)))
    else:
        name, seed, size, work = sys.argv[2:]
        WORKLOADS[name](int(seed), size, work).setup()

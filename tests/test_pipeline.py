import dataclasses
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from graftcert import (
    Dataset,
    FinetuneConfig,
    Network,
    PipelineError,
    TrainConfig,
    UsageError,
    VerifyBudget,
    load_checkpoint,
)
from graftcert import cli, pipeline
from graftcert.cli import default_config, main
from graftcert.data import load_dataset
from graftcert.grafting import load_plan
from graftcert.bounds import compute_bounds, input_region
from graftcert.network import forward_batch
from graftcert.training import AttackConfig
from graftcert.verifier import VerdictStatus, bab_verify, build_specs, pgd_attack
from graftcert.pipeline import (
    ExperimentConfig,
    evaluate_network,
    report,
    run_pipeline,
)

from conftest import manual_layer, mask_forward, random_net


def tiny_config(out, method="graft", seed=0, **over):
    doc = default_config()
    doc.update(
        {
            "out_dir": str(out),
            "method": method,
            "seed": seed,
            "num_verify": 16,
            "train": {"epochs": 10, "batch_size": 64, "lr": 0.05, "milestones": [7], "seed": seed},
            "finetune": {"epochs": 5, "batch_size": 64, "seed": seed},
            "budget": {"time_limit": 30.0, "max_domains": 400},
        }
    )
    doc.update(over)
    return ExperimentConfig.from_dict(doc)


@pytest.fixture(scope="module")
def graft_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("graft_run")
    cfg = tiny_config(out)
    rep = run_pipeline(cfg)
    return cfg, rep, out


class TestRunPipeline:
    def test_artifacts_written(self, graft_run):
        _, _, out = graft_run
        for name in [
            "config.json",
            "checkpoint.json",
            "plan.json",
            "grafted.json",
            "verdicts.json",
            "metrics.json",
            "metrics.csv",
            "curve.csv",
            "train_log.csv",
        ]:
            assert (out / name).exists(), name

    def test_attack_stage_ra_equals_verify_stage_ra(self, graft_run, tmp_path):
        # both stages attack test example i with the same seed; at one PGD
        # step, whether some examples hold depends on their seeded start
        cfg, _, out = graft_run
        staged = dataclasses.replace(cfg, checkpoint=str(out / "grafted.json"), attack_steps=1)
        pipeline.attack_stage(staged, str(tmp_path))
        pipeline.verify_stage(staged, str(tmp_path))
        attacked = json.loads((tmp_path / "attack.json").read_text())["per_example"]
        verified = json.loads((tmp_path / "verdicts.json").read_text())["records"]
        assert [r["ra"] for r in attacked] == [r["ra"] for r in verified]
        assert {r["ra"] for r in attacked} == {True, False}

    def test_metric_ordering(self, graft_run):
        _, rep, _ = graft_run
        assert rep.va <= rep.ra <= rep.sa
        assert 0 <= rep.unr <= 100

    def test_curve_monotone_and_capped(self, graft_run):
        cfg, rep, _ = graft_run
        counts = [c for _, c in rep.curve]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        verified_total = sum(1 for r in rep.per_example if r["verified"])
        assert counts[-1] == verified_total

    def test_per_example_consistency(self, graft_run):
        _, rep, _ = graft_run
        for r in rep.per_example:
            if r["verified"]:
                assert r["ra"] and r["sa"]
            if r["ra"]:
                assert r["sa"]

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a", num_verify=8)
        cfg_b = tiny_config(tmp_path / "b", num_verify=8)
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        ja = (tmp_path / "a" / "metrics.json").read_bytes()
        jb = (tmp_path / "b" / "metrics.json").read_bytes()
        assert ja == jb

    def test_method_none_skips_grafting(self, tmp_path):
        cfg = tiny_config(tmp_path, method="none", num_verify=8)
        rep = run_pipeline(cfg)
        assert not (tmp_path / "plan.json").exists()
        assert not (tmp_path / "grafted.json").exists()
        assert rep.va <= rep.ra <= rep.sa

    def test_baseline_methods_run(self, tmp_path):
        for method in ("sap", "gap", "random"):
            cfg = tiny_config(tmp_path / method, method=method, num_verify=6)
            rep = run_pipeline(cfg)
            plan = load_plan(tmp_path / method / "plan.json")
            assert len(plan.neuron_ids) == 16  # half of 32 hidden neurons

    def test_graft_zero_equals_explicit_masking(self, tmp_path):
        cfg = tiny_config(tmp_path, method="graft-zero", num_verify=8)
        rep = run_pipeline(cfg)
        net = load_checkpoint(tmp_path / "grafted.json")
        plan = load_plan(tmp_path / "plan.json")
        test_ds = load_dataset(cfg.dataset["test"])
        logits = forward_batch(net, test_ds.features)[0]
        masked = mask_forward(
            # re-create the same affine weights with plain ReLU everywhere
            _strip_grafts(net),
            test_ds.features,
            plan.neuron_ids,
        )
        assert np.max(np.abs(logits - masked)) < 1e-12
        # the pipeline's SA (over its evaluation slice) equals the
        # masked-net SA on the same slice, exactly
        k = cfg.num_verify
        sa_masked = 100.0 * float(
            (masked[:k].argmax(axis=1) == test_ds.labels[:k]).mean()
        )
        assert rep.sa == sa_masked

    def test_stage_failure_names_stage(self, tmp_path):
        doc = default_config()
        doc["out_dir"] = str(tmp_path)
        doc["dataset"] = {
            "train": {"kind": "csv", "path": str(tmp_path / "missing.csv")},
            "test": {"kind": "csv", "path": str(tmp_path / "missing.csv")},
        }
        cfg = ExperimentConfig.from_dict(doc)
        with pytest.raises(PipelineError, match="stage 'data'"):
            run_pipeline(cfg)

    def test_workers_match_sequential_in_wall_clock_mode(self, graft_run):
        cfg, _, out = graft_run
        net = load_checkpoint(out / "grafted.json")
        test_ds = load_dataset(cfg.dataset["test"])
        kwargs = dict(
            eps_verify=cfg.eps_verify, clip=cfg.clip, budget=VerifyBudget(None, 400),
            num_verify=8, seed=cfg.seed, deterministic=False,
        )
        runs = [evaluate_network(net, test_ds, workers=w, **kwargs) for w in (1, 2)]

        def verdicts(recs):
            return [(r["index"], r["verdict"], r["bound"], r["work_units"]) for r in recs]

        assert verdicts(runs[0][0]) == verdicts(runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_workers_byte_identical_in_deterministic_mode(self, graft_run, tmp_path, monkeypatch):
        started = []

        class Pool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", Pool)
        cfg, _, out = graft_run
        net = load_checkpoint(out / "grafted.json")
        test_ds = load_dataset(cfg.dataset["test"])
        top = float(cfg.budget.max_domains * (cfg.architecture[-1] - 1))
        for w in (1, 2):
            records, unr = evaluate_network(
                net, test_ds, eps_verify=cfg.eps_verify, clip=cfg.clip, budget=cfg.budget,
                num_verify=8, seed=cfg.seed, deterministic=True, workers=w,
            )
            report(records, unr, tmp_path / str(w), time_unit="work_units", budget_top=top)
        assert started == [2]
        assert (tmp_path / "1" / "metrics.json").read_bytes() == (
            tmp_path / "2" / "metrics.json"
        ).read_bytes()

    def test_single_example_stays_in_process(self, graft_run, monkeypatch):
        cfg, _, out = graft_run

        def no_pool(*args, **kwargs):
            raise AssertionError("one example must not start a process pool")

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
        records, _ = evaluate_network(
            load_checkpoint(out / "grafted.json"), load_dataset(cfg.dataset["test"]),
            eps_verify=cfg.eps_verify, clip=cfg.clip, budget=cfg.budget,
            num_verify=1, workers=2,
        )
        assert len(records) == 1

    def test_root_bounds_count_in_verification_time(self, monkeypatch):
        # one hidden neuron, logits (z, -z) with z in [0.4, 0.6]: robust, so
        # the example reaches the root's bound computation and BaB
        net = Network([manual_layer([[1.0]], [0.0]), manual_layer([[1.0], [-1.0]], [0.0, 0.0])])
        test = Dataset(np.array([[0.5]]), np.array([0]))
        # the root phase bounds each group in one compute_bounds call
        real, delay = pipeline.compute_bounds, 0.3

        def slow_bounds(*args, **kwargs):
            time.sleep(delay)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "compute_bounds", slow_bounds)
        for time_limit, verdict in ((30.0, "verified"), (delay / 2, "timeout")):
            (record,), _ = evaluate_network(
                net, test, eps_verify=0.1, clip=(0.0, 1.0),
                budget=VerifyBudget(time_limit, 100), num_verify=1, deterministic=False,
            )
            assert record["verdict"] == verdict
            assert record["time_seconds"] >= delay

    def test_checkpoint_roundtrip_same_verdicts(self, graft_run, tmp_path):
        cfg, rep, out = graft_run
        net = load_checkpoint(out / "grafted.json")
        test_ds = load_dataset(cfg.dataset["test"])
        kwargs = dict(
            eps_verify=cfg.eps_verify,
            clip=cfg.clip,
            budget=cfg.budget,
            num_verify=8,
            attack_steps=cfg.attack_steps,
            attack_restarts=cfg.attack_restarts,
            seed=cfg.seed,
            deterministic=True,
        )
        rec1, unr1 = evaluate_network(net, test_ds, **kwargs)
        # round-trip through a fresh checkpoint file
        import graftcert

        graftcert.save_checkpoint(net, tmp_path / "rt.json")
        net2 = load_checkpoint(tmp_path / "rt.json")
        rec2, unr2 = evaluate_network(net2, test_ds, **kwargs)
        assert unr1 == unr2

        def strip_wall(recs):
            return [{k: v for k, v in r.items() if k != "time_seconds"} for r in recs]

        assert strip_wall(rec1) == strip_wall(rec2)


def _reference_verify_example(payload):
    # the per-example evaluation evaluate_network ran before it ran its
    # phases over stacks of examples: the records must not change
    net, x0, label = payload["net"], payload["x0"], payload["label"]
    eps, clip, seed, time_limit = payload["eps"], payload["clip"], payload["seed"], payload["time_limit"]
    record = {
        "index": payload["index"], "label": label, "sa": False, "ra": False, "verified": False,
        "verdict": "misclassified", "bound": 0.0, "time_seconds": 0.0, "work_units": 0,
    }
    logits, _, _ = forward_batch(net, x0[None, :])
    pred = int(np.argmax(logits[0]))
    record["predicted"] = pred
    margins = build_specs(net.output_dim, label)
    if pred != label:
        record["bound"] = float(min(s.value(logits[0]) for s in margins))
        return record
    record["sa"] = True
    atk = AttackConfig(eps, steps=payload["attack_steps"], restarts=payload["attack_restarts"], clip=clip)
    adv = pgd_attack(net, x0, label, atk, seed=seed)
    if adv is not None:
        adv_logits, _, _ = forward_batch(net, adv[None, :])
        record["verdict"] = "attacked"
        record["bound"] = float(min(s.value(adv_logits[0]) for s in margins))
        return record
    record["ra"] = True
    box = input_region(x0, eps, clip)
    t0 = time.perf_counter()
    root_inter = compute_bounds(net, box, None, "crown")
    work, worst, verdict = 0, math.inf, "verified"
    for k, spec in enumerate(margins):
        remaining = None
        if time_limit is not None:
            remaining = time_limit - (time.perf_counter() - t0)
            if remaining <= 0:
                verdict = "timeout"
                break
        v = bab_verify(
            net, spec, box, VerifyBudget(remaining, payload["max_domains"]),
            seed=seed + 7919 * (k + 1), root_inter=root_inter,
        )
        work += v.domains_explored
        worst = min(worst, v.bound)
        if v.status == VerdictStatus.FALSIFIED:
            verdict = "falsified"
            break
        if v.status == VerdictStatus.TIMEOUT:
            verdict = "timeout"
            break
    record.update(
        time_seconds=time.perf_counter() - t0, work_units=work, bound=float(worst),
        verdict=verdict, verified=verdict == "verified",
    )
    return record


def _reference_records(net, test, *, eps_verify, clip, budget, num_verify, attack_steps=20,
                       attack_restarts=2, seed=0, deterministic=True):
    return [
        _reference_verify_example({
            "net": net, "x0": test.features[i], "label": int(test.labels[i]), "index": i,
            "eps": eps_verify, "clip": clip,
            "time_limit": None if deterministic else budget.time_limit,
            "max_domains": budget.max_domains, "attack_steps": attack_steps,
            "attack_restarts": attack_restarts, "seed": seed * 1_000_003 + i,
        })
        for i in range(min(num_verify, len(test)))
    ]


def _without_time(records):
    return [{k: v for k, v in r.items() if k != "time_seconds"} for r in records]


def _lockstep_cases():
    """Random nets with 2-5 classes and one or two hidden layers; most
    labels are the clean prediction.  Weak attacks leave counterexamples to
    BaB's root attack (falsified), small domain budgets give timeouts."""
    for seed in range(16):
        rng = np.random.default_rng(8800 + seed)
        classes = 2 + seed % 4
        widths = [int(rng.integers(2, 5))]
        widths += [int(rng.integers(3, 9)) for _ in range(1 + seed % 2)]
        net = random_net(8800 + seed, widths=widths + [classes], weight_scale=1.0,
                         graft_fraction=0.3 if seed % 3 == 0 else 0.0)
        clip = (0.0, 1.0) if seed % 2 else None
        X = rng.uniform(0.0, 1.0, (30, widths[0]))
        labels = np.argmax(forward_batch(net, X)[0], axis=1)
        wrong = rng.random(30) < 0.2
        labels[wrong] = rng.integers(0, classes, int(wrong.sum()))
        kwargs = dict(
            eps_verify=float(rng.choice([0.0, 0.03, 0.1, 0.2])), clip=clip,
            budget=VerifyBudget(30.0, (3, 60)[seed % 2 == 0 or seed % 5 == 0]),
            num_verify=int(rng.integers(20, 31)),
            attack_steps=(1, 20)[seed % 4 == 0], attack_restarts=(1, 2)[seed % 3 == 0],
            seed=seed,
        )
        yield seed, net, Dataset(X, labels), kwargs


def _verdict_kind(record, classes):
    if record["verdict"] == "verified":
        return "verified at root" if record["work_units"] == classes - 1 else "verified by BaB"
    return record["verdict"]


class TestLockstepEvaluation:
    """``evaluate_network`` runs each phase once over a stack of examples;
    every record must equal that of the per-example loop it replaced."""

    def test_records_equal_per_example_loop(self):
        kinds, clips = set(), set()
        for seed, net, test, kwargs in _lockstep_cases():
            got, unr = evaluate_network(net, test, **kwargs)
            want = _reference_records(net, test, **kwargs)
            assert _without_time(got) == _without_time(want), seed
            kinds |= {_verdict_kind(r, net.output_dim) for r in got}
            clips.add(kwargs["clip"] is None)
        assert kinds == {
            "misclassified", "attacked", "verified at root", "verified by BaB",
            "falsified", "timeout",
        }
        assert clips == {True, False}

    def test_wall_clock_without_limit_equals_per_example_loop(self):
        for seed, net, test, kwargs in list(_lockstep_cases())[:4]:
            kwargs = dict(kwargs, budget=VerifyBudget(None, kwargs["budget"].max_domains),
                          deterministic=False)
            got, _ = evaluate_network(net, test, **kwargs)
            assert _without_time(got) == _without_time(_reference_records(net, test, **kwargs))

    def test_workers_equal_per_example_loop(self):
        # each process takes one contiguous chunk of the examples
        for seed, net, test, kwargs in list(_lockstep_cases())[:2]:
            got, _ = evaluate_network(net, test, workers=2, **kwargs)
            assert [r["index"] for r in got] == list(range(kwargs["num_verify"]))
            assert _without_time(got) == _without_time(_reference_records(net, test, **kwargs))

    def test_root_margins_equal_crown_lower_bound(self):
        # BaB takes each undecided margin's root bound from the stacked
        # root phase, so it must be crown_lower_bound's float bit for bit
        from graftcert.bounds import Box, LayerBounds, crown_lower_bound

        checked = 0
        cases = list(_lockstep_cases())
        wide = random_net(8901, widths=[784, 128, 128, 10], weight_scale=0.05)
        X = np.random.default_rng(8901).uniform(0.0, 1.0, (3, 784))
        cases.append((0, wide, Dataset(X, np.zeros(3, int)), dict(eps_verify=0.1, clip=(0.0, 1.0))))
        for _, net, test, kw in cases:
            boxes = [input_region(x, kw["eps_verify"], kw["clip"]) for x in test.features[:6]]
            inter = compute_bounds(net, Box.stack(boxes), None, "crown")
            margins = [build_specs(net.output_dim, int(y)) for y in test.labels[:6]]
            root = pipeline._root_margins(net, Box.stack(boxes), inter, margins)
            for j, (box, specs) in enumerate(zip(boxes, margins)):
                one = LayerBounds(
                    tuple(x[j, 0] for x in inter.lower), tuple(x[j, 0] for x in inter.upper),
                    net.grafted,
                )
                for spec, got in zip(specs, root[j]):
                    want = crown_lower_bound(net, box, None, one, spec.coeffs, spec.const)
                    assert float(got).hex() == want.hex()
                    checked += 1
        assert checked > 250

    def test_bab_skips_the_root_work_it_is_given(self, monkeypatch):
        # each margin an RA example reaches is one bab_verify call, in
        # order, handed its root bound, so BaB never bounds the root again
        import graftcert.verifier as verifier

        crown = []
        real_crown = verifier.crown_lower_bound

        def counted(*args):
            crown.append(args)
            return real_crown(*args)

        calls, real = [], pipeline.bab_verify

        def spy(net, spec, box, *args, **kwargs):
            v = real(net, spec, box, *args, **kwargs)
            calls.append((id(box), spec.target, v.status, v.domains_explored))
            return v

        monkeypatch.setattr(verifier, "crown_lower_bound", counted)
        monkeypatch.setattr(pipeline, "bab_verify", spy)
        searched = root_decided = 0
        for seed, net, test, kwargs in list(_lockstep_cases())[:6]:
            calls.clear()
            records, _ = evaluate_network(net, test, **kwargs)
            searched += sum(r["work_units"] > net.output_dim - 1 for r in records)
            pos = 0
            for r in records:
                if not r["ra"]:
                    continue
                margins = build_specs(net.output_dim, r["label"])
                run = calls[pos : pos + len(margins)]
                stops = [c[2] != VerdictStatus.VERIFIED for c in run]
                run = run[: stops.index(True) + 1] if any(stops) else run
                assert [c[1] for c in run] == [s.target for s in margins[: len(run)]]
                assert len({c[0] for c in run}) == 1
                assert r["verdict"] == run[-1][2].value
                assert r["work_units"] == sum(c[3] for c in run)
                pos += len(run)
            assert pos == len(calls)
            root_decided += sum(c[3] == 1 for c in calls)
        assert searched > 0 and root_decided > 0
        assert crown == []

    def test_root_inter_is_the_one_box_bounds(self, monkeypatch):
        # BaB's children are bounded from the root's bounds, which the root
        # phase hands over as a row of its group's stacked bounds; each row
        # must be the box's own compute_bounds bit for bit
        real, seen, boxes = pipeline.bab_verify, [], set()

        def spy(net, spec, box, *args, **kwargs):
            seen.append((box, kwargs["root_inter"]))
            return real(net, spec, box, *args, **kwargs)

        monkeypatch.setattr(pipeline, "bab_verify", spy)
        for seed, net, test, kwargs in list(_lockstep_cases())[:6]:
            seen.clear()
            evaluate_network(net, test, **kwargs)
            for box, inter in seen:
                boxes.add(id(box))
                want = compute_bounds(net, box, None, "crown")
                assert inter.feasible == want.feasible
                assert all(
                    x.tobytes() == y.tobytes()
                    for x, y in zip(inter.lower + inter.upper, want.lower + want.upper)
                )
        assert len(boxes) > 10

    def test_root_groups_stay_under_the_cap(self, monkeypatch):
        net = random_net(8900, widths=[784, 128, 32, 10], weight_scale=0.05)
        rng = np.random.default_rng(8900)
        X = rng.uniform(0.0, 1.0, (7, 784))
        test = Dataset(X, np.argmax(forward_batch(net, X)[0], axis=1))
        # the root phase bounds each group in one compute_bounds call
        real, groups = pipeline.compute_bounds, []

        def counted(net, box, *args, **kwargs):
            groups.append(box.lower.shape[0])
            return real(net, box, *args, **kwargs)

        monkeypatch.setattr(pipeline, "compute_bounds", counted)
        kwargs = dict(eps_verify=0.001, clip=(0.0, 1.0), budget=VerifyBudget(None, 20), num_verify=7)
        got, _ = evaluate_network(net, test, **kwargs)
        # the largest coefficient array: the second affine layer's 32 rows
        # (the first layer's bounds are IBP's) back-substituted to the 784
        # inputs, per example
        per_example = 8 * 32 * 784
        assert groups and max(groups) * per_example <= pipeline._ROOT_GROUP_BYTES
        assert max(groups) == pipeline._ROOT_GROUP_BYTES // per_example > 1
        assert sum(groups) == sum(r["ra"] for r in got) == 7
        monkeypatch.setattr(pipeline, "compute_bounds", real)
        assert _without_time(got) == _without_time(_reference_records(net, test, **kwargs))


def _strip_grafts(net):
    """The same affine parameters with every activation back to ReLU."""
    from graftcert.network import Network

    return Network([l.copy() for l in net.layers])


class TestReport:
    def _records(self):
        return [
            {"index": 0, "sa": True, "ra": True, "verified": True, "verdict": "verified",
             "bound": 0.5, "time_seconds": 0.2, "work_units": 10, "branches": 10},
            {"index": 1, "sa": True, "ra": True, "verified": False, "verdict": "timeout",
             "bound": -0.1, "time_seconds": 1.5, "work_units": 400, "branches": 400},
            {"index": 2, "sa": False, "ra": False, "verified": False, "verdict": "misclassified",
             "bound": -1.0, "time_seconds": 0.0, "work_units": 0, "branches": 0},
        ]

    def test_files_and_aggregates(self, tmp_path):
        rep = report(self._records(), 12.5, tmp_path, time_unit="work_units", budget_top=400.0)
        assert rep.sa == pytest.approx(100 * 2 / 3)
        assert rep.ra == pytest.approx(100 * 2 / 3)
        assert rep.va == pytest.approx(100 * 1 / 3)
        # mean time covers the two verification attempts, not the
        # misclassified example
        assert rep.mean_verification_time == pytest.approx((10 + 400) / 2)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "index,sa,ra,verdict,bound,time,branches"
        assert len(lines) == 4
        curve = (tmp_path / "curve.csv").read_text().strip().splitlines()
        assert curve[0] == "threshold,verified_count"
        # threshold = budget captures every verified example
        last = curve[-1].split(",")
        assert float(last[0]) == 400.0 and int(last[1]) == 1

    def test_all_timeout_gives_zero_curve(self, tmp_path):
        records = [
            {"index": i, "sa": True, "ra": True, "verified": False, "verdict": "timeout",
             "bound": -1.0, "time_seconds": 9.9, "work_units": 400, "branches": 400}
            for i in range(4)
        ]
        rep = report(records, 50.0, tmp_path, time_unit="work_units", budget_top=400.0)
        assert rep.va == 0.0
        assert all(c == 0 for _, c in rep.curve)

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(Exception):
            report([], 0.0, tmp_path, time_unit="seconds", budget_top=30.0)


# config values that are not integers where a count (or a list of them)
# is needed: each config, the key its error names, and the value it shows
_NON_INTEGER = [
    ({"num_verify": 1.5}, "num_verify", "1.5"),
    ({"train_attack_steps": 2.5}, "train_attack_steps", "2.5"),
    ({"workers": True}, "workers", "True"),
    ({"architecture": [2, 16.5, 2]}, "architecture[1]", "16.5"),
    ({"finetune": {"epochs": 2, "batch_size": 64.5}}, "finetune: batch_size", "64.5"),
    ({"train": {"epochs": 2, "batch_size": 64, "milestones": 5}}, "train: milestones", "5"),
    ({"train": {"epochs": 2, "batch_size": 64, "milestones": [1, 1.5]}}, "train: milestones[1]", "1.5"),
    ({"budget": {"time_limit": 30.0, "max_domains": 2.5}}, "budget: max_domains", "2.5"),
]


class TestCli:
    def test_pipeline_command(self, tmp_path, capsys):
        rc = main([
            "pipeline", "--out", str(tmp_path), "--seed", "1", "--deterministic",
            "--config", _write_cfg(tmp_path, num_verify=6, epochs=6),
        ])
        assert rc == 0
        assert (tmp_path / "metrics.json").exists()
        assert "VA" in capsys.readouterr().out

    def test_stagewise_chain(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, num_verify=6, epochs=6)
        base = ["--out", str(tmp_path), "--config", cfg]
        assert main(["train"] + base) == 0
        assert main(["score"] + base) == 0
        assert main(["attack", "--checkpoint", str(tmp_path / "checkpoint.json")] + base) == 0
        assert main(["graft"] + base) == 0
        assert main(["finetune"] + base) == 0
        assert main(["verify", "--checkpoint", str(tmp_path / "grafted.json")] + base) == 0
        assert main(["report", "--verdicts", str(tmp_path / "verdicts.json")] + base) == 0
        for name in ["checkpoint.json", "scores.json", "attack.json", "plan.json",
                     "grafted.json", "verdicts.json", "metrics.json"]:
            assert (tmp_path / name).exists(), name

    @pytest.mark.parametrize("method", ["graft", "sap"])
    def test_stagewise_chain_matches_pipeline(self, tmp_path, method):
        cfg = _write_cfg(
            tmp_path, num_verify=6, epochs=4, method=method,
            warmup_epochs=2, warmup_lr=0.05, train_l1=1e-3, finetune_l1=1e-3,
        )
        staged, whole = tmp_path / "staged", tmp_path / "whole"
        for command in ["train", "graft", "finetune", "verify"]:
            assert main([command, "--out", str(staged), "--config", cfg]) == 0, command
        verdicts = str(staged / "verdicts.json")
        assert main(["report", "--verdicts", verdicts, "--out", str(staged), "--config", cfg]) == 0
        assert main(["pipeline", "--out", str(whole), "--config", cfg]) == 0
        for name in ["checkpoint.json", "train_log.csv", "plan.json", "grafted.json",
                     "finetune_log.csv", "metrics.json"]:
            assert (staged / name).read_bytes() == (whole / name).read_bytes(), name

    def test_wall_clock_without_time_limit(self, tmp_path):
        cfg = _write_cfg(tmp_path, num_verify=6, epochs=4,
                         budget={"time_limit": None, "max_domains": 300})
        assert main(["pipeline", "--no-deterministic", "--out", str(tmp_path),
                     "--config", cfg]) == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["time_unit"] == "seconds"
        slowest = max(r["time_seconds"] for r in doc["per_example"])
        assert doc["curve"][-1][0] == slowest

    @pytest.mark.parametrize("method", ["sap", "graft-zero"])
    def test_gradual_needs_graft_method(self, tmp_path, method):
        cfg = _write_cfg(tmp_path, method=method, gradual=True)
        assert main(["pipeline", "--out", str(tmp_path), "--config", cfg]) == 2
        with pytest.raises(UsageError, match="gradual"):
            tiny_config(tmp_path, method=method, gradual=True)

    def test_gradual_writes_no_plan_and_skips_scoring(self, tmp_path, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("gradual mode scores while it fine-tunes")

        monkeypatch.setattr(pipeline, "score_neurons", unused)
        rep = run_pipeline(tiny_config(tmp_path, gradual=True, num_verify=4))
        assert not (tmp_path / "plan.json").exists()
        net = load_checkpoint(tmp_path / "grafted.json")
        assert sum(int(g.sum()) for g in net.grafted) == 16
        assert (tmp_path / "finetune_log.csv").exists()
        assert rep.va <= rep.ra <= rep.sa

    def test_gradual_honours_finetune_l1(self, tmp_path):
        grafted = []
        for l1 in (0.0, 0.01):
            out = tmp_path / str(l1)
            run_pipeline(tiny_config(out, gradual=True, finetune_l1=l1, num_verify=2))
            grafted.append((out / "grafted.json").read_bytes())
        assert grafted[0] != grafted[1]

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_is_config_error(self, tmp_path, workers):
        assert main(["verify", "--out", str(tmp_path), "--workers", workers]) == 2
        with pytest.raises(UsageError, match="workers"):
            tiny_config(tmp_path, workers=int(workers))

    def test_removed_train_rs_is_config_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, train_rs=0.0)
        assert main(["train", "--out", str(tmp_path), "--config", cfg]) == 2

    @pytest.mark.parametrize("field, value", [("schedule", "step"), ("decay_factor", 0.1)])
    def test_removed_train_field_is_config_error(self, tmp_path, capsys, field, value):
        train = {"epochs": 2, "batch_size": 64, "lr": 0.05, "seed": 0, field: value}
        cfg = _write_cfg(tmp_path, train=train)
        assert main(["train", "--out", str(tmp_path / "out"), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "bad config: " in err and "unexpected keyword argument" in err, err
        assert field in err, err

    def test_removed_finetune_tune_weights_is_config_error(self, tmp_path, capsys):
        # weight_lr: 0 freezes the weights bit for bit
        finetune = {"epochs": 2, "batch_size": 64, "seed": 0, "tune_weights": False}
        cfg = _write_cfg(tmp_path, finetune=finetune)
        assert main(["finetune", "--out", str(tmp_path / "out"), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "bad config: " in err and "unexpected keyword argument" in err, err
        assert "tune_weights" in err, err

    @pytest.mark.parametrize("finetune", [
        pytest.param(None, id="no-config"),
        pytest.param({"epochs": 3, "batch_size": 64, "seed": 0}, id="finetune-seed-0"),
        pytest.param({"epochs": 2, "graft_lr": 0.02}, id="finetune-no-seed"),
        pytest.param({"epochs": 2, "graft_lr": 0.02, "seed": 7}, id="finetune-seed-7"),
    ])
    def test_seed_flag_sets_every_seed(self, tmp_path, finetune):
        argv = ["pipeline", "--seed", "3"]
        if finetune is not None:
            argv += ["--config", _write_cfg(tmp_path, finetune=finetune)]
        cfg = cli._load_config(cli._build_parser().parse_args(argv))
        assert (cfg.seed, cfg.train.seed, cfg.finetune.seed) == (3, 3, 3)
        if finetune is not None:
            # the section's other keys stay as the config sets them
            assert cfg.finetune.epochs == finetune["epochs"]
            assert cfg.finetune.graft_lr == finetune.get("graft_lr", 0.01)

    @pytest.mark.parametrize("over", [
        pytest.param({"budget": {"time_limit": 30.0, "max_domains": 0}}, id="max_domains=0"),
        pytest.param({"budget": {"time_limit": 30.0, "max_domains": -3}}, id="max_domains=-3"),
        pytest.param({"budget": {"time_limit": -1, "max_domains": 300}}, id="time_limit=-1"),
        pytest.param({"num_verify": -2}, id="num_verify=-2"),
        pytest.param({"attack_steps": -1}, id="attack_steps=-1"),
        pytest.param({"attack_restarts": 0}, id="attack_restarts=0"),
        pytest.param({"train_attack_steps": 0}, id="train_attack_steps=0"),
        pytest.param({"clip": [1, 0]}, id="clip=1,0"),
        pytest.param({"architecture": "abc"}, id="architecture=abc"),
        pytest.param({"architecture": [2, 0, 2]}, id="architecture=2,0,2"),
        pytest.param({"train": {"epochs": 2, "batch_size": 0}}, id="train.batch_size=0"),
        pytest.param({"finetune": {"epochs": 2, "batch_size": 0}}, id="finetune.batch_size=0"),
        pytest.param({"train": 3}, id="train=3"),
        pytest.param({"finetune": "x"}, id="finetune=x"),
        pytest.param({"budget": [30.0, 300]}, id="budget=list"),
        pytest.param({"score_subset": 0}, id="score_subset=0"),
        pytest.param({"score_subset": -5}, id="score_subset=-5"),
        pytest.param({"train_l1": -1e-3}, id="train_l1=-1e-3"),
        pytest.param({"finetune_l1": -1e-3}, id="finetune_l1=-1e-3"),
        pytest.param({"warmup_epochs": -1}, id="warmup_epochs=-1"),
        pytest.param({"score_eps": -0.1}, id="score_eps=-0.1"),
        pytest.param({"warmup_lr": 0.0}, id="warmup_lr=0"),
        pytest.param({"warmup_lr": -0.05}, id="warmup_lr=-0.05"),
        # a removed field
        pytest.param({"intermediate": "crown"}, id="intermediate=crown"),
        # non-finite floats, which json reads from NaN and Infinity
        pytest.param({"eps_train": float("nan")}, id="eps_train=nan"),
        pytest.param({"eps_verify": float("inf")}, id="eps_verify=inf"),
        pytest.param({"score_eps": float("nan")}, id="score_eps=nan"),
        pytest.param({"train_l1": float("inf")}, id="train_l1=inf"),
        pytest.param({"finetune_l1": float("nan")}, id="finetune_l1=nan"),
        pytest.param({"warmup_lr": float("inf")}, id="warmup_lr=inf"),
        pytest.param({"init_slope": float("nan")}, id="init_slope=nan"),
        pytest.param({"init_intercept": -float("inf")}, id="init_intercept=-inf"),
        pytest.param({"clip": [float("nan"), 1.0]}, id="clip=nan,1"),
        pytest.param({"train": {"epochs": 2, "lr": float("inf")}}, id="train.lr=inf"),
        pytest.param({"train": {"epochs": 2, "momentum": float("nan")}}, id="train.momentum=nan"),
        pytest.param({"finetune": {"epochs": 2, "graft_lr": float("nan")}}, id="finetune.graft_lr=nan"),
        pytest.param({"finetune": {"epochs": 2, "weight_lr": float("inf")}}, id="finetune.weight_lr=inf"),
        pytest.param({"finetune": {"epochs": 2, "momentum": float("nan")}}, id="finetune.momentum=nan"),
        pytest.param({"budget": {"time_limit": float("inf"), "max_domains": 50}, "deterministic": False},
                     id="budget.time_limit=inf"),
        *(pytest.param(over, id=named) for over, named, _ in _NON_INTEGER),
        # not a dict: the whole document
        pytest.param([1, 2], id="document=list"),
        pytest.param([["seed", 3]], id="document=pairs"),
        pytest.param(3, id="document=3"),
    ])
    def test_bad_value_fails_at_config_load(self, tmp_path, capsys, over):
        out = tmp_path / "out"
        if isinstance(over, dict):
            cfg = _write_cfg(tmp_path, **over)
        else:
            cfg = str(tmp_path / "cfg.json")
            pathlib.Path(cfg).write_text(json.dumps(over))
        assert main(["pipeline", "--out", str(out), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err, err
        assert not out.exists()  # no stage ran

    @pytest.mark.parametrize(
        "over, named, value", [pytest.param(*case, id=case[1]) for case in _NON_INTEGER]
    )
    def test_non_integer_error_names_key_and_value(self, tmp_path, capsys, over, named, value):
        cfg = _write_cfg(tmp_path, **over)
        assert main(["pipeline", "--out", str(tmp_path / "out"), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named} must be ") and value in err, err

    @pytest.mark.parametrize("over, message", [
        ({"score_eps": float("nan")}, "score_eps must be finite, got nan"),
        ({"finetune": {"epochs": 2, "weight_lr": float("inf")}},
         "finetune: weight_lr must be finite, got inf"),
    ])
    def test_non_finite_error_names_the_field(self, tmp_path, capsys, over, message):
        cfg = _write_cfg(tmp_path, **over)
        assert main(["pipeline", "--out", str(tmp_path / "out"), "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("value", ["crown", "ibp"])
    def test_removed_intermediate_is_config_error(self, tmp_path, capsys, value):
        # every root is CROWN-refined: a config that still picks the
        # intermediate bounds is stale
        cfg = _write_cfg(tmp_path, intermediate=value)
        assert main(["verify", "--out", str(tmp_path / "out"), "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "unexpected keyword argument" in err and "intermediate" in err, err
        assert not (tmp_path / "out").exists()

    def test_score_eps_null_is_eps_verify(self, tmp_path):
        # score_eps null scores neurons at eps_verify; another radius
        # scores them at that radius
        trained = tmp_path / "trained"
        trained.mkdir()
        assert main(["train", "--out", str(trained), "--config", _write_cfg(trained, epochs=4)]) == 0
        eps = default_config()["eps_verify"]
        scores = {}
        for score_eps in (None, eps, 0.3):
            out = tmp_path / str(score_eps)
            out.mkdir()
            cfg = _write_cfg(out, epochs=4, score_eps=score_eps)
            args = ["--checkpoint", str(trained / "checkpoint.json"), "--out", str(out)]
            assert main(["score", "--config", cfg] + args) == 0
            scores[score_eps] = (out / "scores.json").read_bytes()
        assert scores[None] == scores[eps]
        unstable = [json.loads(scores[k])["raw_unstable_count"] for k in (eps, 0.3)]
        assert unstable[0] != unstable[1]

    def test_readme_documents_every_config_field(self):
        # exactly the config's fields, so a field added without its docs,
        # or removed with its docs left behind, fails here
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```jsonc\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        assert block is not None, "README has no jsonc config block"
        doc = json.loads(re.sub(r"//.*", "", block.group(1)))
        assert sorted(doc) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
        # each section's fields inside that section's own object
        for key, section in (("train", TrainConfig), ("finetune", FinetuneConfig), ("budget", VerifyBudget)):
            assert sorted(doc[key]) == sorted(f.name for f in dataclasses.fields(section)), key

    def test_bad_labels_fail_in_data_stage(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0,0.1,0.2\n1,0.3,0.4\n5,0.5,0.6\n")
        cfg = _write_cfg(tmp_path, dataset={"train": {"kind": "csv", "path": str(data)},
                                            "test": {"kind": "csv", "path": str(data)}})
        for command in ["train", "pipeline"]:
            assert main([command, "--out", str(tmp_path / command), "--config", cfg]) == 1
            err = capsys.readouterr().err
            assert "stage 'data' failed" in err and "labels" in err, err

    def test_incomplete_dataset_spec_fails_in_data_stage(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, dataset={"train": {"kind": "csv"}, "test": {"kind": "csv"}})
        assert main(["pipeline", "--out", str(tmp_path / "out"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "stage 'data' failed: csv dataset spec has no 'path' entry" in err, err

    def test_bad_dataset_value_fails_in_data_stage(self, tmp_path, capsys):
        spec = {"kind": "synthetic", "n": 20, "seed": -1}
        cfg = _write_cfg(tmp_path, dataset={"train": spec, "test": spec})
        assert main(["pipeline", "--out", str(tmp_path / "out"), "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "stage 'data' failed: dataset 'seed' must be >= 0, got -1" in err, err

    @pytest.mark.parametrize("case, command, message", [
        ("no train", "train", "config 'dataset' has no 'train' split spec"),
        ("no test", "attack", "config 'dataset' has no 'test' split spec"),
        ("not a dict", "train", "config 'dataset' has no 'train' split spec"),
        ("empty train", "train", "train dataset has no examples"),
        ("empty test", "attack", "test dataset has no examples"),
    ])
    def test_bad_split_fails_in_data_stage(self, tmp_path, capsys, case, command, message):
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 0, 1, 2))  # zero 1 x 2 images
        labels.write_bytes(struct.pack(">II", 0x801, 0))
        empty = {"kind": "idx", "images": str(images), "labels": str(labels)}
        moons = default_config()["dataset"]
        dataset = {
            "no train": {"test": moons["test"]},
            "no test": {"train": moons["train"]},
            "not a dict": "abc",
            "empty train": dict(moons, train=empty),
            "empty test": dict(moons, test=empty),
        }[case]
        cfg = _write_cfg(tmp_path, dataset=dataset)
        # the first stage that reads the split, then the whole chain
        for cmd in [command, "pipeline"]:
            assert main([cmd, "--out", str(tmp_path / cmd), "--config", cfg]) == 1
            err = capsys.readouterr().err
            assert f"stage 'data' failed: {message}" in err, err

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"method\": \"banana\"}")
        rc = main(["pipeline", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_config_file_exit_code(self, tmp_path):
        rc = main(["pipeline", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_stage_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": {"train": {"kind": "csv", "path": str(tmp_path / "x.csv")},
                        "test": {"kind": "csv", "path": str(tmp_path / "x.csv")}},
            "architecture": [2, 4, 2],
        }))
        rc = main(["pipeline", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1

    def test_console_entry_point(self, tmp_path):
        # the child finds the package where this process imported it from,
        # installed or not
        src = str(pathlib.Path(pipeline.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "graftcert.cli", "pipeline", "--out", str(tmp_path),
             "--config", _write_cfg(tmp_path, num_verify=4, epochs=4)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "UNR" in proc.stdout


def _write_cfg(tmp_path, num_verify=6, epochs=6, **over):
    doc = default_config()
    doc["num_verify"] = num_verify
    doc["train"] = {"epochs": epochs, "batch_size": 64, "lr": 0.05, "seed": 0}
    doc["finetune"] = {"epochs": 3, "batch_size": 64, "seed": 0}
    doc["budget"] = {"time_limit": 30.0, "max_domains": 300}
    doc.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)

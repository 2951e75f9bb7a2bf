"""End-to-end experiment orchestration and metric reporting.

The paper's method is one chain of stages: data, train, select, finetune,
verify, report (plus the side stages score and attack).  Each stage is a
function of the config and the output directory: it reads its inputs from
that directory, writes its artifacts there, and reports any failure as a
``PipelineError`` naming the stage.  ``run_pipeline`` runs the chain; each
CLI subcommand runs one stage.

Reports carry UNR / VA / SA / RA percentages, per-example verdicts, the
mean verification time (excluding misclassified or attacked examples) and
a verified-count-vs-time curve.  In deterministic mode the clock is a
work-unit count (explored domains) instead of wall seconds so re-runs are
byte-identical; the report records which unit applies.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    Box,
    LayerBounds,
    SplitAssignment,
    _domain_lines,
    _spec_lower,
    compute_bounds,
    input_region,
    tally_stability,
)
from .data import Dataset, load_dataset
from .errors import PipelineError, UsageError, require_finite, require_integers
from .grafting import (
    baseline_select,
    default_gamma_schedule,
    load_plan,
    save_plan,
    score_neurons,
    select_neurons,
)
from .network import (
    Network,
    apply_graft,
    forward_batch,
    load_checkpoint,
    make_mlp,
    save_checkpoint,
)
from .training import (
    AttackConfig,
    FinetuneConfig,
    TrainConfig,
    finetune_grafted,
    gradual_graft,
    train,
)
from .verifier import (
    VerdictStatus,
    VerifyBudget,
    attack_examples,
    bab_verify,
    build_specs,
)

__all__ = [
    "ExperimentConfig",
    "MetricsReport",
    "run_pipeline",
    "evaluate_network",
    "report",
    "data_stage",
    "train_stage",
    "score_stage",
    "select_stage",
    "finetune_stage",
    "attack_stage",
    "verify_stage",
    "report_stage",
]

_METHODS = ("graft", "graft-zero", "sap", "gap", "random", "none")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: data, architecture, method, and all sub-configs."""

    dataset: dict
    architecture: tuple[int, ...]
    eps_train: float = 0.1
    eps_verify: float = 0.1
    clip: tuple[float, float] | None = (0.0, 1.0)
    graft_fraction: float = 0.5
    method: str = "graft"
    init_slope: float = 0.25
    init_intercept: float = 0.0
    train: TrainConfig = field(default_factory=TrainConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    attack_steps: int = 20
    attack_restarts: int = 2
    train_attack_steps: int = 7
    train_l1: float = 0.0
    finetune_l1: float = 0.0
    warmup_epochs: int = 0
    warmup_lr: float | None = None
    budget: VerifyBudget = field(default_factory=lambda: VerifyBudget(30.0, 4000))
    num_verify: int = 100
    score_subset: int = 512
    score_eps: float | None = None
    seed: int = 0
    deterministic: bool = True
    workers: int = 1
    out_dir: str | None = None
    checkpoint: str | None = None
    gradual: bool = False

    def __post_init__(self):
        if self.method not in _METHODS:
            raise UsageError(f"method must be one of {_METHODS}, got {self.method!r}")
        require_finite(self)
        if self.eps_train < 0 or self.eps_verify < 0:
            raise UsageError("eps values must be >= 0")
        if not 0.0 < self.graft_fraction <= 1.0 and self.method != "none":
            raise UsageError("graft_fraction must be in (0, 1]")
        require_integers(
            attack_steps=self.attack_steps,
            attack_restarts=self.attack_restarts,
            train_attack_steps=self.train_attack_steps,
            warmup_epochs=self.warmup_epochs,
            num_verify=self.num_verify,
            score_subset=self.score_subset,
            seed=self.seed,
            workers=self.workers,
        )
        if len(self.architecture) < 2:
            raise UsageError("architecture needs at least input and output widths")
        require_integers(**{f"architecture[{i}]": w for i, w in enumerate(self.architecture)})
        if min(self.architecture) < 1:
            raise UsageError(f"architecture widths must be >= 1, got {list(self.architecture)}")
        if self.clip is not None and (len(self.clip) != 2 or not self.clip[0] <= self.clip[1]):
            raise UsageError(f"clip must be [low, high] with low <= high, got {list(self.clip)}")
        if min(self.attack_steps, self.attack_restarts, self.train_attack_steps) < 1:
            raise UsageError("attack_steps, attack_restarts and train_attack_steps must be >= 1")
        if self.num_verify < 1:
            raise UsageError(f"num_verify must be >= 1, got {self.num_verify}")
        if self.score_subset < 1:
            raise UsageError(f"score_subset must be >= 1, got {self.score_subset}")
        if self.score_eps is not None and self.score_eps < 0:
            raise UsageError(f"score_eps must be null or >= 0, got {self.score_eps}")
        if self.train_l1 < 0 or self.finetune_l1 < 0:
            raise UsageError("train_l1 and finetune_l1 must be >= 0")
        if self.warmup_epochs < 0:
            raise UsageError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.warmup_lr is not None and self.warmup_lr <= 0:
            raise UsageError(f"warmup_lr must be null or > 0, got {self.warmup_lr}")
        if self.gradual and self.method != "graft":
            # gradual grafting picks its neurons by graft scoring as it goes
            raise UsageError(f"gradual grafting needs method 'graft', got {self.method!r}")
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        try:
            for key, section in (
                ("train", TrainConfig), ("finetune", FinetuneConfig), ("budget", VerifyBudget)
            ):
                # a section that is not an object fails here, as a TypeError
                if key in doc and not isinstance(doc[key], section):
                    try:
                        doc[key] = section(**doc[key])
                    except UsageError as exc:
                        raise UsageError(f"{key}: {exc}") from exc
            if "architecture" in doc:
                doc["architecture"] = tuple(doc["architecture"])
            if doc.get("clip") is not None:
                doc["clip"] = tuple(float(v) for v in doc["clip"])
            return cls(**doc)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad config: {exc}") from exc


@dataclass
class MetricsReport:
    """UNR / VA / SA / RA percentages plus per-example detail and the
    verified-count-vs-time curve (thresholds in ``time_unit``)."""

    unr: float
    va: float
    sa: float
    ra: float
    mean_verification_time: float
    time_unit: str
    num_examples: int
    per_example: list[dict]
    curve: list[tuple[float, int]]

    def __post_init__(self):
        if not (self.va <= self.ra + 1e-9 and self.ra <= self.sa + 1e-9):
            raise UsageError(
                f"metric ordering violated: VA={self.va} RA={self.ra} SA={self.sa}"
            )
        counts = [c for _, c in self.curve]
        if any(b > a for b, a in zip(counts, counts[1:])):
            raise UsageError("verified-vs-time curve must be nondecreasing")


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _dump_json(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(doc), fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# evaluation


# examples per root-phase group: a group's largest stacked coefficient
# array in compute_bounds stays within this many bytes.  One MiB keeps the
# 2-D protocol's examples in one group and a 784-wide net's one per group:
# stacking two of those was slower than one at a time (the arrays leave
# the cache)
_ROOT_GROUP_BYTES = 1 << 20


def _root_group_size(net: Network) -> int:
    """Examples per root-phase group.  Refining affine layer i
    back-substitutes an (E, d_i, d_i) identity to the input through
    (E, d_i, in_j) for every layer j <= i."""
    floats = max(
        (
            layer.out_dim * max([layer.out_dim] + [l.in_dim for l in net.layers[: i + 1]])
            for i, layer in enumerate(net.layers)
            if i > 0
        ),
        default=1,
    )
    return max(1, _ROOT_GROUP_BYTES // (8 * floats))


def _example_seed(seed: int, index: int) -> int:
    """The PGD seed of test example ``index`` in a run seeded ``seed``."""
    return seed * 1_000_003 + index


def _attack_phase(net: Network, X: np.ndarray, labels: np.ndarray, atk: AttackConfig, seeds):
    """Phases 1 and 2 over a stack of examples: the clean logits (E, K) of
    one stacked forward pass, which examples they classify correctly, and
    PGD on those in one stacked descent.  Entry e of the adversarial
    inputs is None when example e was not attacked or held."""
    logits = forward_batch(net, X[:, None, :])[0][:, 0]
    correct = np.argmax(logits, axis=-1) == labels
    ok = np.flatnonzero(correct)
    advs = [None] * len(X)
    if ok.size:
        found = attack_examples(net, X[ok], labels[ok], atk, [seeds[e] for e in ok])
        for e, adv in zip(ok, found):
            advs[e] = adv
    return logits, correct, advs


def _root_margins(net: Network, box: Box, inter: LayerBounds, margins: list) -> np.ndarray:
    """Phase 4: the root CROWN bound of every margin of every example of a
    group (``box`` stacks their boxes), in one ``_spec_lower`` call of
    ``(examples, margins, K)`` specs against each example's own bounds
    and lines.  Shape (examples, margins)."""
    return _spec_lower(
        net,
        box,
        _domain_lines(net, inter, SplitAssignment.free(net)),
        inter,
        np.array([[s.coeffs for s in ms] for ms in margins]),
        np.array([[s.const for s in ms] for ms in margins]),
    )


def _verify_example(payload: dict) -> dict:
    """Phase 5 for one example that held against PGD: ``bab_verify`` on
    its margins in order, each with its own seed, its root CROWN bound
    (``payload["root"]``) and the root bounds (``payload["root_inter"]``,
    its row of the group's stacked bounds).  Stops at the first falsified
    or timed-out margin.  The example's share of its group's root-phase
    seconds counts in its time and against its time limit.  Returns the
    record fields it sets.  Standalone, so that one example's spans can be
    told apart."""
    time_limit = payload["time_limit"]
    t0 = time.perf_counter() - payload["share"]
    work = 0
    worst = math.inf
    verdict = "verified"
    for k, (spec, root) in enumerate(zip(payload["margins"], payload["root"])):
        remaining = None
        if time_limit is not None:
            remaining = time_limit - (time.perf_counter() - t0)
            if remaining <= 0:
                verdict = "timeout"
                break
        v = bab_verify(
            payload["net"],
            spec,
            payload["box"],
            VerifyBudget(remaining, payload["max_domains"]),
            seed=payload["seed"] + 7919 * (k + 1),
            root_inter=payload["root_inter"],
            root_bound=float(root),
        )
        work += v.domains_explored
        worst = min(worst, v.bound)
        if v.status != VerdictStatus.VERIFIED:
            verdict = v.status.value
            break
    return {
        "time_seconds": time.perf_counter() - t0,
        "work_units": work,
        "bound": float(worst),
        "verdict": verdict,
        "verified": verdict == "verified",
    }


def _evaluate_chunk(payload: dict) -> list[dict]:
    """Records of a contiguous chunk of test examples, each phase run once
    over the whole chunk (see ``evaluate_network``).  Standalone for
    worker pools."""
    net, X, labels = payload["net"], payload["features"], payload["labels"]
    eps, clip = payload["eps"], payload["clip"]
    indices = range(payload["first"], payload["first"] + len(X))
    seeds = [_example_seed(payload["seed"], i) for i in indices]
    atk = AttackConfig(
        eps, steps=payload["attack_steps"], restarts=payload["attack_restarts"], clip=clip
    )
    logits, correct, advs = _attack_phase(net, X, labels, atk, seeds)
    margins = [build_specs(net.output_dim, int(y)) for y in labels]
    records = []
    for e, i in enumerate(indices):
        records.append({
            "index": i,
            "label": int(labels[e]),
            "sa": bool(correct[e]),
            "ra": False,
            "verified": False,
            "verdict": "attacked" if correct[e] else "misclassified",
            "bound": float(min(s.value(logits[e]) for s in margins[e])),
            "time_seconds": 0.0,
            "work_units": 0,
            "predicted": int(np.argmax(logits[e])),
        })
    attacked = [e for e, adv in enumerate(advs) if adv is not None]
    if attacked:
        adv_logits = forward_batch(net, np.stack([advs[e] for e in attacked])[:, None, :])[0]
        for e, row in zip(attacked, adv_logits[:, 0]):
            records[e]["bound"] = float(min(s.value(row) for s in margins[e]))
    robust = [e for e in range(len(X)) if correct[e] and advs[e] is None]
    size = _root_group_size(net)
    for g in range(0, len(robust), size):
        group = robust[g : g + size]
        boxes = [input_region(X[e], eps, clip) for e in group]
        # the root's bounds are verification work: each example is charged
        # an equal share of its group's seconds
        t0 = time.perf_counter()
        stacked = Box.stack(boxes)
        inter = compute_bounds(net, stacked, None, "crown")
        root = _root_margins(net, stacked, inter, [margins[e] for e in group])
        share = (time.perf_counter() - t0) / len(group)
        for j, e in enumerate(group):
            records[e]["ra"] = True
            records[e].update(_verify_example({
                "index": indices[e],
                "net": net,
                "box": boxes[j],
                "root_inter": LayerBounds(
                    tuple(x[j, 0] for x in inter.lower), tuple(x[j, 0] for x in inter.upper),
                    net.grafted,
                ),
                "margins": margins[e],
                "root": root[j],
                "share": share,
                "seed": seeds[e],
                "time_limit": payload["time_limit"],
                "max_domains": payload["max_domains"],
            }))
    return records


def evaluate_network(
    net: Network,
    test: Dataset,
    *,
    eps_verify: float,
    clip: tuple[float, float] | None,
    budget: VerifyBudget,
    num_verify: int,
    attack_steps: int = 20,
    attack_restarts: int = 2,
    seed: int = 0,
    deterministic: bool = True,
    workers: int = 1,
) -> tuple[list[dict], float]:
    """Per-example verification records over the first ``num_verify`` test
    examples, plus the unstable-neuron ratio (percent) on that slice.

    The examples go through phases, each run once over a stack of them:
    the clean forward pass; PGD on the correctly classified ones; root
    bounds (``compute_bounds(..., "crown")``, as ``bab_verify`` bounds a
    root it is not given) of those that held, in groups of
    ``_root_group_size``; the root CROWN bound of each of their margins;
    then, per example, ``bab_verify`` on each margin from that bound,
    which decides it at once where positive.  Every example gets the
    floats of its own one-example run, so the records do not depend on
    the stacking.

    Deterministic mode turns the wall clock off (only ``max_domains``
    bounds the work); otherwise a ``time_limit`` of None does the same.
    With ``workers`` > 1 each process of a pool evaluates one contiguous
    chunk of the examples; in deterministic mode the records do not
    depend on ``workers``."""
    k = min(num_verify, len(test))
    if k == 0:
        raise UsageError("no test examples to evaluate")
    features = np.asarray(test.features[:k], dtype=np.float64)
    labels = np.asarray(test.labels[:k])
    chunks = np.array_split(np.arange(k), min(workers, k))
    payloads = [
        {
            "net": net,
            "features": features[c[0] : c[-1] + 1],
            "labels": labels[c[0] : c[-1] + 1],
            "first": int(c[0]),
            "eps": eps_verify,
            "clip": clip,
            "time_limit": None if deterministic else budget.time_limit,
            "max_domains": budget.max_domains,
            "attack_steps": attack_steps,
            "attack_restarts": attack_restarts,
            "seed": seed,
        }
        for c in chunks
    ]
    if len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            records = [r for chunk in pool.map(_evaluate_chunk, payloads) for r in chunk]
    else:
        records = _evaluate_chunk(payloads[0])
    tally = tally_stability(net, test.features[:k], eps_verify, clip)
    unr = 100.0 * float(tally.times_unstable.sum()) / (k * max(net.num_hidden, 1))
    return records, unr


def _curve_thresholds(top: float) -> list[float]:
    base = [1.0, 2.0, 5.0, 10.0, 30.0, 60.0]
    t = 120.0
    while t < top:
        base.append(t)
        t *= 2.0
    out = [b for b in base if b < top]
    out.append(float(top))
    return out


def _build_report(records: list[dict], unr: float, time_unit: str, budget_top: float) -> MetricsReport:
    n = len(records)
    sa = 100.0 * sum(r["sa"] for r in records) / n
    ra = 100.0 * sum(r["ra"] for r in records) / n
    va = 100.0 * sum(r["verified"] for r in records) / n
    timed = [r for r in records if r["verdict"] in ("verified", "falsified", "timeout")]
    key = "work_units" if time_unit == "work_units" else "time_seconds"
    mean_time = float(np.mean([r[key] for r in timed])) if timed else 0.0
    thresholds = _curve_thresholds(budget_top)
    curve = [
        (t, sum(1 for r in records if r["verified"] and r[key] <= t))
        for t in thresholds
    ]
    if time_unit == "work_units":
        # wall-clock readings vary between runs; the deterministic report
        # must be byte-reproducible, so it carries work units only
        records = [{k: v for k, v in r.items() if k != "time_seconds"} for r in records]
    return MetricsReport(unr, va, sa, ra, mean_time, time_unit, n, records, curve)


def report(
    records: list[dict],
    unr: float,
    out_dir,
    *,
    time_unit: str,
    budget_top: float,
) -> MetricsReport:
    """Aggregate one run's verdict records and write metrics.json,
    metrics.csv (one row per example) and curve.csv."""
    if not records:
        raise UsageError("report needs at least one verdict record")
    os.makedirs(out_dir, exist_ok=True)
    rep = _build_report(records, unr, time_unit, budget_top)
    _dump_json(dataclasses.asdict(rep), os.path.join(out_dir, "metrics.json"))
    key = "work_units" if time_unit == "work_units" else "time_seconds"
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write("index,sa,ra,verdict,bound,time,branches\n")
        for r in rep.per_example:
            fh.write(
                f"{r['index']},{int(r['sa'])},{int(r['ra'])},{r['verdict']},"
                f"{r['bound']!r},{r[key]!r},{r['work_units']}\n"
            )
    with open(os.path.join(out_dir, "curve.csv"), "w", encoding="utf-8") as fh:
        fh.write("threshold,verified_count\n")
        for t, c in rep.curve:
            fh.write(f"{t!r},{c}\n")
    return rep


# ---------------------------------------------------------------------------
# the stages


@contextlib.contextmanager
def _stage(name: str):
    """Report any failure inside the block as stage ``name``'s, unless an
    inner stage has already named itself."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def _out_dir(cfg: ExperimentConfig) -> str:
    out = cfg.out_dir or "run_out"
    os.makedirs(out, exist_ok=True)
    return out


def _load_split(cfg: ExperimentConfig, split: str) -> Dataset:
    """One dataset split, checked against the architecture.  Every stage
    that reads data loads it here, so a bad file fails as stage 'data'."""
    with _stage("data"):
        if not isinstance(cfg.dataset, dict) or split not in cfg.dataset:
            raise UsageError(f"config 'dataset' has no {split!r} split spec")
        ds = load_dataset(cfg.dataset[split])
        if len(ds) == 0:
            raise UsageError(f"{split} dataset has no examples")
        if ds.dim != cfg.architecture[0]:
            raise UsageError(
                f"{split} dataset dim {ds.dim} != input width {cfg.architecture[0]}"
            )
        classes = cfg.architecture[-1]
        if not (ds.labels.min() >= 0 and ds.labels.max() < classes):
            raise UsageError(
                f"{split} labels span [{ds.labels.min()}, {ds.labels.max()}], "
                f"outside [0, {classes}) for {classes} output classes"
            )
    return ds


def _input_net(cfg: ExperimentConfig, out: str, name: str) -> Network:
    """The stage's input network: ``cfg.checkpoint`` when set, else the
    artifact ``name`` an earlier stage wrote."""
    return load_checkpoint(cfg.checkpoint or os.path.join(out, name))


def _evaluated_net(cfg: ExperimentConfig, out: str) -> Network:
    """The network that attack and verify examine: the fine-tuned grafted
    network, or the trained one when nothing is grafted."""
    return _input_net(cfg, out, "checkpoint.json" if cfg.method == "none" else "grafted.json")


def _train_attack(cfg: ExperimentConfig) -> AttackConfig | None:
    """The inner PGD attack of adversarial training and fine-tuning."""
    if cfg.eps_train <= 0:
        return None
    return AttackConfig(cfg.eps_train, steps=cfg.train_attack_steps, clip=cfg.clip)


def _scoring(cfg: ExperimentConfig, train_ds: Dataset) -> tuple[Dataset, float]:
    """The training examples and the radius that neuron scoring uses."""
    eps = cfg.score_eps if cfg.score_eps is not None else cfg.eps_verify
    return train_ds.head(cfg.score_subset), eps


def _require_grafting(cfg: ExperimentConfig) -> None:
    if cfg.method == "none":
        raise UsageError("method 'none' grafts nothing")


def data_stage(cfg: ExperimentConfig, out: str) -> None:
    """Load and check both splits; writes nothing."""
    _load_split(cfg, "train")
    _load_split(cfg, "test")


def train_stage(cfg: ExperimentConfig, out: str) -> None:
    """Train the classifier (a clean warmup, then adversarial epochs), or
    take ``cfg.checkpoint`` as the trained network.  Writes
    checkpoint.json, and train_log.csv when it trains."""
    if cfg.checkpoint:
        with _stage("train"):
            save_checkpoint(load_checkpoint(cfg.checkpoint), os.path.join(out, "checkpoint.json"))
        return
    train_ds = _load_split(cfg, "train")
    holdout = _load_split(cfg, "test").head(256)
    with _stage("train"):
        net = make_mlp(cfg.architecture, seed=cfg.seed)
        if cfg.warmup_epochs > 0:
            warm = dataclasses.replace(
                cfg.train,
                epochs=cfg.warmup_epochs,
                lr=cfg.warmup_lr if cfg.warmup_lr is not None else cfg.train.lr,
                milestones=(),
            )
            net = train(net, train_ds, warm, adversarial=None, l1=cfg.train_l1)
        net = train(
            net,
            train_ds,
            cfg.train,
            adversarial=_train_attack(cfg),
            l1=cfg.train_l1,
            log_path=os.path.join(out, "train_log.csv"),
            holdout=holdout,
        )
        save_checkpoint(net, os.path.join(out, "checkpoint.json"))


def score_stage(cfg: ExperimentConfig, out: str) -> None:
    """Instability and significance scores of the trained network's hidden
    neurons; writes scores.json."""
    score_ds, eps = _scoring(cfg, _load_split(cfg, "train"))
    with _stage("score"):
        net = _input_net(cfg, out, "checkpoint.json")
        scores = score_neurons(net, score_ds.features, score_ds.labels, eps, clip=cfg.clip)
        _dump_json(
            {
                "raw_unstable_count": scores.raw_unstable_count.tolist(),
                "raw_significance": scores.raw_significance.tolist(),
                "r_u": scores.r_u.tolist(),
                "r_s": scores.r_s.tolist(),
            },
            os.path.join(out, "scores.json"),
        )


def select_stage(cfg: ExperimentConfig, out: str) -> None:
    """Choose the neurons to graft on the trained network; writes
    plan.json.  Gradual mode chooses them while fine-tuning instead, so it
    writes no plan."""
    if cfg.gradual:
        return
    score_ds, eps = _scoring(cfg, _load_split(cfg, "train"))
    with _stage("select"):
        _require_grafting(cfg)
        net = _input_net(cfg, out, "checkpoint.json")
        if cfg.method in ("graft", "graft-zero"):
            scores = score_neurons(
                net, score_ds.features, score_ds.labels, eps, clip=cfg.clip
            )
            init = (0.0, 0.0) if cfg.method == "graft-zero" else (
                cfg.init_slope,
                cfg.init_intercept,
            )
            plan = select_neurons(
                scores,
                cfg.graft_fraction,
                default_gamma_schedule(cfg.graft_fraction),
                init_slope=init[0],
                init_intercept=init[1],
            )
        else:
            plan = baseline_select(
                cfg.method,
                net,
                score_ds.features,
                score_ds.labels,
                cfg.graft_fraction,
                seed=cfg.seed,
                init_slope=cfg.init_slope,
                init_intercept=cfg.init_intercept,
            )
        save_plan(plan, os.path.join(out, "plan.json"))


def finetune_stage(cfg: ExperimentConfig, out: str) -> None:
    """Graft plan.json onto the trained network and fine-tune it (gradual
    mode grafts while it fine-tunes).  Writes grafted.json and
    finetune_log.csv."""
    train_ds = _load_split(cfg, "train")
    with _stage("finetune"):
        _require_grafting(cfg)
        net = _input_net(cfg, out, "checkpoint.json")
        log = os.path.join(out, "finetune_log.csv")
        if cfg.gradual:
            score_ds, eps = _scoring(cfg, train_ds)
            net = gradual_graft(
                net,
                train_ds,
                eps,
                cfg.graft_fraction,
                cfg.finetune,
                adversarial=_train_attack(cfg),
                clip=cfg.clip,
                score_size=len(score_ds),
                init_slope=cfg.init_slope,
                init_intercept=cfg.init_intercept,
                l1=cfg.finetune_l1,
                log_path=log,
            )
        else:
            net = apply_graft(net, load_plan(os.path.join(out, "plan.json")))
            ft = cfg.finetune
            if cfg.method == "graft-zero":
                ft = dataclasses.replace(ft, graft_lr=0.0)
            net = finetune_grafted(
                net, train_ds, ft, adversarial=_train_attack(cfg),
                l1=cfg.finetune_l1, log_path=log,
            )
        save_checkpoint(net, os.path.join(out, "grafted.json"))


def attack_stage(cfg: ExperimentConfig, out: str) -> None:
    """PGD-attack the first ``num_verify`` test examples; writes the
    SA / RA summary to attack.json."""
    test_ds = _load_split(cfg, "test")
    with _stage("attack"):
        net = _evaluated_net(cfg, out)
        k = min(cfg.num_verify, len(test_ds))
        atk = AttackConfig(
            cfg.eps_verify, steps=cfg.attack_steps, restarts=cfg.attack_restarts, clip=cfg.clip
        )
        _, correct, advs = _attack_phase(
            net,
            np.asarray(test_ds.features[:k], dtype=np.float64),
            np.asarray(test_ds.labels[:k]),
            atk,
            [_example_seed(cfg.seed, i) for i in range(k)],
        )
        results = [
            {"index": i, "sa": bool(correct[i]), "ra": bool(correct[i]) and advs[i] is None}
            for i in range(k)
        ]
        doc = {
            "sa": 100.0 * sum(r["sa"] for r in results) / k,
            "ra": 100.0 * sum(r["ra"] for r in results) / k,
            "eps": cfg.eps_verify,
            "num_examples": k,
            "per_example": results,
        }
        _dump_json(doc, os.path.join(out, "attack.json"))


def verify_stage(cfg: ExperimentConfig, out: str) -> None:
    """Attack and completely verify the first ``num_verify`` test examples;
    writes their records and the UNR to verdicts.json."""
    test_ds = _load_split(cfg, "test")
    with _stage("verify"):
        records, unr = evaluate_network(
            _evaluated_net(cfg, out),
            test_ds,
            eps_verify=cfg.eps_verify,
            clip=cfg.clip,
            budget=cfg.budget,
            num_verify=cfg.num_verify,
            attack_steps=cfg.attack_steps,
            attack_restarts=cfg.attack_restarts,
            seed=cfg.seed,
            deterministic=cfg.deterministic,
            workers=cfg.workers,
        )
        _dump_json({"records": records, "unr": unr}, os.path.join(out, "verdicts.json"))


def report_stage(cfg: ExperimentConfig, out: str, verdicts: str | None = None) -> MetricsReport:
    """Build the metrics files from ``verdicts`` (default: the
    verdicts.json in ``out``).  Deterministic runs count time in work
    units up to the domain budget of all margins; wall-clock runs in
    seconds up to the time limit, or up to the slowest example when
    there is none."""
    with _stage("report"):
        with open(verdicts or os.path.join(out, "verdicts.json"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        records = doc["records"]
        for r in records:
            r["bound"] = float(r["bound"])  # undo _json_safe's "inf" strings
        if cfg.deterministic:
            unit = "work_units"
            top = cfg.budget.max_domains * max(cfg.architecture[-1] - 1, 1)
        elif cfg.budget.time_limit is None:
            unit, top = "seconds", max(r["time_seconds"] for r in records)
        else:
            unit, top = "seconds", cfg.budget.time_limit
        return report(records, doc["unr"], out, time_unit=unit, budget_top=float(top))


def run_pipeline(cfg: ExperimentConfig) -> MetricsReport:
    """Run data -> train -> select -> finetune -> verify -> report (select
    and finetune only when a method grafts) and return the metrics report.
    Artifacts land in ``cfg.out_dir``."""
    out = _out_dir(cfg)
    _dump_json(dataclasses.asdict(cfg), os.path.join(out, "config.json"))
    data_stage(cfg, out)
    train_stage(cfg, out)
    # the checkpoint stood in for the trained network; every later stage
    # reads the artifacts of this run
    cfg = dataclasses.replace(cfg, checkpoint=None)
    if cfg.method != "none":
        select_stage(cfg, out)
        finetune_stage(cfg, out)
    verify_stage(cfg, out)
    return report_stage(cfg, out)

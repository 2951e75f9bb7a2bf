"""Neuron scoring and graft-candidate selection.

Neurons are scored on two axes: how often their pre-activation interval
straddles zero over a dataset (instability), and the mean magnitude of the
training-loss gradient at their post-activation (significance).  Both raw
scores are rank-normalized to [0, 1].  Candidates are picked greedily by
``gamma * r_u - r_s`` with gamma decaying across selection batches, so
early batches chase instability and late batches spare significant
neurons.  Activation-magnitude, gradient-magnitude, and random baselines
share the same plan format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import tally_stability
from .errors import UsageError
from .network import Network, _ce_loss_grad, _reverse, forward_batch

__all__ = [
    "NeuronScore",
    "GraftPlan",
    "rank_normalize",
    "instability_scores",
    "significance_scores",
    "score_neurons",
    "select_neurons",
    "baseline_select",
    "default_gamma_schedule",
    "plan_to_dict",
    "plan_from_dict",
    "save_plan",
    "load_plan",
]

# examples per forward/reverse pass in significance_scores
_SCORE_BATCH = 256


@dataclass(frozen=True)
class NeuronScore:
    """Per-hidden-neuron scores (flat ids).  ``relu_mask`` marks the
    neurons that are still ReLU and therefore eligible for grafting."""

    raw_unstable_count: np.ndarray
    raw_significance: np.ndarray
    r_u: np.ndarray
    r_s: np.ndarray
    relu_mask: np.ndarray

    @property
    def num_neurons(self) -> int:
        return self.r_u.shape[0]


@dataclass(frozen=True)
class GraftPlan:
    """An ordered set of neurons to graft, with the selection schedule and
    the linear activation's initial slope/intercept."""

    neuron_ids: tuple[int, ...]
    gamma_schedule: tuple[tuple[float, float], ...]
    init_slope: float = 0.25
    init_intercept: float = 0.0

    def __post_init__(self):
        ids = tuple(int(i) for i in self.neuron_ids)
        if len(set(ids)) != len(ids):
            raise UsageError("graft plan has duplicate neuron ids")
        object.__setattr__(self, "neuron_ids", ids)


def _ceil(v: float) -> int:
    # tolerant ceiling: absorbs float dust like 0.05 * 100 = 5.000000000000001
    return int(math.ceil(v - 1e-9))


def rank_normalize(raw: np.ndarray) -> np.ndarray:
    """Ascending 0-based ranks scaled by 1/(N-1); ties share the mean of
    their tied ranks, so the largest raw value maps to 1 when distinct."""
    raw = np.asarray(raw, dtype=np.float64)
    n = raw.size
    if n < 2:
        raise UsageError("rank normalization needs at least 2 values")
    order = np.argsort(raw, kind="stable")
    sorted_vals = raw[order]
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j)
        i = j + 1
    return ranks / (n - 1)


# ---------------------------------------------------------------------------
# scoring


def instability_scores(
    net: Network,
    features: np.ndarray,
    eps: float,
    clip: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-neuron count of examples on which the neuron is unstable, plus
    its rank-normalized score (most unstable -> 1)."""
    if net.num_hidden < 2:
        raise UsageError("need at least 2 hidden neurons")
    tally = tally_stability(net, features, eps, clip)
    counts = tally.times_unstable
    return counts, rank_normalize(counts)


def significance_scores(
    net: Network,
    features: np.ndarray,
    labels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean magnitude of the clean cross-entropy gradient at each hidden
    post-activation, plus its rank-normalized score."""
    if net.num_hidden < 2:
        raise UsageError("need at least 2 hidden neurons")
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.shape[0] == 0:
        raise UsageError("significance scoring needs a non-empty dataset")
    acc = np.zeros(net.num_hidden)
    offs = net.layer_offsets()
    n = X.shape[0]
    for s in range(0, n, _SCORE_BATCH):
        xb, yb = X[s : s + _SCORE_BATCH], y[s : s + _SCORE_BATCH]
        logits, pre, _ = forward_batch(net, xb)
        # ga at layer i is hidden layer i - 1's post-activation gradient
        for i, _, ga in _reverse(net, pre, _ce_loss_grad(logits, yb)[1]):
            acc[offs[i - 1] : offs[i - 1] + ga.shape[1]] += np.abs(ga).sum(axis=0)
            if i == 1:
                break  # before the chain builds the input gradient
    raw = acc / n
    return raw, rank_normalize(raw)


def score_neurons(
    net: Network,
    features: np.ndarray,
    labels: np.ndarray,
    eps: float,
    clip: tuple[float, float] | None = None,
) -> NeuronScore:
    """Instability and significance scores on one dataset."""
    counts, r_u = instability_scores(net, features, eps, clip)
    raw_s, r_s = significance_scores(net, features, labels)
    return NeuronScore(counts, raw_s, r_u, r_s, ~net.grafted_flat())


# ---------------------------------------------------------------------------
# selection


def default_gamma_schedule(fraction: float) -> tuple[tuple[float, float], ...]:
    """Split ``fraction`` into 5%-sized batches with the selection weight
    interpolated linearly from 2 down to 0 inclusive."""
    if not 0.0 < fraction <= 1.0:
        raise UsageError("fraction must be in (0, 1]")
    k = max(1, _ceil(fraction / 0.05))
    inc = fraction / k
    if k == 1:
        return ((fraction, 2.0),)
    return tuple((inc, 2.0 * (k - 1 - i) / (k - 1)) for i in range(k))


def _ranked_candidates(scores: NeuronScore, chosen: np.ndarray, gamma: float) -> np.ndarray:
    cand = np.flatnonzero(scores.relu_mask & ~chosen)
    key = gamma * scores.r_u[cand] - scores.r_s[cand]
    # primary: key desc; tie: higher r_u, then lower id (lexsort is stable)
    order = np.lexsort((-scores.r_u[cand], -key))
    return cand[order]


def select_neurons(
    scores: NeuronScore,
    fraction: float,
    schedule: tuple[tuple[float, float], ...] | None = None,
    init_slope: float = 0.25,
    init_intercept: float = 0.0,
) -> GraftPlan:
    """Greedy batched selection by ``gamma * r_u - r_s``.

    Batch sizes follow cumulative ceiling targets so the final plan holds
    exactly ceil(fraction * N) neurons.  Ties break toward higher r_u,
    then lower id.
    """
    if not 0.0 < fraction <= 1.0:
        raise UsageError("fraction must be in (0, 1]")
    if schedule is None:
        schedule = default_gamma_schedule(fraction)
    total_inc = sum(inc for inc, _ in schedule)
    if abs(total_inc - fraction) > 1e-9:
        raise UsageError(
            f"schedule increments sum to {total_inc}, expected {fraction}"
        )
    n = scores.num_neurons
    total_target = _ceil(fraction * n)
    if total_target > int(scores.relu_mask.sum()):
        raise UsageError("fraction exceeds the remaining ReLU fraction")
    chosen = np.zeros(n, dtype=bool)
    picked: list[int] = []
    cum = 0.0
    for inc, gamma in schedule:
        cum += inc
        target = min(_ceil(cum * n), total_target)
        need = target - len(picked)
        if need <= 0:
            continue
        ranked = _ranked_candidates(scores, chosen, gamma)
        take = ranked[:need]
        chosen[take] = True
        picked.extend(int(i) for i in take)
    return GraftPlan(tuple(picked), tuple(schedule), init_slope, init_intercept)


def baseline_select(
    method: str,
    net: Network,
    features: np.ndarray,
    labels: np.ndarray,
    fraction: float,
    seed: int = 0,
    init_slope: float = 0.25,
    init_intercept: float = 0.0,
) -> GraftPlan:
    """Pruning-style selection baselines.

    "sap" ranks by mean |post-activation| ascending, "gap" by raw
    significance ascending, "random" samples uniformly with the seed.
    """
    if not 0.0 < fraction <= 1.0:
        raise UsageError("fraction must be in (0, 1]")
    eligible = np.flatnonzero(~net.grafted_flat())
    count = _ceil(fraction * net.num_hidden)
    if count > eligible.size:
        raise UsageError("fraction exceeds the remaining ReLU fraction")
    X = np.asarray(features, dtype=np.float64)
    if method == "sap":
        acc = np.zeros(net.num_hidden)
        offs = net.layer_offsets()
        for s in range(0, X.shape[0], 512):
            _, _, post = forward_batch(net, X[s : s + 512])
            for h, off in enumerate(offs):
                acc[off : off + post[h].shape[1]] += np.abs(post[h]).sum(axis=0)
        key = acc[eligible] / X.shape[0]
        take = eligible[np.argsort(key, kind="stable")[:count]]
    elif method == "gap":
        raw, _ = significance_scores(net, X, labels)
        take = eligible[np.argsort(raw[eligible], kind="stable")[:count]]
    elif method == "random":
        rng = np.random.default_rng(seed)
        take = rng.choice(eligible, size=count, replace=False)
    else:
        raise UsageError(f"unknown baseline method {method!r}")
    return GraftPlan(
        tuple(int(i) for i in take), ((fraction, 0.0),), init_slope, init_intercept
    )


# ---------------------------------------------------------------------------
# plan serialization


def plan_to_dict(plan: GraftPlan) -> dict:
    return {
        "neuron_ids": list(plan.neuron_ids),
        "gamma_schedule": [[float(i), float(g)] for i, g in plan.gamma_schedule],
        "init_slope": float(plan.init_slope),
        "init_intercept": float(plan.init_intercept),
    }


def plan_from_dict(doc: dict) -> GraftPlan:
    return GraftPlan(
        tuple(int(i) for i in doc["neuron_ids"]),
        tuple((float(i), float(g)) for i, g in doc["gamma_schedule"]),
        float(doc["init_slope"]),
        float(doc["init_intercept"]),
    )


def save_plan(plan: GraftPlan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan_to_dict(plan), fh, indent=2)


def load_plan(path) -> GraftPlan:
    with open(path, "r", encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh))

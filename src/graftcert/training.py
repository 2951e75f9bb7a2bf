"""Training: one SGD loop behind standard and PGD-adversarial training,
grafted-network fine-tuning with two parameter groups, and gradual
grafting, each with an optional l1 weight penalty.

Reproducibility: identical configs and seeds give identical final
parameters (single worker); all randomness flows through one generator in
a fixed order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError, UsageError, require_integers
from .network import Network, apply_graft, backward_batch, forward_batch, input_grad_batch

__all__ = [
    "TrainConfig",
    "AttackConfig",
    "FinetuneConfig",
    "train",
    "finetune_grafted",
    "gradual_graft",
]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    milestones: tuple[int, ...] = ()  # each one passed multiplies lr by 0.1
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.milestones, (list, tuple)):
            raise UsageError(f"milestones must be a list of integers, got {self.milestones!r}")
        require_integers(epochs=self.epochs, batch_size=self.batch_size, seed=self.seed)
        require_integers(**{f"milestones[{i}]": m for i, m in enumerate(self.milestones)})
        if self.epochs < 1:
            raise UsageError("epochs must be >= 1")
        if self.lr <= 0:
            raise UsageError("learning rate must be > 0")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")


@dataclass(frozen=True)
class AttackConfig:
    """PGD attack parameters; the attacks step eps / 4 per iteration."""

    eps: float
    steps: int = 20
    restarts: int = 1
    clip: tuple[float, float] | None = None

    def __post_init__(self):
        if self.eps < 0:
            raise DomainError("attack eps must be >= 0")
        if self.steps < 1 or self.restarts < 1:
            raise UsageError("attack needs steps >= 1 and restarts >= 1")


@dataclass(frozen=True)
class FinetuneConfig:
    graft_lr: float = 0.01
    weight_lr: float = 0.001
    epochs: int = 20
    tune_weights: bool = True
    batch_size: int = 128
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_integers(epochs=self.epochs, batch_size=self.batch_size, seed=self.seed)
        if self.graft_lr < 0 or self.weight_lr < 0:
            raise UsageError("learning rates must be >= 0")
        if self.epochs < 1:
            raise UsageError("epochs must be >= 1")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")


# ---------------------------------------------------------------------------
# loss primitives


def _ce_loss_grad(logits: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-example cross-entropy and its gradient on the logits (softmax
    minus one-hot)."""
    rows = np.arange(logits.shape[0])
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    loss = -np.log(p[rows, y] + 1e-12)
    p[rows, y] -= 1.0
    return loss, p


def _pgd_batch(
    net: Network,
    X: np.ndarray,
    y: np.ndarray,
    atk: AttackConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Batched PGD maximizing the cross-entropy loss (one random start)."""
    if atk.eps == 0.0:
        return X
    lo = X - atk.eps
    hi = X + atk.eps
    if atk.clip is not None:
        lo = np.maximum(lo, atk.clip[0])
        hi = np.minimum(hi, atk.clip[1])
    step = atk.eps / 4.0
    x = np.clip(X + rng.uniform(-atk.eps, atk.eps, X.shape), lo, hi)
    for _ in range(atk.steps):
        logits, pre, _ = forward_batch(net, x)
        g = input_grad_batch(net, pre, _ce_loss_grad(logits, y)[1])
        # step and clip in place; np.clip is max then min, so these are its bits
        np.sign(g, out=g)
        g *= step
        x += g
        np.maximum(x, lo, out=x)
        np.minimum(x, hi, out=x)
    return x


def _accuracy(net: Network, X: np.ndarray, y: np.ndarray) -> float:
    logits, _, _ = forward_batch(net, X)
    return float((logits.argmax(axis=1) == y).mean())


# ---------------------------------------------------------------------------
# SGD core


class _Momentum:
    """Velocity buffers matching the network's parameter arrays."""

    def __init__(self, net: Network):
        self.w = [np.zeros_like(l.weight) for l in net.layers]
        self.b = [np.zeros_like(l.bias) for l in net.layers]
        self.s = [np.zeros_like(s) for s in net.slopes]
        self.c = [np.zeros_like(c) for c in net.intercepts]


def _sgd_run(
    net: Network,
    dataset,
    cfg: TrainConfig | FinetuneConfig,
    rates: Callable[[int], tuple[float, float]],
    adversarial: AttackConfig | None,
    *,
    l1: float,
    log_path,
    holdout=None,
    epoch_callback: Callable[[Network, int], Network] | None = None,
) -> Network:
    """The one SGD loop: momentum and weight decay on the cross-entropy
    loss.  ``rates(epoch)`` gives the (weight, graft) learning rates; a
    group at rate 0 keeps its values bit for bit.  Mutates and returns a
    private copy of ``net``."""
    X, y = _dataset_arrays(dataset)
    hold = None if holdout is None else _dataset_arrays(holdout)
    net = net.copy()
    rng = np.random.default_rng(cfg.seed)
    vel = _Momentum(net)
    n = X.shape[0]
    log_rows: list[list] = []
    for epoch in range(cfg.epochs):
        if epoch_callback is not None:
            net = epoch_callback(net, epoch)
        lr_w, lr_g = rates(epoch)
        perm = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for s in range(0, n, cfg.batch_size):
            idx = perm[s : s + cfg.batch_size]
            xb, yb = X[idx], y[idx]
            if adversarial is not None:
                xb = _pgd_batch(net, xb, yb, adversarial, rng)
            logits, pre, post = forward_batch(net, xb)
            example_loss, dlogits = _ce_loss_grad(logits, yb)
            loss = float(example_loss.mean())
            if l1 > 0.0:
                loss += l1 * float(sum(np.abs(l.weight).sum() for l in net.layers))
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss {loss} at epoch {epoch}, batch {batches}"
                )
            grads = backward_batch(net, xb, pre, post, dlogits / xb.shape[0])
            if lr_w > 0.0:
                for i, layer in enumerate(net.layers):
                    # the batch's gradients are its own arrays: updated in place
                    gw = grads.weight_grads[i]
                    gw += cfg.weight_decay * layer.weight
                    if l1 > 0.0:
                        gw += l1 * np.sign(layer.weight)
                    gb = grads.bias_grads[i]
                    gb += cfg.weight_decay * layer.bias
                    vel.w[i] *= cfg.momentum
                    vel.w[i] += gw
                    vel.b[i] *= cfg.momentum
                    vel.b[i] += gb
                    layer.weight -= lr_w * vel.w[i]
                    layer.bias -= lr_w * vel.b[i]
            if lr_g > 0.0:
                for h in range(len(net.slopes)):
                    mask = net.grafted[h]
                    if not mask.any():
                        continue
                    vel.s[h] *= cfg.momentum
                    vel.s[h] += grads.slope_grads[h]
                    vel.c[h] *= cfg.momentum
                    vel.c[h] += grads.intercept_grads[h]
                    net.slopes[h][mask] -= lr_g * vel.s[h][mask]
                    net.intercepts[h][mask] -= lr_g * vel.c[h][mask]
            epoch_loss += loss
            batches += 1
        epoch_loss /= max(batches, 1)
        if log_path is not None:
            sa = ra = ""
            if hold is not None:
                hx, hy = hold
                sa = ra = f"{100.0 * _accuracy(net, hx, hy):.2f}"
                if adversarial is not None:
                    adv = _pgd_batch(net, hx, hy, adversarial, rng)
                    ra = f"{100.0 * _accuracy(net, adv, hy):.2f}"
            log_rows.append([epoch, f"{epoch_loss:.6f}", sa, ra])
    if log_path is not None:
        with open(log_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "sa", "ra"])
            writer.writerows(log_rows)
    return net


def _cosine_rates(cfg: FinetuneConfig) -> Callable[[int], tuple[float, float]]:
    """Fine-tuning's (weight, graft) rates, cosine-annealed to exactly
    zero on the final epoch; ``tune_weights=False`` gives weights rate 0."""
    lrs = (cfg.weight_lr if cfg.tune_weights else 0.0, cfg.graft_lr)

    def rates(epoch: int) -> tuple[float, float]:
        if cfg.epochs <= 1:
            return lrs
        c = 1.0 + math.cos(math.pi * epoch / (cfg.epochs - 1))
        return 0.5 * lrs[0] * c, 0.5 * lrs[1] * c

    return rates


def _dataset_arrays(dataset) -> tuple[np.ndarray, np.ndarray]:
    if hasattr(dataset, "features"):
        X, y = dataset.features, dataset.labels
    else:
        X, y = dataset
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise UsageError("dataset must provide (n, d) features and (n,) labels")
    return X, y


# ---------------------------------------------------------------------------
# public entry points


def train(
    net: Network,
    dataset,
    cfg: TrainConfig,
    adversarial: AttackConfig | None = None,
    *,
    l1: float = 0.0,
    log_path=None,
    holdout=None,
) -> Network:
    """SGD with momentum and weight decay on the cross-entropy loss.

    With ``adversarial`` set, every batch is replaced by an inner PGD
    attack before the loss step.  ``l1`` switches on an l1 weight penalty.
    Raises DivergenceError when the loss goes non-finite.
    """

    def rates(epoch: int) -> tuple[float, float]:
        lr = cfg.lr * 0.1 ** sum(epoch >= m for m in cfg.milestones)
        return lr, lr

    return _sgd_run(
        net, dataset, cfg, rates, adversarial, l1=l1, log_path=log_path, holdout=holdout
    )


def finetune_grafted(
    net: Network,
    dataset,
    cfg: FinetuneConfig,
    adversarial: AttackConfig | None = None,
    *,
    l1: float = 0.0,
    log_path=None,
) -> Network:
    """Fine-tune a grafted network under a cosine-annealed schedule.

    Two parameter groups: grafted slopes/intercepts at ``cfg.graft_lr``,
    affine weights/biases at ``cfg.weight_lr`` (frozen bit-identical when
    ``tune_weights`` is False).  Activation kinds never change.  ``l1`` is
    the same weight penalty as in :func:`train`.  The log's ``sa`` and
    ``ra`` columns stay empty: a holdout attack would draw from the
    training generator.
    """
    if not any(g.any() for g in net.grafted):
        raise UsageError("finetune_grafted needs at least one grafted neuron")
    return _sgd_run(net, dataset, cfg, _cosine_rates(cfg), adversarial, l1=l1, log_path=log_path)


def gradual_graft(
    net: Network,
    dataset,
    eps: float,
    fraction: float,
    cfg: FinetuneConfig,
    *,
    adversarial: AttackConfig | None = None,
    clip: tuple[float, float] | None = None,
    score_size: int = 512,
    init_slope: float = 0.25,
    init_intercept: float = 0.0,
    l1: float = 0.0,
    log_path=None,
) -> Network:
    """Interleave scoring, small graft increments, and fine-tuning.

    Cumulative graft counts follow the cubic front-loaded sparsity ramp
    over the first half of the epochs up to the one-shot count
    ``select_neurons`` would graft; each increment is one selection batch
    whose weight decays from 2 to 0 as the grafted share grows.  The second
    half only fine-tunes.  ``l1`` is the weight penalty of :func:`train`.
    """
    from .grafting import _ceil, score_neurons, select_neurons

    if not 0.0 < fraction <= 1.0:
        raise UsageError("fraction must be in (0, 1]")
    X, y = _dataset_arrays(dataset)
    Xs, ys = X[:score_size], y[:score_size]
    n = net.num_hidden
    total = _ceil(fraction * n)
    graft_epochs = max(1, cfg.epochs // 2)
    state = {"count": 0}

    def callback(working: Network, epoch: int) -> Network:
        if epoch >= graft_epochs or state["count"] >= total:
            return working
        t = epoch + 1
        target = math.ceil(total * (1.0 - (1.0 - t / graft_epochs) ** 3))
        need = min(target, total) - state["count"]
        if need <= 0:
            return working
        gamma = 2.0 * (1.0 - state["count"] / total)
        scores = score_neurons(working, Xs, ys, eps, clip=clip)
        plan = select_neurons(scores, need / n, ((need / n, gamma),), init_slope, init_intercept)
        state["count"] += len(plan.neuron_ids)
        return apply_graft(working, plan)

    return _sgd_run(
        net, (X, y), cfg, _cosine_rates(cfg), adversarial,
        l1=l1, log_path=log_path, epoch_callback=callback,
    )

"""Training loops: standard and PGD-adversarial SGD, grafted-network
fine-tuning with two parameter groups, gradual grafting, and an optional
l1 weight penalty.

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

from .errors import DivergenceError, DomainError, UsageError
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
    schedule: str = "step"  # "step" or "cosine"
    milestones: tuple[int, ...] = ()
    decay_factor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise UsageError("epochs must be >= 1")
        if self.lr <= 0:
            raise UsageError("learning rate must be > 0")
        if self.schedule not in ("step", "cosine"):
            raise UsageError(f"unknown schedule {self.schedule!r}")
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
        if self.graft_lr < 0 or self.weight_lr < 0:
            raise UsageError("learning rates must be >= 0")
        if self.epochs < 1:
            raise UsageError("epochs must be >= 1")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")


# ---------------------------------------------------------------------------
# loss primitives


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _ce_loss_grad(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient on the logits."""
    n = logits.shape[0]
    p = _softmax(logits)
    eps = 1e-12
    loss = float(-np.log(p[np.arange(n), y] + eps).mean())
    g = p
    g[np.arange(n), y] -= 1.0
    return loss, g / n


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
        p = _softmax(logits)
        p[np.arange(x.shape[0]), y] -= 1.0
        g = input_grad_batch(net, pre, p)
        x = np.clip(x + step * np.sign(g), lo, hi)
    return x


def _accuracy(net: Network, X: np.ndarray, y: np.ndarray) -> float:
    logits, _, _ = forward_batch(net, X)
    return float((logits.argmax(axis=1) == y).mean())


# ---------------------------------------------------------------------------
# SGD core


def _step_lr(cfg: TrainConfig, epoch: int) -> float:
    if cfg.schedule == "cosine":
        return _cosine_lr(cfg.lr, epoch, cfg.epochs)
    k = sum(1 for m in cfg.milestones if epoch >= m)
    return cfg.lr * (cfg.decay_factor**k)


def _cosine_lr(lr0: float, epoch: int, epochs: int) -> float:
    # anneals to exactly zero on the final epoch
    if epochs <= 1:
        return lr0
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * epoch / (epochs - 1)))


class _Momentum:
    """Velocity buffers matching the network's parameter arrays."""

    def __init__(self, net: Network):
        self.w = [np.zeros_like(l.weight) for l in net.layers]
        self.b = [np.zeros_like(l.bias) for l in net.layers]
        self.s = [np.zeros_like(s) for s in net.slopes]
        self.c = [np.zeros_like(c) for c in net.intercepts]


def _sgd_run(
    net: Network,
    X: np.ndarray,
    y: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    momentum: float,
    weight_decay: float,
    weight_lr: Callable[[int], float],
    graft_lr: Callable[[int], float],
    tune_weights: bool,
    adversarial: AttackConfig | None,
    seed: int,
    l1: float = 0.0,
    epoch_callback: Callable[[Network, int], Network] | None = None,
    log_path=None,
    holdout: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Network, list[float]]:
    """Shared SGD loop.  Mutates and returns a private copy of ``net``."""
    net = net.copy()
    rng = np.random.default_rng(seed)
    vel = _Momentum(net)
    n = X.shape[0]
    losses: list[float] = []
    log_rows: list[list] = []
    for epoch in range(epochs):
        if epoch_callback is not None:
            net = epoch_callback(net, epoch)
        lr_w = weight_lr(epoch)
        lr_g = graft_lr(epoch)
        perm = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for s in range(0, n, batch_size):
            idx = perm[s : s + batch_size]
            xb, yb = X[idx], y[idx]
            if adversarial is not None:
                xb = _pgd_batch(net, xb, yb, adversarial, rng)
            logits, pre, post = forward_batch(net, xb)
            loss, dlogits = _ce_loss_grad(logits, yb)
            if l1 > 0.0:
                loss += l1 * float(sum(np.abs(l.weight).sum() for l in net.layers))
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss {loss} at epoch {epoch}, batch {batches}"
                )
            grads = backward_batch(net, xb, pre, post, dlogits)
            if tune_weights and lr_w > 0.0:
                for i, layer in enumerate(net.layers):
                    gw = grads.weight_grads[i] + weight_decay * layer.weight
                    if l1 > 0.0:
                        gw = gw + l1 * np.sign(layer.weight)
                    gb = grads.bias_grads[i] + weight_decay * layer.bias
                    vel.w[i] = momentum * vel.w[i] + gw
                    vel.b[i] = momentum * vel.b[i] + gb
                    layer.weight -= lr_w * vel.w[i]
                    layer.bias -= lr_w * vel.b[i]
            if lr_g > 0.0:
                for h in range(len(net.slopes)):
                    mask = net.grafted[h]
                    if not mask.any():
                        continue
                    vel.s[h] = momentum * vel.s[h] + grads.slope_grads[h]
                    vel.c[h] = momentum * vel.c[h] + grads.intercept_grads[h]
                    net.slopes[h][mask] -= lr_g * vel.s[h][mask]
                    net.intercepts[h][mask] -= lr_g * vel.c[h][mask]
            epoch_loss += loss
            batches += 1
        epoch_loss /= max(batches, 1)
        losses.append(epoch_loss)
        if log_path is not None:
            sa = ra = ""
            if holdout is not None:
                hx, hy = holdout
                sa = f"{100.0 * _accuracy(net, hx, hy):.2f}"
                if adversarial is not None:
                    adv = _pgd_batch(net, hx, hy, adversarial, rng)
                    logits, _, _ = forward_batch(net, adv)
                    ra = f"{100.0 * float((logits.argmax(axis=1) == hy).mean()):.2f}"
                else:
                    ra = sa
            log_rows.append([epoch, f"{epoch_loss:.6f}", sa, ra])
    if log_path is not None:
        with open(log_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "sa", "ra"])
            writer.writerows(log_rows)
    return net, losses


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
    X, y = _dataset_arrays(dataset)
    hold = None
    if holdout is not None:
        hold = _dataset_arrays(holdout)
    trained, _ = _sgd_run(
        net,
        X,
        y,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        weight_lr=lambda e: _step_lr(cfg, e),
        graft_lr=lambda e: _step_lr(cfg, e),
        tune_weights=True,
        adversarial=adversarial,
        seed=cfg.seed,
        l1=l1,
        log_path=log_path,
        holdout=hold,
    )
    return trained


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
    X, y = _dataset_arrays(dataset)
    tuned, _ = _sgd_run(
        net,
        X,
        y,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        weight_lr=lambda e: _cosine_lr(cfg.weight_lr, e, cfg.epochs),
        graft_lr=lambda e: _cosine_lr(cfg.graft_lr, e, cfg.epochs),
        tune_weights=cfg.tune_weights,
        adversarial=adversarial,
        seed=cfg.seed,
        l1=l1,
        log_path=log_path,
    )
    return tuned


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
    over the first half of the epochs; the selection weight decays from 2
    to 0 as the grafted share grows.  The second half only fine-tunes.
    ``l1`` is the weight penalty of :func:`train`.
    """
    from .grafting import score_neurons, select_top_neurons

    if not 0.0 < fraction <= 1.0:
        raise UsageError("fraction must be in (0, 1]")
    X, y = _dataset_arrays(dataset)
    Xs, ys = X[:score_size], y[:score_size]
    total = math.ceil(fraction * net.num_hidden)
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
        plan = select_top_neurons(
            scores, need, gamma, init_slope=init_slope, init_intercept=init_intercept
        )
        state["count"] += len(plan.neuron_ids)
        return apply_graft(working, plan)

    tuned, _ = _sgd_run(
        net,
        X,
        y,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        weight_lr=lambda e: _cosine_lr(cfg.weight_lr, e, cfg.epochs),
        graft_lr=lambda e: _cosine_lr(cfg.graft_lr, e, cfg.epochs),
        tune_weights=cfg.tune_weights,
        adversarial=adversarial,
        seed=cfg.seed,
        l1=l1,
        epoch_callback=callback,
        log_path=log_path,
    )
    return tuned

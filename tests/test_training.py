import csv
import math

import numpy as np
import pytest

from graftcert import (
    AttackConfig,
    DivergenceError,
    DomainError,
    FinetuneConfig,
    GraftPlan,
    TrainConfig,
    UsageError,
    apply_graft,
    finetune_grafted,
    forward_batch,
    gradual_graft,
    make_mlp,
    train,
)
from graftcert.data import gaussian_blobs
from graftcert.grafting import _ranked_candidates, score_neurons, select_neurons
from graftcert.network import backward_batch, input_grad_batch
from graftcert.training import _dataset_arrays, _pgd_batch
from graftcert.verifier import pgd_attack

from conftest import random_net


def accuracy(net, ds):
    logits, _, _ = forward_batch(net, ds.features)
    return 100.0 * float((logits.argmax(axis=1) == ds.labels).mean())


def nets_equal(a, b):
    return all(
        np.array_equal(x.weight, y.weight) and np.array_equal(x.bias, y.bias)
        for x, y in zip(a.layers, b.layers)
    ) and all(
        np.array_equal(ga, gb) and np.array_equal(sa, sb) and np.array_equal(ca, cb)
        for ga, gb, sa, sb, ca, cb in zip(
            a.grafted, b.grafted, a.slopes, b.slopes, a.intercepts, b.intercepts
        )
    )


class TestConfigs:
    def test_train_config_validation(self):
        with pytest.raises(UsageError):
            TrainConfig(epochs=0)
        with pytest.raises(UsageError):
            TrainConfig(lr=0.0)

    def test_attack_config_validation(self):
        with pytest.raises(DomainError):
            AttackConfig(eps=-0.1)
        with pytest.raises(UsageError):
            AttackConfig(eps=0.1, steps=0)
        with pytest.raises(UsageError):
            AttackConfig(eps=0.1, restarts=0)
        # a fractional or boolean count, and a non-finite radius, fail here
        # as the other configs' do, not later inside the attack
        for bad in ({"steps": 2.5}, {"restarts": True}, {"restarts": 1.0}):
            with pytest.raises(UsageError, match="must be an integer"):
                AttackConfig(0.1, **bad)
        for eps in (float("nan"), float("inf")):
            with pytest.raises(UsageError, match="eps must be finite"):
                AttackConfig(eps)

    def test_finetune_config_validation(self):
        with pytest.raises(UsageError):
            FinetuneConfig(graft_lr=-1.0)
        # zero rates are allowed: they freeze the group
        FinetuneConfig(graft_lr=0.0, weight_lr=0.0)


class TestTrain:
    def test_linearly_separable_reaches_full_accuracy(self):
        # two uniform boxes with a clear margin between them
        rng = np.random.default_rng(1)
        from graftcert.data import Dataset

        lo = rng.uniform(0.0, 0.4, (100, 2))
        hi = rng.uniform(0.6, 1.0, (100, 2))
        ds = Dataset(np.vstack([lo, hi]), np.repeat([0, 1], 100))
        net = make_mlp([2, 8, 2], seed=0)
        cfg = TrainConfig(epochs=50, batch_size=32, lr=0.05, weight_decay=1e-4, seed=0)
        out = train(net, ds, cfg)
        assert accuracy(out, ds) == 100.0

    def test_clean_equals_zero_radius_attack_up_to_extra_grad_evals(self):
        ds = gaussian_blobs(200, dim=2, classes=2, std=0.06, seed=2,
                            center_low=0.25, center_high=0.75)
        cfg = TrainConfig(epochs=25, batch_size=32, lr=0.05, seed=1)
        a = train(make_mlp([2, 8, 2], seed=1), ds, cfg)
        b = train(make_mlp([2, 8, 2], seed=1), ds, cfg, adversarial=AttackConfig(0.0, steps=3))
        assert abs(accuracy(a, ds) - accuracy(b, ds)) <= 2.0

    def test_reproducible_parameters(self):
        ds = gaussian_blobs(120, dim=2, classes=2, std=0.08, seed=3)
        cfg = TrainConfig(epochs=8, batch_size=32, lr=0.05, seed=7)
        atk = AttackConfig(0.05, steps=3, clip=(0, 1))
        a = train(make_mlp([2, 6, 2], seed=7), ds, cfg, adversarial=atk)
        b = train(make_mlp([2, 6, 2], seed=7), ds, cfg, adversarial=atk)
        assert nets_equal(a, b)

    def test_input_net_untouched(self):
        ds = gaussian_blobs(100, dim=2, classes=2, seed=4)
        net = make_mlp([2, 6, 2], seed=2)
        snapshot = net.copy()
        train(net, ds, TrainConfig(epochs=3, batch_size=32, lr=0.05, seed=0))
        assert nets_equal(net, snapshot)

    def test_divergence_detected(self):
        ds = gaussian_blobs(100, dim=2, classes=2, seed=5)
        net = make_mlp([2, 6, 2], seed=3)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            train(net, ds, TrainConfig(epochs=50, batch_size=16, lr=1e6, weight_decay=1.0, seed=0))

    def test_epoch_log_written(self, tmp_path):
        ds = gaussian_blobs(100, dim=2, classes=2, seed=6)
        hold = gaussian_blobs(50, dim=2, classes=2, seed=7)
        path = tmp_path / "log.csv"
        train(
            make_mlp([2, 6, 2], seed=1),
            ds,
            TrainConfig(epochs=4, batch_size=32, lr=0.05, seed=0),
            adversarial=AttackConfig(0.05, steps=2, clip=(0, 1)),
            log_path=path,
            holdout=hold,
        )
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,sa,ra"
        assert len(lines) == 5

    def test_adversarial_training_improves_robustness(self):
        # directional toy benchmark, seed-averaged
        gaps = []
        for seed in (0, 1):
            ds = dict(dim=2, classes=2, std=0.06, center_low=0.3, center_high=0.7)
            tr = gaussian_blobs(400, seed=50 + seed, center_seed=9 + seed, **ds)
            te = gaussian_blobs(200, seed=60 + seed, center_seed=9 + seed, **ds)
            cfg = TrainConfig(epochs=40, batch_size=64, lr=0.05, milestones=(30,), seed=seed)
            clean = train(make_mlp([2, 8, 8, 2], seed=seed), tr, cfg)
            robust = train(
                make_mlp([2, 8, 8, 2], seed=seed), tr, cfg,
                adversarial=AttackConfig(0.15, steps=7, clip=(0, 1)),
            )

            def ra(net):
                n = 0
                for i in range(len(te)):
                    x0, y = te.features[i], int(te.labels[i])
                    logits, _, _ = forward_batch(net, x0[None, :])
                    if int(np.argmax(logits[0])) != y:
                        continue
                    if pgd_attack(net, x0, y, AttackConfig(0.15, steps=20, restarts=2, clip=(0, 1)), seed=i) is None:
                        n += 1
                return 100.0 * n / len(te)

            gaps.append(ra(robust) - ra(clean))
        assert float(np.mean(gaps)) >= 10.0


class TestFinetune:
    def setup_method(self):
        self.ds = gaussian_blobs(200, dim=2, classes=2, std=0.07, seed=8,
                                 center_low=0.25, center_high=0.75)
        base = make_mlp([2, 8, 8, 2], seed=4)
        base = train(base, self.ds, TrainConfig(epochs=10, batch_size=32, lr=0.05, seed=4))
        self.net = apply_graft(base, GraftPlan((0, 3, 9), ((3 / 16, 0.0),), 0.25, 0.0))

    def test_requires_grafted_neurons(self):
        plain = make_mlp([2, 4, 2], seed=0)
        with pytest.raises(UsageError):
            finetune_grafted(plain, self.ds, FinetuneConfig(epochs=1))

    def test_frozen_weights_bit_identical(self):
        cfg = FinetuneConfig(graft_lr=0.05, weight_lr=0.0, epochs=5, batch_size=32, seed=0)
        out = finetune_grafted(self.net, self.ds, cfg)
        for a, b in zip(self.net.layers, out.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
        # the grafted parameters did move
        assert not np.array_equal(self.net.slopes[0], out.slopes[0])

    def test_zero_rates_identity(self):
        cfg = FinetuneConfig(graft_lr=0.0, weight_lr=0.0, epochs=1, batch_size=32, seed=0)
        out = finetune_grafted(self.net, self.ds, cfg)
        assert nets_equal(self.net, out)

    def test_activation_kinds_preserved(self):
        cfg = FinetuneConfig(graft_lr=0.05, weight_lr=0.01, epochs=3, batch_size=32, seed=0)
        out = finetune_grafted(self.net, self.ds, cfg)
        for ga, gb in zip(self.net.grafted, out.grafted):
            assert np.array_equal(ga, gb)

    def test_weight_tuning_beats_frozen_on_accuracy(self):
        # directional echo of the tuned-vs-frozen ablation
        tuned = finetune_grafted(
            self.net, self.ds,
            FinetuneConfig(graft_lr=0.02, weight_lr=0.01, epochs=15, batch_size=32, seed=1),
        )
        frozen = finetune_grafted(
            self.net, self.ds,
            FinetuneConfig(graft_lr=0.02, weight_lr=0.0, epochs=15, batch_size=32, seed=1),
        )
        assert accuracy(tuned, self.ds) >= accuracy(frozen, self.ds)


class TestGradualGraft:
    def test_total_count_exact(self):
        ds = gaussian_blobs(150, dim=2, classes=2, std=0.07, seed=9)
        base = train(make_mlp([2, 10, 10, 2], seed=5), ds,
                     TrainConfig(epochs=6, batch_size=32, lr=0.05, seed=5))
        for fraction in (0.3, 0.55, 1.0):
            out = gradual_graft(base, ds, 0.1, fraction, FinetuneConfig(epochs=6, batch_size=32, seed=5))
            grafted = sum(int(g.sum()) for g in out.grafted)
            assert grafted == int(np.ceil(fraction * base.num_hidden))

    def test_single_increment_equals_one_shot(self):
        # a fraction small enough for one increment reduces to one-shot
        # grafting followed by plain fine-tuning, bit-for-bit
        ds = gaussian_blobs(150, dim=2, classes=2, std=0.07, seed=10)
        base = train(make_mlp([2, 10, 10, 2], seed=6), ds,
                     TrainConfig(epochs=6, batch_size=32, lr=0.05, seed=6))
        cfg = FinetuneConfig(epochs=2, batch_size=32, seed=6)
        fraction = 1 / base.num_hidden
        gradual = gradual_graft(base, ds, 0.1, fraction, cfg, score_size=150)
        scores = score_neurons(base, ds.features, ds.labels, 0.1)
        plan = select_neurons(scores, fraction, ((fraction, 2.0),))
        oneshot = finetune_grafted(apply_graft(base, plan), ds, cfg)
        assert nets_equal(gradual, oneshot)

    @pytest.mark.parametrize("widths, fraction", [
        ([2, 50, 50, 2], 0.07), ([2, 50, 50, 2], 0.55), ([2, 100, 100, 2], 0.55),
    ])
    def test_total_count_matches_one_shot_selection(self, widths, fraction):
        # fraction * N carries float dust here (0.07 * 100 = 7.000000000000001):
        # gradual grafting grafts what one-shot selection grafts
        ds = gaussian_blobs(40, dim=2, classes=2, std=0.07, seed=14)
        base = make_mlp(widths, seed=8)
        out = gradual_graft(base, ds, 0.1, fraction, FinetuneConfig(epochs=2, batch_size=40, seed=8))
        scores = score_neurons(base, ds.features, ds.labels, 0.1)
        assert sum(int(g.sum()) for g in out.grafted) == len(select_neurons(scores, fraction).neuron_ids)

    def test_fraction_validated(self):
        ds = gaussian_blobs(60, dim=2, classes=2, seed=11)
        net = make_mlp([2, 6, 2], seed=0)
        with pytest.raises(UsageError):
            gradual_graft(net, ds, 0.1, 0.0, FinetuneConfig(epochs=2))


class TestRegularizers:
    def test_l1_actually_shrinks_weights(self):
        ds = gaussian_blobs(150, dim=2, classes=2, std=0.08, seed=13)
        cfg = TrainConfig(epochs=10, batch_size=32, lr=0.05, weight_decay=0.0, seed=2)
        plain = train(make_mlp([2, 8, 2], seed=2), ds, cfg)
        reg = train(make_mlp([2, 8, 2], seed=2), ds, cfg, l1=5e-3)
        total = lambda n: sum(float(np.abs(l.weight).sum()) for l in n.layers)
        assert total(reg) < total(plain)


class TestPgdBatchHelper:
    def test_respects_ball_and_clip(self):
        net = random_net(80, widths=[2, 5, 2])
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (20, 2))
        y = rng.integers(0, 2, 20)
        atk = AttackConfig(0.1, steps=5, clip=(0, 1))
        adv = _pgd_batch(net, X, y, atk, rng)
        assert np.max(np.abs(adv - X)) <= 0.1 + 1e-12
        assert adv.min() >= 0 and adv.max() <= 1


# ---------------------------------------------------------------------------
# the training loop as it was before train, finetune_grafted and
# gradual_graft became thin callers of one SGD entry; the bytes must not
# change


def _reference_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _reference_ce_loss_grad(logits, y):
    n = logits.shape[0]
    p = _reference_softmax(logits)
    loss = float(-np.log(p[np.arange(n), y] + 1e-12).mean())
    g = p
    g[np.arange(n), y] -= 1.0
    return loss, g / n


def _reference_pgd_batch(net, X, y, atk, rng):
    if atk.eps == 0.0:
        return X
    lo, hi = X - atk.eps, X + atk.eps
    if atk.clip is not None:
        lo = np.maximum(lo, atk.clip[0])
        hi = np.minimum(hi, atk.clip[1])
    step = atk.eps / 4.0
    x = np.clip(X + rng.uniform(-atk.eps, atk.eps, X.shape), lo, hi)
    for _ in range(atk.steps):
        logits, pre, _ = forward_batch(net, x)
        p = _reference_softmax(logits)
        p[np.arange(x.shape[0]), y] -= 1.0
        g = input_grad_batch(net, pre, p)
        x = np.clip(x + step * np.sign(g), lo, hi)
    return x


def _reference_step_lr(cfg, epoch):
    # the "step" schedule; decay_factor was 0.1 in every config
    k = sum(1 for m in cfg.milestones if epoch >= m)
    return cfg.lr * (0.1**k)


def _reference_cosine_lr(lr0, epoch, epochs):
    if epochs <= 1:
        return lr0
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * epoch / (epochs - 1)))


def _reference_sgd_run(net, X, y, *, epochs, batch_size, momentum, weight_decay, weight_lr,
                       graft_lr, adversarial, seed, l1=0.0,
                       epoch_callback=None, log_path=None, holdout=None):
    net = net.copy()
    rng = np.random.default_rng(seed)
    vel_w = [np.zeros_like(l.weight) for l in net.layers]
    vel_b = [np.zeros_like(l.bias) for l in net.layers]
    vel_s = [np.zeros_like(s) for s in net.slopes]
    vel_c = [np.zeros_like(c) for c in net.intercepts]
    n = X.shape[0]
    log_rows = []
    for epoch in range(epochs):
        if epoch_callback is not None:
            net = epoch_callback(net, epoch)
        lr_w, lr_g = weight_lr(epoch), graft_lr(epoch)
        perm = rng.permutation(n)
        epoch_loss, batches = 0.0, 0
        for s in range(0, n, batch_size):
            idx = perm[s : s + batch_size]
            xb, yb = X[idx], y[idx]
            if adversarial is not None:
                xb = _reference_pgd_batch(net, xb, yb, adversarial, rng)
            logits, pre, post = forward_batch(net, xb)
            loss, dlogits = _reference_ce_loss_grad(logits, yb)
            if l1 > 0.0:
                loss += l1 * float(sum(np.abs(l.weight).sum() for l in net.layers))
            grads = backward_batch(net, xb, pre, post, dlogits)
            if lr_w > 0.0:
                for i, layer in enumerate(net.layers):
                    gw = grads.weight_grads[i] + weight_decay * layer.weight
                    if l1 > 0.0:
                        gw = gw + l1 * np.sign(layer.weight)
                    gb = grads.bias_grads[i] + weight_decay * layer.bias
                    vel_w[i] = momentum * vel_w[i] + gw
                    vel_b[i] = momentum * vel_b[i] + gb
                    layer.weight -= lr_w * vel_w[i]
                    layer.bias -= lr_w * vel_b[i]
            if lr_g > 0.0:
                for h in range(len(net.slopes)):
                    mask = net.grafted[h]
                    if not mask.any():
                        continue
                    vel_s[h] = momentum * vel_s[h] + grads.slope_grads[h]
                    vel_c[h] = momentum * vel_c[h] + grads.intercept_grads[h]
                    net.slopes[h][mask] -= lr_g * vel_s[h][mask]
                    net.intercepts[h][mask] -= lr_g * vel_c[h][mask]
            epoch_loss += loss
            batches += 1
        epoch_loss /= max(batches, 1)
        if log_path is not None:
            sa = ra = ""
            if holdout is not None:
                hx, hy = holdout
                logits, _, _ = forward_batch(net, hx)
                sa = f"{100.0 * float((logits.argmax(axis=1) == hy).mean()):.2f}"
                if adversarial is not None:
                    adv = _reference_pgd_batch(net, hx, hy, adversarial, rng)
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
    return net


def _reference_train(net, dataset, cfg, adversarial=None, *, l1=0.0, log_path=None, holdout=None):
    X, y = _dataset_arrays(dataset)
    return _reference_sgd_run(
        net, X, y, epochs=cfg.epochs, batch_size=cfg.batch_size, momentum=cfg.momentum,
        weight_decay=cfg.weight_decay, weight_lr=lambda e: _reference_step_lr(cfg, e),
        graft_lr=lambda e: _reference_step_lr(cfg, e), adversarial=adversarial,
        seed=cfg.seed, l1=l1, log_path=log_path,
        holdout=None if holdout is None else _dataset_arrays(holdout),
    )


def _reference_finetune(net, dataset, cfg, adversarial=None, *, l1=0.0, log_path=None,
                        epoch_callback=None):
    X, y = _dataset_arrays(dataset)
    return _reference_sgd_run(
        net, X, y, epochs=cfg.epochs, batch_size=cfg.batch_size, momentum=cfg.momentum,
        weight_decay=cfg.weight_decay,
        weight_lr=lambda e: _reference_cosine_lr(cfg.weight_lr, e, cfg.epochs),
        graft_lr=lambda e: _reference_cosine_lr(cfg.graft_lr, e, cfg.epochs),
        adversarial=adversarial, seed=cfg.seed, l1=l1,
        epoch_callback=epoch_callback, log_path=log_path,
    )


def _reference_gradual(net, dataset, eps, fraction, cfg, *, adversarial=None, clip=None,
                       score_size=512, init_slope=0.25, init_intercept=0.0, l1=0.0,
                       log_path=None):
    X, y = _dataset_arrays(dataset)
    Xs, ys = X[:score_size], y[:score_size]
    total = math.ceil(fraction * net.num_hidden)
    graft_epochs = max(1, cfg.epochs // 2)
    state = {"count": 0}

    def callback(working, epoch):
        if epoch >= graft_epochs or state["count"] >= total:
            return working
        t = epoch + 1
        target = math.ceil(total * (1.0 - (1.0 - t / graft_epochs) ** 3))
        need = min(target, total) - state["count"]
        if need <= 0:
            return working
        gamma = 2.0 * (1.0 - state["count"] / total)
        scores = score_neurons(working, Xs, ys, eps, clip=clip)
        # the old select_top_neurons
        take = _ranked_candidates(scores, np.zeros(scores.num_neurons, dtype=bool), gamma)[:need]
        plan = GraftPlan(tuple(int(i) for i in take), ((need / scores.num_neurons, gamma),),
                         init_slope, init_intercept)
        state["count"] += len(plan.neuron_ids)
        return apply_graft(working, plan)

    return _reference_finetune(net, (X, y), cfg, adversarial, l1=l1, log_path=log_path,
                               epoch_callback=callback)


def _training_case(seed, grafted=0.0):
    """A random 2-5-input net with one or two hidden layers, and a small
    labelled set in [0, 1] whose size is not a multiple of the batch."""
    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(2, 6)), int(rng.integers(2, 4))
    widths = [d] + [int(rng.integers(4, 9)) for _ in range(int(rng.integers(1, 3)))] + [k]
    net = random_net(seed, widths=widths, graft_fraction=grafted)
    n = int(rng.integers(30, 70))
    data = (rng.uniform(0, 1, (n, d)), rng.integers(0, k, n))
    hold = (rng.uniform(0, 1, (25, d)), rng.integers(0, k, 25))
    atk = AttackConfig(float(rng.uniform(0.02, 0.15)), steps=int(rng.integers(1, 4)), clip=(0, 1))
    return rng, net, data, hold, atk


class TestOneSgdLoop:
    """train, finetune_grafted and gradual_graft against the old loop: the
    same nets and the same log bytes."""

    def test_train_matches_old_loop(self, tmp_path):
        seen = set()
        for seed in range(12):
            rng, net, data, hold, atk = _training_case(1000 + seed)
            adversarial = atk if seed % 2 else None
            l1 = 0.0 if seed % 3 == 0 else 2e-3
            holdout = hold if seed % 4 < 2 else None
            cfg = TrainConfig(epochs=4, batch_size=16, lr=0.05, weight_decay=1e-3,
                              milestones=(1, 3), seed=seed)
            got = train(net, data, cfg, adversarial, l1=l1, log_path=tmp_path / "a.csv", holdout=holdout)
            want = _reference_train(net, data, cfg, adversarial, l1=l1,
                                    log_path=tmp_path / "b.csv", holdout=holdout)
            assert nets_equal(got, want)
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
            seen.add((adversarial is None, l1 == 0.0, holdout is None))
        assert len(seen) == 8

    def test_finetune_matches_old_loop(self, tmp_path):
        seen = set()
        for seed in range(12):
            rng, net, data, hold, atk = _training_case(1100 + seed, grafted=0.4)
            adversarial = atk if seed % 2 else None
            l1 = 0.0 if seed % 3 == 0 else 2e-3
            # graft-zero's rate 0, frozen weights, and both groups tuned
            graft_lr, weight_lr = [(0.0, 0.01), (0.02, 0.0), (0.02, 0.01)][seed % 3]
            cfg = FinetuneConfig(graft_lr=graft_lr, weight_lr=weight_lr, epochs=3, batch_size=16,
                                 weight_decay=5e-4, seed=seed)
            got = finetune_grafted(net, data, cfg, adversarial, l1=l1, log_path=tmp_path / "a.csv")
            want = _reference_finetune(net, data, cfg, adversarial, l1=l1, log_path=tmp_path / "b.csv")
            assert nets_equal(got, want)
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
            seen.add((adversarial is None, graft_lr, weight_lr))
        assert len(seen) == 6

    def test_gradual_matches_old_loop(self, tmp_path):
        for seed in range(6):
            rng, net, data, hold, atk = _training_case(1200 + seed)
            adversarial = atk if seed % 2 else None
            fraction = float(rng.choice([0.25, 0.5, 0.75]))
            # the old count matches away from float dust
            assert math.ceil(fraction * net.num_hidden) == math.ceil(fraction * net.num_hidden - 1e-9)
            cfg = FinetuneConfig(epochs=6, batch_size=16, weight_lr=0.001 if seed % 3 else 0.0,
                                 seed=seed)
            kw = dict(adversarial=adversarial, clip=(0, 1), score_size=20, l1=1e-3 * (seed % 2))
            got = gradual_graft(net, data, 0.05, fraction, cfg, log_path=tmp_path / "a.csv", **kw)
            want = _reference_gradual(net, data, 0.05, fraction, cfg, log_path=tmp_path / "b.csv", **kw)
            assert nets_equal(got, want)
            assert any(g.any() for g in got.grafted)
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

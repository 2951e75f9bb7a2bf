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
from graftcert.grafting import score_neurons, select_neurons
from graftcert.training import _pgd_batch
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
        with pytest.raises(UsageError):
            TrainConfig(schedule="linear")

    def test_attack_config_validation(self):
        with pytest.raises(DomainError):
            AttackConfig(eps=-0.1)
        with pytest.raises(UsageError):
            AttackConfig(eps=0.1, steps=0)
        with pytest.raises(UsageError):
            AttackConfig(eps=0.1, restarts=0)

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
        cfg = FinetuneConfig(graft_lr=0.05, weight_lr=0.01, epochs=5, tune_weights=False, batch_size=32, seed=0)
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
            FinetuneConfig(graft_lr=0.02, weight_lr=0.01, epochs=15, tune_weights=False, batch_size=32, seed=1),
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

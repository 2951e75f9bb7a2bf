import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftcert import (
    GraftPlan,
    UsageError,
    apply_graft,
    baseline_select,
    default_gamma_schedule,
    forward_batch,
    instability_scores,
    load_plan,
    rank_normalize,
    save_plan,
    score_neurons,
    select_neurons,
    significance_scores,
)
from graftcert.data import gaussian_blobs
from graftcert.grafting import NeuronScore, plan_from_dict, plan_to_dict
from graftcert.network import backward_batch

from conftest import random_net


def toy_scores(r_u, r_s, relu_mask=None):
    r_u = np.asarray(r_u, dtype=float)
    r_s = np.asarray(r_s, dtype=float)
    if relu_mask is None:
        relu_mask = np.ones(r_u.size, dtype=bool)
    return NeuronScore(
        np.zeros(r_u.size, dtype=np.int64), np.zeros(r_u.size), r_u, r_s, relu_mask
    )


def _reference_significance(net, X, y, batch):
    """Raw significance as it was computed before scoring shared the
    reverse chain: a full backward pass per batch, with the post-activation
    gradients read off its bundle."""
    acc = np.zeros(net.num_hidden)
    for s in range(0, X.shape[0], batch):
        xb, yb = X[s : s + batch], y[s : s + batch]
        logits, pre, post = forward_batch(net, xb)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(xb.shape[0]), yb] -= 1.0
        bundle = backward_batch(net, xb, pre, post, p)
        for off, g in zip(net.layer_offsets(), bundle.postact_grads):
            acc[off : off + g.shape[1]] += np.abs(g).sum(axis=0)
    return acc / X.shape[0]


class TestRankNormalize:
    def test_distinct_values(self):
        assert rank_normalize(np.array([0, 5, 10])).tolist() == [0.0, 0.5, 1.0]

    def test_full_tie_gives_half(self):
        assert rank_normalize(np.array([3.0, 3.0, 3.0, 3.0])).tolist() == [0.5] * 4

    def test_partial_ties_share_mean_rank(self):
        r = rank_normalize(np.array([1.0, 2.0, 2.0, 3.0]))
        assert r.tolist() == [0.0, 0.5, 0.5, 1.0]

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_range_and_order(self, raw):
        raw = np.array(raw, dtype=float)
        r = rank_normalize(raw)
        assert np.all((r >= 0) & (r <= 1))
        # untied extremes land exactly on the ends of the range; tied
        # extremes share the mean of their tied ranks instead
        if (raw == raw.min()).sum() == 1:
            assert r.min() == 0.0
        if (raw == raw.max()).sum() == 1:
            assert r.max() == 1.0
        # monotone: larger raw never ranks lower
        order = np.argsort(raw, kind="stable")
        assert np.all(np.diff(r[order]) >= -1e-12)

    def test_needs_two_values(self):
        with pytest.raises(UsageError):
            rank_normalize(np.array([1.0]))


class TestScores:
    def test_instability_rank_direction(self):
        # most unstable neuron gets r_u = 1
        net = random_net(10, widths=[2, 6, 2])
        X = np.random.default_rng(0).uniform(0, 1, (50, 2))
        counts, r_u = instability_scores(net, X, eps=0.2)
        assert r_u[np.argmax(counts)] == r_u.max()
        if np.unique(counts).size > 1:
            assert r_u.max() == 1.0

    def test_quadrant_partition_with_distinct_scores(self):
        # with all-distinct raw values each axis splits exactly in half at
        # the 0.5 threshold; on this balanced instance every quadrant holds
        # a quarter of the neurons
        n = 16
        r_u = rank_normalize(np.arange(n))
        r_s_raw = np.concatenate([np.arange(8, 12), np.arange(0, 4),
                                  np.arange(12, 16), np.arange(4, 8)])
        r_s = rank_normalize(r_s_raw)
        scores = toy_scores(r_u, r_s)
        assert (scores.r_u < 0.5).sum() == n // 2
        assert (scores.r_s < 0.5).sum() == n // 2
        q = [
            ((scores.r_u < 0.5) & (scores.r_s < 0.5)).sum(),
            ((scores.r_u < 0.5) & (scores.r_s >= 0.5)).sum(),
            ((scores.r_u >= 0.5) & (scores.r_s >= 0.5)).sum(),
            ((scores.r_u >= 0.5) & (scores.r_s < 0.5)).sum(),
        ]
        assert q == [n // 4] * 4

    def test_zero_outgoing_weights_give_zero_significance(self):
        net = random_net(11, widths=[2, 4, 3, 2])
        # cut the outgoing weights of hidden neuron 1 (layer 0, offset 1)
        net.layers[1].weight[:, 1] = 0.0
        X = np.random.default_rng(2).uniform(0, 1, (40, 2))
        y = np.random.default_rng(3).integers(0, 2, 40)
        raw, r_s = significance_scores(net, X, y)
        assert raw[1] == 0.0
        assert r_s[1] == r_s.min()

    def test_significance_batches_add_up(self, monkeypatch):
        import graftcert.grafting as grafting

        net = random_net(13, widths=[2, 5, 4, 2])
        X = np.random.default_rng(6).uniform(0, 1, (40, 2))
        y = np.random.default_rng(7).integers(0, 2, 40)
        whole, _ = significance_scores(net, X, y)
        monkeypatch.setattr(grafting, "_SCORE_BATCH", 7)
        batched, _ = significance_scores(net, X, y)
        assert np.allclose(batched, whole, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("batch", [None, 7])
    @pytest.mark.parametrize("widths, grafted", [
        pytest.param([3, 6, 5, 4, 3], 0.4, id="grafted"),
        pytest.param([2, 6, 2], 0.0, id="one-hidden"),
    ])
    def test_significance_equals_full_backward_recipe(self, monkeypatch, widths, grafted, batch):
        import graftcert.grafting as grafting

        net = random_net(17, widths=widths, graft_fraction=grafted)
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (300, widths[0]))
        y = rng.integers(0, widths[-1], 300)
        if batch is not None:
            monkeypatch.setattr(grafting, "_SCORE_BATCH", batch)
        raw, _ = significance_scores(net, X, y)
        want = _reference_significance(net, X, y, grafting._SCORE_BATCH)
        assert raw.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [3, 7, 21, 40])
    def test_doubling_outgoing_weights_doesnt_reduce_significance(self, seed):
        # recompute-on-modified-net oracle, on fixed instances
        net = random_net(seed, widths=[2, 5, 4, 2])
        X = np.random.default_rng(seed).uniform(0, 1, (60, 2))
        y = np.random.default_rng(seed + 1).integers(0, 2, 60)
        raw, _ = significance_scores(net, X, y)
        j = 2  # a neuron in the first hidden layer
        mod = net.copy()
        mod.layers[1].weight[:, j] *= 2.0
        raw2, _ = significance_scores(mod, X, y)
        assert raw2[j] >= raw[j] - 1e-12

    def test_score_neurons_marks_relu_eligibility(self):
        net = apply_graft(random_net(12, widths=[2, 5, 2]), GraftPlan((1, 3), ((0.4, 0.0),)))
        X = np.random.default_rng(4).uniform(0, 1, (30, 2))
        y = np.random.default_rng(5).integers(0, 2, 30)
        scores = score_neurons(net, X, y, eps=0.1)
        assert not scores.relu_mask[1] and not scores.relu_mask[3]
        assert scores.relu_mask.sum() == net.num_hidden - 2


class TestGammaSchedule:
    def test_canonical_half_fraction(self):
        sched = default_gamma_schedule(0.5)
        assert len(sched) == 10
        gammas = [g for _, g in sched]
        assert gammas[0] == 2.0 and gammas[-1] == 0.0
        assert gammas[1] == pytest.approx(2.0 - 2.0 / 9.0)
        diffs = np.diff(gammas)
        assert np.allclose(diffs, diffs[0])
        assert sum(i for i, _ in sched) == pytest.approx(0.5)

    def test_single_batch_takes_start_value(self):
        assert default_gamma_schedule(0.05) == ((0.05, 2.0),)
        assert default_gamma_schedule(0.02) == ((0.02, 2.0),)

    def test_twenty_percent_is_four_batches(self):
        sched = default_gamma_schedule(0.2)
        assert len(sched) == 4
        gammas = [g for _, g in sched]
        assert gammas[0] == 2.0 and gammas[-1] == 0.0
        diffs = np.diff(gammas)
        assert np.allclose(diffs, diffs[0])

    @given(st.floats(0.01, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, fraction):
        sched = default_gamma_schedule(fraction)
        assert sum(i for i, _ in sched) == pytest.approx(fraction)
        gammas = [g for _, g in sched]
        assert gammas[0] == 2.0
        if len(gammas) > 1:
            assert gammas[-1] == 0.0
            assert all(a >= b for a, b in zip(gammas, gammas[1:]))


class TestSelect:
    def test_key_arithmetic(self):
        # gamma=2: A (r_u=.9, r_s=.1) scores 1.7 beats B (r_u=.5, r_s=.9) at 0.1
        scores = toy_scores([0.9, 0.5], [0.1, 0.9])
        plan = select_neurons(scores, 0.5, ((0.5, 2.0),))
        assert plan.neuron_ids == (0,)

    def test_gamma_zero_equals_significance_selection(self):
        rng = np.random.default_rng(6)
        net = random_net(13, widths=[2, 10, 10, 2])
        X = rng.uniform(0, 1, (64, 2))
        y = rng.integers(0, 2, 64)
        scores = score_neurons(net, X, y, eps=0.15)
        plan = select_neurons(scores, 0.3, ((0.3, 0.0),))
        gap = baseline_select("gap", net, X, y, 0.3)
        if np.unique(scores.raw_significance).size == scores.num_neurons:
            assert set(plan.neuron_ids) == set(gap.neuron_ids)

    def test_plan_size_exact(self):
        rng = np.random.default_rng(7)
        for n, fraction in [(16, 0.2), (33, 0.5), (10, 0.17), (21, 1.0)]:
            scores = toy_scores(rank_normalize(rng.permutation(n)), rank_normalize(rng.permutation(n)))
            plan = select_neurons(scores, fraction, default_gamma_schedule(fraction))
            assert len(plan.neuron_ids) == int(np.ceil(fraction * n - 1e-9))

    def test_ties_prefer_higher_ru_then_lower_id(self):
        scores = toy_scores([0.5, 0.9, 0.9], [0.5, 0.9, 0.9])
        # keys at gamma=1: 0.0 for all three; tie -> higher r_u, then lower id
        plan = select_neurons(scores, 1 / 3, ((1 / 3, 1.0),))
        assert plan.neuron_ids == (1,)

    def test_increasing_ru_never_demotes(self):
        # selection-priority monotonicity at fixed r_s
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = 12
            r_u = rank_normalize(rng.permutation(n))
            r_s = rank_normalize(rng.permutation(n))
            scores = toy_scores(r_u, r_s)
            gamma = float(rng.uniform(0.1, 2.0))
            frac = 0.25
            plan = set(select_neurons(scores, frac, ((frac, gamma),)).neuron_ids)
            j = int(rng.integers(0, n))
            bump = r_u.copy()
            bump[j] = min(1.0, bump[j] + float(rng.uniform(0, 0.5)))
            plan2 = set(select_neurons(toy_scores(bump, r_s), frac, ((frac, gamma),)).neuron_ids)
            if j in plan:
                assert j in plan2

    def test_fraction_beyond_remaining_relu_rejected(self):
        scores = toy_scores([0.1, 0.9], [0.2, 0.3], relu_mask=np.array([True, False]))
        with pytest.raises(UsageError):
            select_neurons(scores, 1.0, ((1.0, 1.0),))

    def test_schedule_must_sum_to_fraction(self):
        scores = toy_scores([0.1, 0.9, 0.4, 0.7], [0.2, 0.3, 0.9, 0.1])
        with pytest.raises(UsageError):
            select_neurons(scores, 0.5, ((0.3, 2.0), (0.3, 0.0)))

    def test_select_top_single_batch(self):
        scores = toy_scores([0.9, 0.1, 0.5, 0.7], [0.1, 0.9, 0.5, 0.2])
        plan = select_neurons(scores, 0.5, ((0.5, 2.0),))
        assert plan.neuron_ids == (0, 3)


class TestBaselines:
    def setup_method(self):
        self.net = random_net(14, widths=[2, 8, 6, 2])
        rng = np.random.default_rng(9)
        self.X = rng.uniform(0, 1, (60, 2))
        self.y = rng.integers(0, 2, 60)

    def test_random_reproducible(self):
        a = baseline_select("random", self.net, self.X, self.y, 0.4, seed=5)
        b = baseline_select("random", self.net, self.X, self.y, 0.4, seed=5)
        assert a.neuron_ids == b.neuron_ids
        c = baseline_select("random", self.net, self.X, self.y, 0.4, seed=6)
        assert set(c.neuron_ids) != set(a.neuron_ids) or c.neuron_ids != a.neuron_ids

    def test_sap_picks_dead_neuron_first(self):
        net = self.net.copy()
        # every neuron firmly alive except (layer 0, offset 2)
        for layer in net.layers[:-1]:
            layer.bias[:] = 1.0
        net.layers[0].weight[2, :] = 0.0
        net.layers[0].bias[2] = -10.0
        plan = baseline_select("sap", net, self.X, self.y, 1 / net.num_hidden)
        assert plan.neuron_ids == (2,)

    def test_plan_sizes(self):
        for method in ("sap", "gap", "random"):
            plan = baseline_select(method, self.net, self.X, self.y, 0.3, seed=1)
            assert len(plan.neuron_ids) == int(np.ceil(0.3 * self.net.num_hidden))

    def test_unknown_method(self):
        with pytest.raises(UsageError):
            baseline_select("hydra", self.net, self.X, self.y, 0.5)

    def test_zero_graft_on_sap_set_equals_activation_pruning(self):
        # grafting (0,0) onto a SAP-selected set reproduces explicit
        # activation pruning of that set, output-exactly
        plan = baseline_select("sap", self.net, self.X, self.y, 0.25, init_slope=0.0, init_intercept=0.0)
        grafted = apply_graft(self.net, plan)
        masks = {}
        offs = self.net.layer_offsets()
        for nid in plan.neuron_ids:
            h, j = self.net.neuron_location(nid)
            masks.setdefault(h, []).append(j)
        a = self.X
        for i, layer in enumerate(self.net.layers):
            z = a @ layer.weight.T + layer.bias
            if i < len(self.net.layers) - 1:
                a = np.maximum(z, 0.0)
                for j in masks.get(i, []):
                    a[:, j] = 0.0
        got, _, _ = forward_batch(grafted, self.X)
        assert np.array_equal(got, z)


class TestDeterminismAndIO:
    def test_identical_inputs_identical_plans(self):
        ds = gaussian_blobs(80, dim=2, classes=2, seed=3)
        net = random_net(15, widths=[2, 7, 2])
        a = score_neurons(net, ds.features, ds.labels, eps=0.1)
        b = score_neurons(net, ds.features, ds.labels, eps=0.1)
        pa = select_neurons(a, 0.4, default_gamma_schedule(0.4))
        pb = select_neurons(b, 0.4, default_gamma_schedule(0.4))
        assert pa.neuron_ids == pb.neuron_ids

    def test_plan_json_round_trip(self, tmp_path):
        plan = GraftPlan((3, 1, 7), ((0.2, 2.0), (0.1, 0.0)), 0.25, -0.125)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert loaded == plan
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_duplicate_ids_rejected(self):
        with pytest.raises(UsageError):
            GraftPlan((1, 1), ((0.5, 0.0),))

import json

import numpy as np
import pytest

from graftcert import (
    DomainError,
    GraftedLinear,
    GraftPlan,
    Network,
    ReLU,
    StructuralError,
    UsageError,
    apply_graft,
    backward,
    forward,
    forward_batch,
    load_checkpoint,
    make_mlp,
    save_checkpoint,
)
from graftcert.network import (
    backward_batch,
    input_grad_batch,
    network_from_dict,
    network_to_dict,
)

from conftest import manual_layer, random_net


class TestForward:
    def test_single_affine_layer(self):
        net = Network([manual_layer([[1.0, -1.0]], [0.0])])
        logits, preacts, postacts = forward(net, np.array([0.5, 0.25]))
        assert logits[0] == pytest.approx(0.25, abs=0)
        assert postacts == []
        assert preacts[-1][0] == 0.25

    def test_identity_grafts_equal_affine_chain(self):
        net = random_net(11, widths=[3, 5, 4, 2])
        n = net.num_hidden
        plan = GraftPlan(tuple(range(n)), ((1.0, 0.0),), init_slope=1.0, init_intercept=0.0)
        grafted = apply_graft(net, plan)
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (20, 3))
        # pure affine composition
        expected = X
        for layer in net.layers:
            expected = expected @ layer.weight.T + layer.bias
        got, _, _ = forward_batch(grafted, X)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_matches_handrolled_evaluation(self):
        # independent re-implementation of the forward pass as the oracle
        rng = np.random.default_rng(77)
        net = random_net(77, widths=[2, 2, 1])
        x = rng.uniform(-1, 1, 2)
        a = x
        for i, layer in enumerate(net.layers):
            z = np.array(
                [sum(layer.weight[r, c] * a[c] for c in range(len(a))) + layer.bias[r]
                 for r in range(layer.weight.shape[0])]
            )
            if i < len(net.layers) - 1:
                a = np.array([max(v, 0.0) for v in z])
        logits, _, _ = forward(net, x)
        assert np.array_equal(logits, z)

    def test_forward_deterministic(self):
        net = random_net(5, graft_fraction=0.4)
        x = np.random.default_rng(1).uniform(-1, 1, net.input_dim)
        a, _, _ = forward(net, x)
        b, _, _ = forward(net, x)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        net = random_net(3, widths=[3, 4, 2])
        with pytest.raises(StructuralError):
            forward(net, np.zeros(5))

    def test_non_finite_input(self):
        net = random_net(3, widths=[2, 3, 2])
        with pytest.raises(DomainError):
            forward(net, np.array([np.nan, 0.0]))


class TestBackward:
    def test_pure_affine_input_grad(self):
        net = Network([manual_layer([[1.0, 2.0], [0.5, -1.0]], [0.1, -0.2])])
        g = np.array([0.3, -0.7])
        bundle = backward(net, np.array([0.4, 0.6]), g)
        assert np.allclose(bundle.input_grad, net.layers[0].weight.T @ g, atol=0)

    def test_inactive_relu_blocks_gradient(self):
        # one hidden neuron, forced negative pre-activation
        net = Network(
            [manual_layer([[1.0]], [-5.0]), manual_layer([[2.0]], [0.0])]
        )
        bundle = backward(net, np.array([1.0]), np.array([1.0]))
        assert bundle.input_grad[0] == 0.0
        assert bundle.weight_grads[0][0, 0] == 0.0

    def test_relu_subgradient_at_zero_is_zero(self):
        net = Network([manual_layer([[1.0]], [0.0]), manual_layer([[3.0]], [0.0])])
        bundle = backward(net, np.array([0.0]), np.array([1.0]))
        assert bundle.input_grad[0] == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(900 + seed)
        net = random_net(900 + seed, graft_fraction=0.5)
        # keep pre-activations away from the ReLU kink so central
        # differences are valid
        for _ in range(50):
            x = rng.uniform(-1, 1, net.input_dim)
            _, pre, _ = forward(net, x)
            if min(np.abs(p).min() for p in pre[:-1]) > 1e-3:
                break
        g = rng.normal(0, 1, net.output_dim)
        bundle = backward(net, x, g)

        def loss():
            return float(forward(net, x)[0] @ g)

        h = 1e-5

        def fd(arr, idx):
            old = arr[idx]
            arr[idx] = old + h
            up = loss()
            arr[idx] = old - h
            dn = loss()
            arr[idx] = old
            return (up - dn) / (2 * h)

        def check(arr, grad):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                num = fd(arr, idx)
                ana = grad[idx]
                assert abs(num - ana) <= 1e-4 * max(abs(num), abs(ana), 1e-6)

        for i, layer in enumerate(net.layers):
            check(layer.weight, bundle.weight_grads[i])
            check(layer.bias, bundle.bias_grads[i])
        for hd in range(len(net.slopes)):
            mask = net.grafted[hd]
            for j in np.flatnonzero(mask):
                assert abs(fd(net.slopes[hd], (j,)) - bundle.slope_grads[hd][j]) <= 1e-4 * max(
                    abs(bundle.slope_grads[hd][j]), 1e-6
                )
                assert abs(
                    fd(net.intercepts[hd], (j,)) - bundle.intercept_grads[hd][j]
                ) <= 1e-4 * max(abs(bundle.intercept_grads[hd][j]), 1e-6)

    def test_grafted_param_gradients_scaled_by_downstream(self):
        # d/da = z * downstream, d/db = downstream
        net = Network(
            [manual_layer([[2.0]], [1.0]), manual_layer([[3.0]], [0.0])]
        )
        plan = GraftPlan((0,), ((1.0, 0.0),), init_slope=0.5, init_intercept=0.1)
        net = apply_graft(net, plan)
        x = np.array([0.7])
        z = 2.0 * 0.7 + 1.0
        bundle = backward(net, x, np.array([1.0]))
        assert bundle.slope_grads[0][0] == pytest.approx(3.0 * z)
        assert bundle.intercept_grads[0][0] == pytest.approx(3.0)
        assert bundle.postact_grads[0][0] == pytest.approx(3.0)


class TestInputGrad:
    """``input_grad_batch`` is the attacks' pass; it must not move a bit
    against the full reverse pass, or trained weights and verdicts move."""

    @staticmethod
    def assert_bitwise_equal(net, X, seed=0):
        _, pre, post = forward_batch(net, X)
        g = np.random.default_rng(seed).normal(0.0, 1.0, (X.shape[0], net.output_dim))
        full = backward_batch(net, X, pre, post, g).input_grad
        got = input_grad_batch(net, pre, g)
        assert got.shape == full.shape == X.shape and got.dtype == full.dtype
        assert got.tobytes() == full.tobytes()

    @pytest.mark.parametrize("seed", range(50))
    def test_random_grafted_nets(self, seed):
        net = random_net(1300 + seed, graft_fraction=(0.0, 0.3, 1.0)[seed % 3])
        X = np.random.default_rng(seed).uniform(-1, 1, (1 + seed % 7, net.input_dim))
        self.assert_bitwise_equal(net, X, seed)

    def test_slope_zero_grafts(self):
        net = random_net(41, widths=[3, 6, 5, 2])
        plan = GraftPlan(tuple(range(0, net.num_hidden, 2)), ((0.5, 0.0),), 0.0, 0.2)
        X = np.random.default_rng(41).uniform(-1, 1, (9, 3))
        self.assert_bitwise_equal(apply_graft(net, plan), X)

    def test_preactivations_exactly_zero(self):
        # zero biases and a zero input row: every pre-activation is 0.0,
        # where ReLU's subgradient is 0 and a graft's is its slope
        net = make_mlp([3, 4, 4, 2], seed=5)
        plan = GraftPlan((1, 6), ((0.25, 0.0),), 0.5, 0.0)
        X = np.vstack([np.zeros(3), np.random.default_rng(5).uniform(-1, 1, (4, 3))])
        for n in (net, apply_graft(net, plan)):
            _, pre, _ = forward_batch(n, X)
            assert not pre[0][0].any() and not pre[1][0].any()
            self.assert_bitwise_equal(n, X)

    def test_no_hidden_layer(self):
        net = Network([manual_layer([[1.0, 2.0], [0.5, -1.0], [0.0, 3.0]], [0.1, -0.2, 0.0])])
        X = np.random.default_rng(3).uniform(-1, 1, (4, 2))
        self.assert_bitwise_equal(net, X)

    def test_loss_grad_shape_checked(self):
        net = random_net(2, widths=[2, 3, 2])
        _, pre, _ = forward_batch(net, np.zeros((2, 2)))
        with pytest.raises(StructuralError):
            input_grad_batch(net, pre, np.zeros((2, 3)))


class TestStackedBatches:
    """A stack ``(E, n, d)`` of batches runs each batch's own product, so
    the attacks and the pipeline can stack examples without moving a bit."""

    @pytest.mark.parametrize("seed", range(30))
    def test_stack_equals_per_batch_calls(self, seed):
        rng = np.random.default_rng(seed)
        if seed == 0:
            net = random_net(seed, widths=[784, 128, 128, 10], weight_scale=0.05)
        else:
            net = random_net(1500 + seed, graft_fraction=(0.0, 0.3, 1.0)[seed % 3])
        E, n = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        X = rng.uniform(-1, 1, (E, n, net.input_dim))
        if seed % 2:
            # one row per batch, laid out as the pipeline stacks examples
            X = rng.uniform(-1, 1, (E, net.input_dim))[:, None, :]
        G = rng.normal(0.0, 1.0, (E, n if seed % 2 == 0 else 1, net.output_dim))
        logits, pre, post = forward_batch(net, X)
        grad = input_grad_batch(net, pre, G)
        for e in range(E):
            one_logits, one_pre, one_post = forward_batch(net, X[e])
            assert logits[e].tobytes() == one_logits.tobytes()
            for a, b in zip(pre + post, one_pre + one_post):
                assert a[e].tobytes() == b.tobytes()
            assert grad[e].tobytes() == input_grad_batch(net, one_pre, G[e]).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 1, 4), (0,), (1, 2, 1, 3)])
    def test_bad_shapes_raise(self, shape):
        net = random_net(2, widths=[3, 4, 2])
        with pytest.raises(StructuralError):
            forward_batch(net, np.zeros(shape))


class TestApplyGraft:
    def test_empty_plan_is_identity(self):
        net = random_net(21)
        plan = GraftPlan((), ((0.0, 0.0),))
        out = apply_graft(net, plan)
        x = np.random.default_rng(2).uniform(-1, 1, net.input_dim)
        assert np.array_equal(forward(net, x)[0], forward(out, x)[0])

    def test_full_graft_closed_form(self):
        net = random_net(22, widths=[2, 3, 2])
        plan = GraftPlan(tuple(range(net.num_hidden)), ((1.0, 0.0),), 0.25, 0.0)
        out = apply_graft(net, plan)
        x = np.array([0.3, -0.4])
        z1 = net.layers[0].weight @ x + net.layers[0].bias
        expected = net.layers[1].weight @ (0.25 * z1) + net.layers[1].bias
        assert np.allclose(forward(out, x)[0], expected, atol=1e-12)

    def test_zero_graft_equals_pruned_postactivations(self):
        net = random_net(23, widths=[3, 6, 5, 2])
        rng = np.random.default_rng(4)
        ids = (1, 4, 7)
        plan = GraftPlan(ids, ((0.3, 0.0),), 0.0, 0.0)
        out = apply_graft(net, plan)
        X = rng.uniform(-1, 1, (25, 3))
        # reference: mask the pruned post-activations explicitly
        a = X
        masks = {0: [1], 1: [1]}  # layer -> offsets for ids (1,) and (4-6? ) computed below
        offs = net.layer_offsets()
        masks = {}
        for nid in ids:
            for h, off in enumerate(offs):
                if off <= nid < off + net.hidden_sizes[h]:
                    masks.setdefault(h, []).append(nid - off)
        for i, layer in enumerate(net.layers):
            z = a @ layer.weight.T + layer.bias
            if i < len(net.layers) - 1:
                a = np.maximum(z, 0.0)
                for j in masks.get(i, []):
                    a[:, j] = 0.0
        got, _, _ = forward_batch(out, X)
        assert np.max(np.abs(got - z)) < 1e-12

    def test_regraft_rejected(self):
        net = random_net(24)
        plan = GraftPlan((0,), ((0.1, 0.0),))
        out = apply_graft(net, plan)
        with pytest.raises(UsageError):
            apply_graft(out, plan)

    def test_activation_kinds_reported(self):
        net = random_net(25)
        plan = GraftPlan((1,), ((0.1, 0.0),), 0.5, -0.25)
        out = apply_graft(net, plan)
        assert out.activation(1) == GraftedLinear(0.5, -0.25)
        assert out.activation(0) == ReLU()


class TestCheckpoint:
    def test_round_trip_value_exact(self, tmp_path):
        net = random_net(31, graft_fraction=0.3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        for a, b in zip(net.layers, loaded.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
        for ga, gb, sa, sb in zip(net.grafted, loaded.grafted, net.slopes, loaded.slopes):
            assert np.array_equal(ga, gb)
            assert np.array_equal(sa[ga], sb[ga])
        x = np.random.default_rng(3).uniform(-1, 1, net.input_dim)
        assert np.array_equal(forward(net, x)[0], forward(loaded, x)[0])

    def test_checkpoint_is_self_describing(self, tmp_path):
        net = random_net(32)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        assert doc["input_dim"] == net.input_dim
        assert len(doc["activations"]) == net.num_hidden
        assert doc["layers"][0]["shape"] == list(net.layers[0].weight.shape)

    def test_bad_activation_count_rejected(self):
        net = random_net(33)
        doc = network_to_dict(net)
        doc["activations"].pop()
        with pytest.raises(Exception):
            network_from_dict(doc)


class TestNetworkStructure:
    def test_width_chain_validated(self):
        with pytest.raises(StructuralError):
            Network([manual_layer([[1.0, 2.0]], [0.0]), manual_layer([[1.0, 1.0]], [0.0])])

    def test_non_finite_weights_rejected(self):
        with pytest.raises(DomainError):
            manual_layer([[np.inf]], [0.0])

    def test_neuron_location_round_trip(self):
        net = random_net(41, widths=[2, 4, 3, 2])
        offs = net.layer_offsets()
        for nid in range(net.num_hidden):
            h, j = net.neuron_location(nid)
            assert offs[h] + j == nid
        with pytest.raises(UsageError):
            net.neuron_location(net.num_hidden)

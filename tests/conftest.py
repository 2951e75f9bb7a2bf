"""Shared helpers: seeded random networks and small datasets."""

import numpy as np
import pytest

from graftcert import AffineLayer, GraftPlan, Network, apply_graft, input_region, make_mlp
from graftcert.bounds import _ROW_BLOCK


def random_net(
    seed: int,
    widths=None,
    weight_scale: float = 0.8,
    bias_scale: float = 0.3,
    graft_fraction: float = 0.0,
) -> Network:
    """A random dense net with non-zero biases and optionally some neurons
    pre-grafted with random lines."""
    rng = np.random.default_rng(seed)
    if widths is None:
        widths = [int(rng.integers(2, 5))]
        for _ in range(int(rng.integers(1, 4))):
            widths.append(int(rng.integers(2, 8)))
        widths.append(int(rng.integers(2, 4)))
    net = make_mlp(widths, seed=seed, weight_scale=weight_scale)
    for layer in net.layers:
        layer.bias += rng.normal(0.0, bias_scale, layer.bias.shape)
    if graft_fraction > 0.0:
        n = net.num_hidden
        count = max(1, int(graft_fraction * n))
        ids = rng.permutation(n)[:count]
        plan = GraftPlan(
            tuple(int(i) for i in ids),
            ((count / n, 0.0),),
            float(rng.uniform(-0.5, 1.0)),
            float(rng.uniform(-0.5, 0.5)),
        )
        net = apply_graft(net, plan)
    return net


# (net seed, input seed, eps) of roots whose CROWN refinement crossed the
# IBP bounds by rounding, on a neuron whose range is a point, while
# compute_bounds kept crossed refined bounds: each then read as an empty
# box, and BaB verified margins that are negative at the box's own input
ROUNDING_CROSS_CASES = [
    (7500, 0, 0.0), (7501, 1, 0.0), (7059, 59, 0.1), (7078, 78, 0.1), (7180, 180, 0.1),
]


def rounding_cross_case(net_seed, x_seed, eps):
    """``random_net(net_seed)``, an input drawn uniformly from [0, 1) by
    ``default_rng(x_seed)``, and its unclipped eps box."""
    net = random_net(net_seed)
    x = np.random.default_rng(x_seed).uniform(0, 1, net.input_dim)
    return net, x, input_region(x, eps)


def block_product(A, W, block=_ROW_BLOCK) -> np.ndarray:
    """``A @ W`` as the bound code multiplies, for reference kernels: each
    run of ``block`` rows of ``A`` (vectors on its last axis) is copied
    into a zero-filled ``(block, k)`` array, which ``np.matmul`` multiplies
    by ``W`` in a call of its own, so the last run is padded with zero
    rows."""
    A = np.asarray(A, dtype=np.float64)
    k = A.shape[-1]
    rows = A.reshape(-1, k)
    out = np.empty((len(rows),) + W.shape[1:])
    for s in range(0, len(rows), block):
        run = rows[s : s + block]
        part = np.zeros((block, k))
        part[: len(run)] = run
        out[s : s + len(run)] = np.matmul(part, W)[: len(run)]
    return out.reshape(A.shape[:-1] + W.shape[1:])


def per_row_products(A, W, block=_ROW_BLOCK) -> np.ndarray:
    """``bounds._rows_matmul`` as the bound code multiplied before it
    blocked rows: one matrix-vector product per row, and one product per
    box of ``compute_bounds``' identity (``block`` = d), which did not
    change.  Patched in, it gives that code's bounds bit for bit."""
    if block != _ROW_BLOCK:
        return A @ W
    rows = A.reshape(-1, 1, A.shape[-1])
    return (rows @ W).reshape(A.shape[:-1] + W.shape[1:])


def manual_layer(weight, bias) -> AffineLayer:
    return AffineLayer(np.asarray(weight, dtype=float), np.asarray(bias, dtype=float))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def mask_forward(net: Network, X: np.ndarray, neuron_ids) -> np.ndarray:
    """Reference evaluation with the given neurons' post-activations forced
    to zero (explicit activation pruning); used to cross-check graft-zero."""
    offs = net.layer_offsets()
    masks = [np.ones(d, dtype=bool) for d in net.hidden_sizes]
    for nid in neuron_ids:
        h, j = net.neuron_location(int(nid))
        masks[h][j] = False
    a = np.asarray(X, dtype=np.float64)
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        z = a @ layer.weight.T + layer.bias
        if i < last:
            g = net.grafted[i]
            post = np.maximum(z, 0.0)
            if g.any():
                lin = net.slopes[i] * z + net.intercepts[i]
                post = np.where(g, lin, post)
            a = post * masks[i]
        else:
            return z
    return z

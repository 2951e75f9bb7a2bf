"""Dense feed-forward networks with per-neuron ReLU or grafted-linear activations.

A network is a chain of affine layers.  Every *hidden* neuron (all neurons
except the output layer) carries its own activation: either ReLU or a
grafted linear function ``a * z + b`` with trainable slope and intercept.
Hidden neurons are addressed by a single flat id space, layer by layer.

All arithmetic is 64-bit floating point.  Evaluation is deterministic:
identical inputs produce bitwise-identical outputs.  Networks are treated
as immutable during evaluation; training code works on private copies.

Every gradient (parameters, input, hidden post-activations) comes from
one reverse-mode chain, ``_reverse``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import DomainError, FormatError, StructuralError, UsageError

__all__ = [
    "ReLU",
    "GraftedLinear",
    "ActivationKind",
    "AffineLayer",
    "Network",
    "GradientBundle",
    "forward",
    "forward_batch",
    "backward",
    "backward_batch",
    "input_grad_batch",
    "apply_graft",
    "make_mlp",
    "save_checkpoint",
    "load_checkpoint",
    "network_to_dict",
    "network_from_dict",
]


@dataclass(frozen=True)
class ReLU:
    """max(0, z); the derivative at exactly 0 is defined as 0."""


@dataclass(frozen=True)
class GraftedLinear:
    """A linear activation ``slope * z + intercept`` grafted onto a neuron."""

    slope: float
    intercept: float


ActivationKind = Union[ReLU, GraftedLinear]


class AffineLayer:
    """One affine map ``z = W @ a + b`` with ``W`` of shape (out, in)."""

    __slots__ = ("weight", "bias")

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim != 2 or bias.ndim != 1 or weight.shape[0] != bias.shape[0]:
            raise StructuralError(
                f"affine layer needs weight (out, in) and bias (out,); "
                f"got {weight.shape} and {bias.shape}"
            )
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise DomainError("affine layer parameters must be finite")
        self.weight = weight
        self.bias = bias

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    def copy(self) -> "AffineLayer":
        return AffineLayer(self.weight.copy(), self.bias.copy())


class Network:
    """An MLP: affine layers plus per-hidden-neuron activation state.

    The activation state is stored as per-hidden-layer arrays
    (``grafted`` mask, ``slopes``, ``intercepts``); entries of
    ``slopes``/``intercepts`` at non-grafted positions are ignored.
    """

    __slots__ = ("layers", "grafted", "slopes", "intercepts", "_hidden_sizes", "_offsets")

    def __init__(
        self,
        layers: Sequence[AffineLayer],
        grafted: Sequence[np.ndarray] | None = None,
        slopes: Sequence[np.ndarray] | None = None,
        intercepts: Sequence[np.ndarray] | None = None,
    ):
        if not layers:
            raise StructuralError("network needs at least one affine layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise StructuralError(
                    f"layer widths do not chain: {a.out_dim} -> {b.in_dim}"
                )
        self.layers = tuple(layers)
        # layer shapes never change after construction
        hidden = tuple(l.out_dim for l in layers[:-1])
        self._hidden_sizes = hidden
        self._offsets = tuple(sum(hidden[:h]) for h in range(len(hidden)))
        if grafted is None:
            grafted = [np.zeros(d, dtype=bool) for d in hidden]
        if slopes is None:
            slopes = [np.zeros(d) for d in hidden]
        if intercepts is None:
            intercepts = [np.zeros(d) for d in hidden]
        if not (len(grafted) == len(slopes) == len(intercepts) == len(hidden)):
            raise StructuralError("activation state must cover every hidden layer")
        self.grafted = tuple(np.asarray(g, dtype=bool) for g in grafted)
        self.slopes = tuple(np.asarray(s, dtype=np.float64) for s in slopes)
        self.intercepts = tuple(np.asarray(c, dtype=np.float64) for c in intercepts)
        for d, g, s, c in zip(hidden, self.grafted, self.slopes, self.intercepts):
            if g.shape != (d,) or s.shape != (d,) or c.shape != (d,):
                raise StructuralError("activation arrays must match layer widths")
            if not (np.isfinite(s[g]).all() and np.isfinite(c[g]).all()):
                raise DomainError("grafted slopes and intercepts must be finite")

    # -- shape helpers -------------------------------------------------

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return self._hidden_sizes

    @property
    def num_hidden(self) -> int:
        return sum(self.hidden_sizes)

    def layer_offsets(self) -> tuple[int, ...]:
        """Flat-id offset of each hidden layer's first neuron."""
        return self._offsets

    def neuron_location(self, neuron_id: int) -> tuple[int, int]:
        """Map a flat hidden-neuron id to (hidden layer index, offset)."""
        if not 0 <= neuron_id < self.num_hidden:
            raise UsageError(f"neuron id {neuron_id} out of range")
        for h, (off, d) in enumerate(zip(self._offsets, self._hidden_sizes)):
            if neuron_id < off + d:
                return h, neuron_id - off
        raise UsageError(f"neuron id {neuron_id} out of range")  # pragma: no cover

    def activation(self, neuron_id: int) -> ActivationKind:
        h, j = self.neuron_location(neuron_id)
        if self.grafted[h][j]:
            return GraftedLinear(float(self.slopes[h][j]), float(self.intercepts[h][j]))
        return ReLU()

    def grafted_flat(self) -> np.ndarray:
        """Boolean mask over flat hidden-neuron ids: True where grafted."""
        if not self.grafted:
            return np.zeros(0, dtype=bool)
        return np.concatenate(self.grafted)

    def copy(self) -> "Network":
        return Network(
            [l.copy() for l in self.layers],
            [g.copy() for g in self.grafted],
            [s.copy() for s in self.slopes],
            [c.copy() for c in self.intercepts],
        )


@dataclass
class GradientBundle:
    """Reverse-mode derivatives mirroring the network's parameter layout.

    ``postact_grads`` holds, per hidden layer, the gradient of the loss with
    respect to each neuron's post-activation value.
    """

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    slope_grads: list[np.ndarray]
    intercept_grads: list[np.ndarray]
    input_grad: np.ndarray
    postact_grads: list[np.ndarray]


# ---------------------------------------------------------------------------
# forward / backward


def _apply_activation(net: Network, h: int, z: np.ndarray) -> np.ndarray:
    g = net.grafted[h]
    out = np.maximum(z, 0.0)
    if g.any():
        lin = net.slopes[h] * z + net.intercepts[h]
        out = np.where(g, lin, out)
    return out


def _activation_slopes(net: Network, h: int, z: np.ndarray) -> np.ndarray:
    """The derivative of hidden layer ``h``'s activations at the
    pre-activations ``z``: 1 or 0 for a ReLU (its subgradient at 0 is 0,
    hence the strict comparison), the slope for a grafted neuron.  A
    gradient on the post-activations times it is the gradient on ``z``."""
    mask = net.grafted[h]
    if mask.any():
        return np.where(mask, net.slopes[h], z > 0.0)
    return z > 0.0


def forward_batch(
    net: Network, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Evaluate a batch ``x`` of shape (n, input_dim), or a stack of
    batches (E, n, input_dim).

    Returns (logits, preacts, postacts) where preacts[i] is the batch of
    pre-activations of affine layer i and postacts[h] the batch of hidden
    post-activations, each with ``x``'s leading axes.  A stacked product
    runs each batch's own product, so every batch of a stack gets the
    floats of its own 2-D call bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != net.input_dim:
        raise StructuralError(
            f"expected batch of shape (n, {net.input_dim}) or (E, n, {net.input_dim}), "
            f"got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise DomainError("input contains non-finite values")
    preacts: list[np.ndarray] = []
    postacts: list[np.ndarray] = []
    a = x
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        z = a @ layer.weight.T
        z += layer.bias
        preacts.append(z)
        if i < last:
            a = _apply_activation(net, i, z)
            postacts.append(a)
    return preacts[-1], preacts, postacts


def forward(
    net: Network, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Evaluate one input vector; see :func:`forward_batch`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise StructuralError(f"expected a vector, got shape {x.shape}")
    logits, pre, post = forward_batch(net, x[None, :])
    return logits[0], [p[0] for p in pre], [p[0] for p in post]


def _ce_loss_grad(logits: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-example cross-entropy and its gradient on the logits (softmax
    minus one-hot)."""
    rows = np.arange(logits.shape[0])
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    loss = -np.log(p[rows, y] + 1e-12)
    p[rows, y] -= 1.0
    return loss, p


def _reverse(
    net: Network, preacts: list[np.ndarray], loss_grad: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The reverse-mode chain over :func:`forward_batch`'s ``preacts``.  For
    each affine layer i, top first, yields ``(i, g, ga)``: ``g`` is the
    gradient on z_i and ``ga = g @ W_i`` the one on the layer's input.  No
    ``ga`` is written again, and layer i - 1 waits for the next request."""
    g = np.asarray(loss_grad, dtype=np.float64)
    if g.shape != preacts[-1].shape:
        raise StructuralError(
            f"loss_grad shape {g.shape} does not match logits {preacts[-1].shape}"
        )
    for i in range(len(net.layers) - 1, -1, -1):
        ga = g @ net.layers[i].weight
        yield i, g, ga
        if i > 0:
            g = ga * _activation_slopes(net, i - 1, preacts[i - 1])


def backward_batch(
    net: Network,
    x: np.ndarray,
    preacts: list[np.ndarray],
    postacts: list[np.ndarray],
    loss_grad: np.ndarray,
) -> GradientBundle:
    """Reverse-mode pass for a batch, given caches from :func:`forward_batch`.

    ``loss_grad`` has shape (n, output_dim): the per-example gradient of the
    loss on the logits.  Parameter gradients are summed over the batch;
    ``input_grad`` and ``postact_grads`` stay per-example.
    """
    acts = [np.asarray(x, dtype=np.float64), *postacts]
    L = len(net.layers)
    weight_grads: list[np.ndarray] = [None] * L  # type: ignore[list-item]
    bias_grads: list[np.ndarray] = [None] * L  # type: ignore[list-item]
    in_grads: list[np.ndarray] = [None] * L  # type: ignore[list-item]
    slope_grads = [np.zeros_like(s) for s in net.slopes]
    intercept_grads = [np.zeros_like(c) for c in net.intercepts]
    for i, g, ga in _reverse(net, preacts, loss_grad):
        weight_grads[i] = g.T @ acts[i]
        bias_grads[i] = g.sum(axis=0)
        in_grads[i] = ga
        if i > 0 and net.grafted[i - 1].any():
            mask = net.grafted[i - 1]
            slope_grads[i - 1] = np.where(mask, (ga * preacts[i - 1]).sum(axis=0), 0.0)
            intercept_grads[i - 1] = np.where(mask, ga.sum(axis=0), 0.0)
    return GradientBundle(
        weight_grads, bias_grads, slope_grads, intercept_grads, in_grads[0], in_grads[1:]
    )


def input_grad_batch(
    net: Network, preacts: list[np.ndarray], loss_grad: np.ndarray
) -> np.ndarray:
    """Per-example gradient of the loss on the input, shape (n, input_dim)
    (or (E, n, input_dim) for a stack).

    ``preacts`` is the pre-activation cache of :func:`forward_batch` and
    ``loss_grad`` the (n, output_dim) (or stacked) gradient on the logits.
    Bitwise equal to ``backward_batch(...).input_grad`` but builds no
    parameter or post-activation gradients, so it is the pass attacks use.
    """
    for _, _, ga in _reverse(net, preacts, loss_grad):
        pass
    return ga


def backward(net: Network, x: np.ndarray, loss_grad: np.ndarray) -> GradientBundle:
    """Exact reverse-mode derivatives for a single input.

    Covers weights, biases, grafted slopes/intercepts (d/da = z, d/db = 1,
    both scaled by the downstream gradient), the input, and every hidden
    post-activation.
    """
    x = np.asarray(x, dtype=np.float64)[None]
    _, pre, post = forward_batch(net, x)
    bundle = backward_batch(net, x, pre, post, np.asarray(loss_grad)[None])
    bundle.input_grad = bundle.input_grad[0]
    bundle.postact_grads = [p[0] for p in bundle.postact_grads]
    return bundle


# ---------------------------------------------------------------------------
# grafting and construction


def apply_graft(net: Network, plan) -> Network:
    """Return a copy of ``net`` with the plan's neurons switched to
    ``GraftedLinear(plan.init_slope, plan.init_intercept)``.

    Raises UsageError if any target neuron is already grafted.
    """
    out = net.copy()
    for nid in plan.neuron_ids:
        h, j = out.neuron_location(int(nid))
        if out.grafted[h][j]:
            raise UsageError(f"neuron {nid} is already grafted")
        out.grafted[h][j] = True
        out.slopes[h][j] = float(plan.init_slope)
        out.intercepts[h][j] = float(plan.init_intercept)
    return out


def make_mlp(widths: Iterable[int], seed: int = 0, weight_scale: float | None = None) -> Network:
    """Build a ReLU MLP with He-style Gaussian init (biases zero)."""
    widths = [int(w) for w in widths]
    if len(widths) < 2:
        raise UsageError("need at least input and output widths")
    rng = np.random.default_rng(seed)
    layers = []
    for d_in, d_out in zip(widths, widths[1:]):
        scale = weight_scale if weight_scale is not None else np.sqrt(2.0 / d_in)
        layers.append(AffineLayer(rng.normal(0.0, scale, (d_out, d_in)), np.zeros(d_out)))
    return Network(layers)


# ---------------------------------------------------------------------------
# checkpoints: a self-describing JSON document.  Floats survive the
# round-trip exactly because json uses repr (shortest exact form).

_FORMAT = "graftcert-checkpoint-v1"


def network_to_dict(net: Network) -> dict:
    acts = []
    for h in range(len(net.hidden_sizes)):
        for j in range(net.hidden_sizes[h]):
            if net.grafted[h][j]:
                acts.append(
                    {
                        "kind": "linear",
                        "slope": float(net.slopes[h][j]),
                        "intercept": float(net.intercepts[h][j]),
                    }
                )
            else:
                acts.append({"kind": "relu"})
    return {
        "format": _FORMAT,
        "input_dim": net.input_dim,
        "layers": [
            {
                "shape": list(l.weight.shape),
                "weight": l.weight.reshape(-1).tolist(),  # row-major
                "bias": l.bias.tolist(),
            }
            for l in net.layers
        ],
        "activations": acts,
    }


def _field(entry, key: str, where: str):
    """``entry[key]``, or a FormatError naming the missing key and where."""
    if not isinstance(entry, dict) or key not in entry:
        raise FormatError(f"checkpoint {where}has no {key!r} entry")
    return entry[key]


def network_from_dict(doc: dict) -> Network:
    """The network a checkpoint document describes.  A malformed document
    raises FormatError naming the problem: a missing entry, a value of the
    wrong type or size, or an ``input_dim`` its first layer does not have.
    Layers that do not chain, and non-finite values, raise the network's
    own StructuralError or DomainError."""
    if not isinstance(doc, dict):
        raise FormatError(f"checkpoint must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != _FORMAT:
        raise FormatError(f"unknown checkpoint format {doc.get('format')!r}")
    try:
        layers = []
        for i, entry in enumerate(_field(doc, "layers", "")):
            where = f"layer {i} "
            w = np.asarray(_field(entry, "weight", where), dtype=np.float64)
            w = w.reshape(tuple(_field(entry, "shape", where)))
            bias = np.asarray(_field(entry, "bias", where), dtype=np.float64)
            layers.append(AffineLayer(w, bias))
        net = Network(layers)
        acts = _field(doc, "activations", "")
        if len(acts) != net.num_hidden:
            raise FormatError(
                f"activation table has {len(acts)} entries, expected {net.num_hidden}"
            )
        for nid, entry in enumerate(acts):
            h, j = net.neuron_location(nid)
            where = f"activation {nid} "
            kind = _field(entry, "kind", where)
            if kind == "linear":
                net.grafted[h][j] = True
                net.slopes[h][j] = float(_field(entry, "slope", where))
                net.intercepts[h][j] = float(_field(entry, "intercept", where))
            elif kind != "relu":
                raise FormatError(f"unknown activation kind {kind!r}")
    except (TypeError, ValueError) as exc:
        # a value of the wrong type or size: a string weight, a float shape
        raise FormatError(f"checkpoint has a malformed value: {exc}") from exc
    if _field(doc, "input_dim", "") != net.input_dim:
        raise FormatError(
            f"checkpoint input_dim {doc['input_dim']!r} differs from its first layer's "
            f"input width {net.input_dim}"
        )
    # built again, so that the constructor checks the grafted values too
    return Network(net.layers, net.grafted, net.slopes, net.intercepts)


def save_checkpoint(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh)


def load_checkpoint(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))


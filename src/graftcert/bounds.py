"""Incomplete verification primitives: interval and backward linear bounds.

Everything here is a pure function of its inputs and safe to call
concurrently on shared networks.  Bounds are computed in ordinary 64-bit
floating point with no outward rounding, so soundness claims hold modulo
floating-point rounding (see README).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .errors import DomainError, StructuralError, UsageError
from .network import Network

__all__ = [
    "Box",
    "SplitAssignment",
    "LayerBounds",
    "StabilityTally",
    "NeuronStatus",
    "FREE",
    "FORCED_ACTIVE",
    "FORCED_INACTIVE",
    "input_region",
    "ibp",
    "compute_bounds",
    "crown_lower_bound",
    "interval_spec_lower",
    "classify_neurons",
    "tally_stability",
]

FREE = 0
FORCED_ACTIVE = 1
FORCED_INACTIVE = -1


class NeuronStatus(IntEnum):
    STABLE_ACTIVE = 0
    STABLE_INACTIVE = 1
    UNSTABLE = 2
    GRAFTED = 3


@dataclass(frozen=True)
class Box:
    """An axis-aligned input region ``lower <= x <= upper``, or a stack of
    E such regions with ``(E, 1, d)`` bounds (see ``Box.stack``), which
    ``compute_bounds`` and ``_spec_lower`` bound row by row."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or not (lo.ndim == 1 or lo.ndim == 3 and lo.shape[1] == 1):
            raise StructuralError("box bounds must be equal-length vectors, or (E, 1, d) stacks")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise DomainError("box bounds must be finite")
        if np.any(lo > hi):
            raise DomainError("box has lower > upper")

    @classmethod
    def stack(cls, boxes: Sequence["Box"]) -> "Box":
        """The stack of one-region boxes, one row each."""
        return cls(
            np.stack([b.lower for b in boxes])[:, None, :],
            np.stack([b.upper for b in boxes])[:, None, :],
        )

    @property
    def dim(self) -> int:
        return self.lower.shape[-1]

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x: np.ndarray, atol: float = 0.0) -> bool:
        return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


def input_region(
    x0: np.ndarray, eps: float, clip: tuple[float, float] | None = None
) -> Box:
    """The ℓ∞ ball of radius ``eps`` around ``x0``, optionally intersected
    with a [low, high] data range."""
    x0 = np.asarray(x0, dtype=np.float64)
    if not np.isfinite(x0).all():
        raise DomainError("x0 must be finite")
    if eps < 0:
        raise DomainError(f"eps must be >= 0, got {eps}")
    lo = x0 - eps
    hi = x0 + eps
    if clip is not None:
        low, high = clip
        if low > high:
            raise DomainError(f"clip range has low > high: {clip}")
        lo = np.maximum(lo, low)
        hi = np.minimum(hi, high)
    return Box(lo, hi)


class SplitAssignment:
    """Per hidden neuron: Free, ForcedActive or ForcedInactive.

    Stored as one int8 array per hidden layer (0 free, +1 active,
    -1 inactive), or one ``(R, 1, d_h)`` stack per layer holding R
    assignments, one per row (a batch of BaB children).  Grafted neurons
    are linear and never forced.
    """

    __slots__ = ("codes",)

    def __init__(self, codes: Sequence[np.ndarray]):
        self.codes = tuple(np.asarray(c, dtype=np.int8) for c in codes)

    @classmethod
    def free(cls, net: Network) -> "SplitAssignment":
        return cls([np.zeros(d, dtype=np.int8) for d in net.hidden_sizes])

    def force(self, net: Network, neuron_id: int, direction: int) -> "SplitAssignment":
        """Return a new assignment with one extra forced neuron."""
        if direction not in (FORCED_ACTIVE, FORCED_INACTIVE):
            raise UsageError(f"direction must be +1 or -1, got {direction}")
        h, j = net.neuron_location(neuron_id)
        if net.grafted[h][j]:
            raise UsageError(f"neuron {neuron_id} is grafted and cannot be split")
        if self.codes[h][j] != FREE:
            raise UsageError(f"neuron {neuron_id} is already forced")
        new = [c.copy() for c in self.codes]
        new[h][j] = direction
        return SplitAssignment(new)

    def flat(self) -> np.ndarray:
        """The codes of every hidden neuron (flat ids), joined on the last
        axis, so stacked codes stay stacked."""
        if not self.codes:
            return np.zeros(0, dtype=np.int8)
        return np.concatenate(self.codes, axis=-1)


@dataclass
class LayerBounds:
    """Sound pre-activation bounds per affine layer (output layer included).

    ``feasible`` is False when a forced split contradicts the bounds; such
    a region is empty and any bound over it is vacuous.  ``grafted`` copies
    the network's per-layer graft masks so classification does not need the
    network itself.
    """

    lower: tuple[np.ndarray, ...]
    upper: tuple[np.ndarray, ...]
    grafted: tuple[np.ndarray, ...]
    feasible: bool = True


@dataclass
class StabilityTally:
    """Per-neuron stability counts over a dataset (flat hidden-neuron ids).

    For ReLU neurons the three counters sum to ``n_examples``; grafted
    neurons keep all-zero tallies.
    """

    times_unstable: np.ndarray
    times_active: np.ndarray
    times_inactive: np.ndarray
    n_examples: int


# ---------------------------------------------------------------------------
# interval propagation


def _graft_interval(slope, intercept, lo, hi):
    a_lo = slope * lo + intercept
    a_hi = slope * hi + intercept
    return np.minimum(a_lo, a_hi), np.maximum(a_lo, a_hi)


def ibp(net: Network, box: Box, split: SplitAssignment | None = None) -> LayerBounds:
    """Interval bound propagation with optional per-neuron split constraints.

    Affine layers use the weight-sign split; ReLU clamps at zero; grafted
    neurons map the interval through their line.  Forced neurons intersect
    the recorded pre-activation interval with their half-line and propagate
    the forced linear form.  An empty intersection flags the result
    infeasible instead of raising.
    """
    if box.dim != net.input_dim:
        raise StructuralError(
            f"box dim {box.dim} does not match network input {net.input_dim}"
        )
    split = SplitAssignment.free(net) if split is None else split
    return _ibp_boxes(net, box.lower, box.upper, split)


def _ibp_boxes(net: Network, lo: np.ndarray, hi: np.ndarray, split: SplitAssignment):
    """IBP of one box, or of one box per row of ``(n, d)`` arrays, with the
    weights sign-split once.  The row products ``lo @ W.T`` serve both
    shapes; on one box they equal the column products ``W @ lo`` bit for bit."""
    signed = _sign_split(net.layers)
    wp, wn = signed[0]
    bias = net.layers[0].bias
    zl = lo @ wp.T + hi @ wn.T + bias
    zu = hi @ wp.T + lo @ wn.T + bias
    return _ibp_from(net, signed, split, 0, zl, zu, (), ())


def _sign_split(layers: Sequence) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per affine layer, ``(max(W, 0), min(W, 0))``.

    Worth computing once per verification call and passing to
    ``_ibp_from``; it is not cached on the network because callers may
    change its weights in place between calls.
    """
    return tuple((np.maximum(l.weight, 0.0), np.minimum(l.weight, 0.0)) for l in layers)


def _ibp_from(
    net: Network,
    signed,
    split: SplitAssignment,
    start: int,
    zl: np.ndarray,
    zu: np.ndarray,
    lowers_below,
    uppers_below,
) -> LayerBounds:
    """The IBP layer loop from affine layer ``start`` on.

    ``[zl, zu]`` is layer ``start``'s pre-activation interval (or a batch
    of them) before the split's clamps at that layer; ``lowers_below``/
    ``uppers_below`` are the layers under it, returned as they are.
    ``feasible`` reflects only the clamps from ``start`` on, one flag per
    row for a batch.
    """
    lowers = list(lowers_below)
    uppers = list(uppers_below)
    feasible = True
    last = len(net.layers) - 1
    for i in range(start, last + 1):
        if i > start:
            wp, wn = signed[i]
            bias = net.layers[i].bias
            zl = lo @ wp.T + hi @ wn.T + bias
            zu = hi @ wp.T + lo @ wn.T + bias
        if i < last:
            zl, zu, ok = _clamp_split(split.codes[i], zl, zu)
            feasible = feasible & ok
            g = net.grafted[i]
            lo = np.maximum(zl, 0.0)
            hi = np.maximum(zu, 0.0)
            if g.any():
                g_lo, g_hi = _graft_interval(net.slopes[i], net.intercepts[i], zl, zu)
                lo = np.where(g, g_lo, lo)
                hi = np.where(g, g_hi, hi)
        lowers.append(zl)
        uppers.append(zu)
    return LayerBounds(tuple(lowers), tuple(uppers), net.grafted, _flag(feasible))


def _flag(ok):
    """A feasibility flag: ``bool`` for one region, a bool array per row."""
    return bool(ok) if np.ndim(ok) == 0 else ok


def _clamp_split(code: np.ndarray, zl: np.ndarray, zu: np.ndarray):
    """``(zl, zu, feasible)`` with each forced neuron's interval cut to its
    half-line; an empty cut means an empty region, whose row is repaired to
    ``zl = zu``.  ``feasible`` has one flag per row (a 0-d one for 1-D
    bounds)."""
    if not code.any():
        return zl, zu, True
    zu = np.where(code == FORCED_INACTIVE, np.minimum(zu, 0.0), zu)
    zl = np.where(code == FORCED_ACTIVE, np.maximum(zl, 0.0), zl)
    empty = np.any(zl > zu, axis=-1, keepdims=True)
    if empty.any():
        zl = np.where(empty, np.minimum(zl, zu), zl)
    return zl, zu, ~empty[..., 0]


# ---------------------------------------------------------------------------
# backward (CROWN-style) bound propagation


def _relaxation_lines(net: Network, inter: LayerBounds, split: SplitAssignment, hidden=None):
    """Per hidden layer: (slope, lower_icpt, upper_icpt).

    Stable-active neurons keep the identity line, stable-inactive the zero
    line, unstable ReLUs the secant upper line and a lower line through the
    origin with the same slope u/(u-l).  Grafted neurons use their exact
    line on both sides; forced neurons their forced linear form.  The
    degenerate interval l = u = 0 counts as stable-inactive.  A neuron's
    lower and upper lines always share one slope.  Each layer listed in
    ``hidden`` (default: all) is built from its own bounds and codes; a
    neuron's lines depend on its own bounds only, so any grouping of the
    layers gives the same floats.  Bounds and codes with a leading row
    axis give lines with that axis.
    """
    lines = []
    for h in range(len(net.hidden_sizes)) if hidden is None else hidden:
        l, u, code = inter.lower[h], inter.upper[h], split.codes[h]
        inactive = (u <= 0.0) | (code == FORCED_INACTIVE)
        active = ((l >= 0.0) | (code == FORCED_ACTIVE)) & ~inactive
        unstable = ~(inactive | active)
        d = np.where(unstable, u - l, 1.0)
        slope = np.where(unstable, u / d, np.where(active, 1.0, 0.0))
        li = np.zeros_like(l)
        ui = np.where(unstable, -u * l / d, 0.0)
        g = net.grafted[h]
        if g.any():
            slope = np.where(g, net.slopes[h], slope)
            li = np.where(g, net.intercepts[h], li)
            ui = np.where(g, net.intercepts[h], ui)
        lines.append((slope, li, ui))
    return lines


class _LazyLines:
    """``_relaxation_lines``, each layer's built as ``_backward`` reaches it."""

    def __init__(self, *args):
        self.args = args

    def __getitem__(self, h):
        return _relaxation_lines(*self.args, [h])[0]


def _backward(
    net: Network,
    lines,
    box: Box,
    C: np.ndarray,
    c0: np.ndarray,
    start: int,
    both: bool = False,
):
    """Sound lower bounds of the linear functionals ``C @ z^(start) + c0``:
    propagate them back to the input, each neuron's coefficient taking its
    lower line where positive and its upper line elsewhere, and concretize
    over the box.  Returns the bounds, shaped like ``c0``, and the input
    coefficients ``A``, whose signs pick each bound's box corner; where
    every lower line is its upper line, the bound is exact there.

    With ``both``, the bounds are a pair: those of ``C``, ``c0`` and those
    of ``-C``, ``-c0``, from one chain of products.  An upper bound is
    minus the lower bound of ``-C`` (``compute_bounds`` takes 0 minus it,
    so a zero stays +0.0).  The ``-C`` chain is the ``C`` chain negated:
    negation commutes with every product and sum, and a coefficient of
    ``-A`` is positive where ``A``'s is negative, so its constant subtracts
    each of the ``C`` chain's shifts and maxima (``_box_sums``).  Its
    floats are those of a separate pass on ``-C``, ``-c0`` up to the sign
    of an exact zero (a zero coefficient picks the other intercept, and a
    product's zero sum can come out +0.0 on both chains), which 0 minus it
    erases.

    ``C`` is ``(m, d)`` with 1-D lines, or a stack ``(R, 1, d)`` with lines
    shaped ``(R, 1, d_h)``: one row per domain.  A stacked product runs
    each row's one-row product, and every sum runs over the last axis, so
    each row gets the one-row floats bit for bit (a plain ``(R, d)``
    product would sum in another order).
    """
    A = np.asarray(C, dtype=np.float64)
    const = np.asarray(c0, dtype=np.float64)
    neg = -const if both else None
    for i in range(start, -1, -1):
        layer = net.layers[i]
        shift = A @ layer.bias
        const = const + shift
        A = A @ layer.weight
        if both:
            neg = neg - shift
        if i > 0:
            slope, li, ui = lines[i - 1]
            low, high = _box_sums(li, ui, A, both)
            const = low + const
            if both:
                neg = neg - high
            A *= slope
    low, high = _box_sums(box.lower, box.upper, A, both)
    if both:
        return (low + const, neg - high), A
    return low + const, A


def interval_spec_lower(inter: LayerBounds, coeffs: np.ndarray, const: float = 0.0) -> float:
    """Lower bound of a linear functional on the logits, concretized on the
    final-layer interval bounds."""
    c = np.asarray(coeffs, dtype=np.float64)
    return float(_interval_lower(inter.lower[-1], inter.upper[-1], c, const))


def _interval_lower(lo, hi, c, const):
    return _box_sums(lo, hi, c)[0] + const


def _corner(lo, hi, pick_lo):
    """``np.where(pick_lo, lo, hi)`` bit for bit, as a fresh array."""
    # a branch-free select of the bits, hi ^ ((lo ^ hi) * pick_lo): np.where
    # branches per element where it broadcasts, and that branch mispredicts
    # on a near-random sign mask, as BaB's rows and the rows of the identity
    # that compute_bounds back-substitutes have.  C order, as np.where gives:
    # a sum over the last axis adds in memory order, and a broadcast
    # operand's strides could set another
    lo_bits, hi_bits = lo.view(np.int64), hi.view(np.int64)
    t = np.multiply(lo_bits ^ hi_bits, pick_lo, order="C")
    t ^= hi_bits
    return t.view(np.float64)


def _box_sums(lo, hi, c, both=False):
    """Per row (the last axis), the minimum of ``c @ x`` over the box
    ``lo <= x <= hi``, the sum of ``c * where(c > 0, lo, hi)``, and with
    ``both`` the maximum, the sum of ``c * where(c > 0, hi, lo)`` (else
    None).  Box or line intercepts: ``_backward`` concretizes over both."""
    pick_lo = c > 0.0
    low = _corner_sum(lo, hi, pick_lo, c)
    return low, (_corner_sum(hi, lo, pick_lo, c) if both else None)


def _corner_sum(lo, hi, pick_lo, c):
    # the corner is picked first and multiplied in place, and gone before
    # the other side's is picked: one temporary at a time; each element is
    # still the product c * lo or c * hi
    t = _corner(lo, hi, pick_lo)
    return np.multiply(t, c, out=t).sum(axis=-1)


def crown_lower_bound(
    net: Network,
    box: Box,
    split: SplitAssignment | None,
    inter: LayerBounds,
    coeffs: np.ndarray,
    const: float = 0.0,
) -> float:
    """Sound lower bound of ``coeffs @ logits + const`` over the
    (split-restricted) box.

    Runs backward substitution through per-neuron relaxation lines and
    takes the better of that and the plain interval bound, so the result
    never falls below the interval baseline.  Infeasible regions give +inf
    (vacuously verified).
    """
    if not inter.feasible:
        return float("inf")
    if split is None:
        split = SplitAssignment.free(net)
    c = np.asarray(coeffs, dtype=np.float64)
    if c.shape != (net.output_dim,):
        raise StructuralError(
            f"spec coefficients must have shape ({net.output_dim},), got {c.shape}"
        )
    return float(_spec_lower(net, box, split, inter, c, const)[0])


def _spec_lower(net, box, split, inter, c, const):
    """The CROWN lower bound of ``c @ logits + const``, floored by the
    interval bound: shape (1,) for one region's 1-D bounds, (R, 1) for a
    stack of ``(R, 1, d)`` bounds with per-row codes, or per-row boxes
    (``Box.stack``), specs ``c`` (R, 1, K) and constants ``const`` (R, 1)."""
    # built per layer as the pass goes, so it holds one layer's lines
    lines = _LazyLines(net, inter, split)
    lo, hi = inter.lower[-1], inter.upper[-1]
    lead = lo.shape[:-1] or (1,)
    C = np.broadcast_to(c, lead + c.shape[-1:])
    vals, _ = _backward(net, lines, box, C, np.full(lead, const), len(net.layers) - 1)
    floor = _interval_lower(lo, hi, c, const)
    # max(vals, floor) that keeps vals on a tie, as Python's max does
    return np.where(floor > vals, floor, vals)


def _bound_children(net, signed, box, inter, raw, split, starts, coeffs, const):
    """Bounds of a batch of BaB children in one pass, one child per row.

    Row r is the domain with split codes row r of ``split`` (``(R, 1, d_h)``
    per layer), which forces one more neuron of hidden layer ``starts[r]``
    than its parent.  ``inter`` holds the parents' bounds stacked the same
    way, ``(R, 1, d_i)`` per layer (a parent must be feasible), and ``raw``
    is ``(lower, upper)``, the parents' raw IBP at the lowest split layer
    in the batch, ``first``, ``(R, 1, d_first)``.  The rows' IBP restarts
    there; it is intersected with the parents' bounds and bounded by CROWN,
    floored by the interval bound.  ``signed`` is ``_sign_split`` of the
    weights (layer 0 is never used).

    Returns ``(raw, bounds, lower, branch)``: the children's raw IBP and
    bounds, ``(R, 1, d)`` per layer with a per-row ``(R, 1)`` ``feasible``
    (raw's layers below ``first`` are None, and the bounds' layers below
    ``first`` are ``inter``'s arrays), the lower bounds of ``coeffs @
    logits + const``, +inf where infeasible, and per row the neuron BaB
    splits when it pops that child (``_branch_on`` of its bounds), -1
    where it has no unstable neuron.  The branch is chosen here, while the
    children's bounds are stacked, so that popping a child classifies
    nothing.  From its split layer on, each row holds bit for bit what
    ``ibp``, ``intersect_bounds`` and ``crown_lower_bound`` give that child
    alone: every product is a one-row product (see ``_backward``), and a
    row that splits above ``first`` recomputes its parent's layers up to
    its split layer under its parent's clamps, which the parent's raw IBP
    already took, so they come out as the parent's.  Below its split layer
    a row holds its parent's values.
    """
    first = int(np.min(starts))
    below = (None,) * first
    child_raw = _ibp_from(net, signed, split, first, *raw, below, below)
    child = intersect_bounds(child_raw, inter, start=first)
    lower = _spec_lower(net, box, split, child, coeffs, const)
    lower = np.where(child.feasible, lower, np.inf)[:, 0]
    return child_raw, child, lower, _branch_on(child, split)[:, 0]


def compute_bounds(
    net: Network,
    box: Box,
    split: SplitAssignment | None = None,
    method: str = "ibp",
) -> LayerBounds:
    """Intermediate pre-activation bounds, by plain IBP (default) or with a
    per-layer CROWN refinement pass (``method="crown"``).

    The refinement rewrites each hidden layer's bounds as the tighter of
    the IBP interval and the backward-propagated bound, reusing already
    refined earlier layers, then re-applies any forced-split intersections.
    One back-substitution of a layer's identity ``I`` gives both sides:
    the lower bounds of ``I``, and the upper bounds as 0 minus the lower
    bounds of ``-I``, read off the same chain (see ``_backward``).

    A stack of E boxes (``Box.stack``) gives ``(E, 1, d)`` bounds per layer
    and an (E, 1) ``feasible``.  Each layer's identity ``C`` becomes
    ``(E, d, d)``, so every product runs per box and each row holds the
    floats of its own one-box call bit for bit (see ``_backward``); a row
    whose IBP is already infeasible is refined all the same, and its
    bounds are vacuous either way.
    """
    return _ibp_and_bounds(net, box, split, method)[1]


def _ibp_and_bounds(
    net: Network, box: Box, split: SplitAssignment | None, method: str
) -> tuple[LayerBounds, LayerBounds]:
    """``compute_bounds``' bounds after the box's IBP under ``split``, which
    they refine (the same object for ``method="ibp"``), for callers that
    keep that IBP as well."""
    if method not in ("ibp", "crown"):
        raise UsageError(f"unknown bound method {method!r}")
    base = ibp(net, box, split)
    if method == "ibp" or not np.any(base.feasible):
        return base, base
    if split is None:
        split = SplitAssignment.free(net)
    lowers = [b.copy() for b in base.lower]
    uppers = [b.copy() for b in base.upper]
    stack = box.lower.shape[:-2]
    feasible = np.ones(box.lower.shape[:-1], dtype=bool) & base.feasible
    refined = LayerBounds(tuple(lowers), tuple(uppers), net.grafted, True)
    lines = []
    for i in range(1, len(net.layers)):
        # hidden layer i-1 was refined last step and stays as it is, so
        # only its lines are new
        lines += _relaxation_lines(net, refined, split, [i - 1])
        d = net.layers[i].out_dim
        # [0]: the input coefficients are not needed, so not kept alive.
        # The identity is a broadcast view, never an (E, d, d) array.  0
        # minus the lower bound of -I keeps a zero upper bound +0.0, as a
        # direct upper pass gives it (plain negation gives -0.0)
        lo, neg = _backward(
            net, lines, box, np.broadcast_to(np.eye(d), stack + (d, d)),
            np.zeros(stack + (d,)), i, both=True,
        )[0]
        lo = np.maximum(lo.reshape(lowers[i].shape), lowers[i])
        hi = np.minimum((0.0 - neg).reshape(uppers[i].shape), uppers[i])
        if i < len(net.layers) - 1:
            lo, hi, ok = _clamp_split(split.codes[i], lo, hi)
            feasible = feasible & ok
        # a backward bound can cross the IBP bound by rounding, forced or not
        crossed = np.any(lo > hi, axis=-1)
        if crossed.any():
            feasible = feasible & ~crossed
            lo = np.minimum(lo, hi)
        lowers[i] = lo
        uppers[i] = hi
        refined = LayerBounds(tuple(lowers), tuple(uppers), net.grafted, _flag(feasible))
    return base, refined


def intersect_bounds(a: LayerBounds, b: LayerBounds, start: int = 0) -> LayerBounds:
    """Elementwise intersection of two sound bound sets for nested regions.

    Layers below ``start`` are taken from ``b`` as they are, for callers
    that know ``b`` lies inside ``a`` there (a BaB child's IBP equals its
    parent's below the split layer, and the parent's bounds are already
    intersected with it).  Bounds with a leading row axis and per-row
    ``feasible`` flags are intersected row by row.
    """
    lowers = b.lower[:start] + tuple(
        np.maximum(x, y) for x, y in zip(a.lower[start:], b.lower[start:])
    )
    uppers = b.upper[:start] + tuple(
        np.minimum(x, y) for x, y in zip(a.upper[start:], b.upper[start:])
    )
    feasible = np.logical_and(a.feasible, b.feasible)
    crossed = np.logical_or.reduce(
        [np.any(l > u, axis=-1, keepdims=True) for l, u in zip(lowers, uppers)]
    )
    repair = feasible[..., None] & crossed
    if repair.any():
        feasible = feasible & ~crossed[..., 0]
        lowers = tuple(np.where(repair, np.minimum(l, u), l) for l, u in zip(lowers, uppers))
    return LayerBounds(lowers, uppers, a.grafted, _flag(feasible))


# ---------------------------------------------------------------------------
# neuron classification and stability tallies


def classify_neurons(inter: LayerBounds, split: SplitAssignment) -> np.ndarray:
    """Status of every hidden neuron (flat ids) under the given bounds.

    Forced neurons adopt their forced stable status regardless of the
    interval; free ReLUs classify by sign of [l, u] with the degenerate
    l = u = 0 interval counting as stable-inactive.  Bounds with a leading
    batch axis, ``(n, d_i)`` per layer, give one row per box; stacked
    ``(R, 1, d_i)`` bounds may come with per-row ``(R, 1, d_i)`` codes, as
    a BaB child batch has them.  The statuses come from two masks, active
    and inactive, and one scatter for the grafted neurons.
    """
    return _classify(inter, split)[0]


def _classify(inter: LayerBounds, split: SplitAssignment):
    """``classify_neurons`` of ``inter``, with the hidden bounds it joined
    (every hidden neuron on the last axis): ``(status, l, u)``."""
    if not inter.grafted:
        empty = np.zeros(inter.lower[0].shape[:-1] + (0,))
        return empty.astype(np.int8), empty, empty
    l = np.concatenate(inter.lower[:-1], axis=-1)
    u = np.concatenate(inter.upper[:-1], axis=-1)
    code = split.flat()
    forced_active = code == FORCED_ACTIVE
    inactive = (code == FORCED_INACTIVE) | ((u <= 0.0) & ~forced_active)
    active = (forced_active | (l >= 0.0)) & ~inactive
    # UNSTABLE (2), less 2 where active (STABLE_ACTIVE, 0) and less 1 where
    # inactive (STABLE_INACTIVE, 1); the int8 views keep the sum int8
    status = int(NeuronStatus.UNSTABLE) - 2 * active.view(np.int8) - inactive.view(np.int8)
    status[..., np.concatenate(inter.grafted)] = NeuronStatus.GRAFTED
    return status, l, u


def _branch_on(inter: LayerBounds, split: SplitAssignment) -> np.ndarray:
    """Per row of ``inter``, the neuron BaB splits: the unstable neuron
    with the largest relaxation-area proxy |l*u| / (u - l), ties broken
    toward the lowest id; -1 where a row has no unstable neuron (a linear
    leaf).  1-D bounds give a 0-d array."""
    status, l, u = _classify(inter, split)
    unstable = status == NeuronStatus.UNSTABLE
    if not unstable.any():
        return np.full(status.shape[:-1], -1)
    score = np.where(unstable, np.abs(l * u) / np.where(unstable, u - l, 1.0), -np.inf)
    return np.where(unstable.any(axis=-1), np.argmax(score, axis=-1), -1)


def tally_stability(
    net: Network,
    features: np.ndarray,
    eps: float,
    clip: tuple[float, float] | None = None,
    batch_size: int = 512,
) -> StabilityTally:
    """Count, per hidden neuron, on how many examples it is unstable,
    stably active, or stably inactive under the eps-ball of each example.

    Grafted neurons keep all-zero tallies.
    """
    X = np.asarray(getattr(features, "features", features), dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise UsageError("tally_stability needs a non-empty (n, d) array")
    if eps < 0:
        raise DomainError("eps must be >= 0")
    n = X.shape[0]
    free = SplitAssignment.free(net)
    order = (NeuronStatus.UNSTABLE, NeuronStatus.STABLE_ACTIVE, NeuronStatus.STABLE_INACTIVE)
    counts = np.zeros((len(order), net.num_hidden), dtype=np.int64)
    for s in range(0, n, batch_size):
        xb = X[s : s + batch_size]
        lo = xb - eps
        hi = xb + eps
        if clip is not None:
            lo = np.maximum(lo, clip[0])
            hi = np.minimum(hi, clip[1])
        status = classify_neurons(_ibp_boxes(net, lo, hi, free), free)
        for count, k in zip(counts, order):
            count += (status == k).sum(axis=0)
    return StabilityTally(*counts, n)

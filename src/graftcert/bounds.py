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

# examples per batched IBP in tally_stability
_TALLY_BATCH = 512
# rows per matrix product: see _rows_matmul
_ROW_BLOCK = 4


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
    if clip is not None and clip[0] > clip[1]:
        raise DomainError(f"clip range has low > high: {clip}")
    return Box(*_eps_ball(x0, eps, clip))


def _eps_ball(x, eps, clip):
    """``(x - eps, x + eps)``, each clipped to ``clip`` when given; rows of
    ``x`` give rows of bounds.  No checks: see ``input_region``."""
    lo = x - eps
    hi = x + eps
    if clip is not None:
        lo = np.maximum(lo, clip[0])
        hi = np.minimum(hi, clip[1])
    return lo, hi


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

    A split that contradicts the bounds leaves them crossed (a lower bound
    above its upper bound): the region is empty, its bounds vacuous.
    ``grafted`` copies the network's per-layer graft masks so
    classification does not need the network itself.
    """

    lower: tuple[np.ndarray, ...]
    upper: tuple[np.ndarray, ...]
    grafted: tuple[np.ndarray, ...]

    @property
    def feasible(self):
        """False where the bounds cross (the region is empty): a ``bool`` for
        1-D bounds, ``(R, 1)`` for ``(R, 1, d)`` stacks.  The bound code's
        one test of emptiness."""
        crossed = np.logical_or.reduce(
            [np.any(l > u, axis=-1) for l, u in zip(self.lower, self.upper)]
        )
        return not crossed if np.ndim(crossed) == 0 else ~crossed


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
# matrix products


def _rows_matmul(A: np.ndarray, W: np.ndarray, block: int = _ROW_BLOCK) -> np.ndarray:
    """``A @ W`` for the rows of ``A`` (vectors on its last axis, any
    leading shape) and a matrix or vector ``W``, as one product per block
    of exactly ``block`` rows, the last block padded with zero rows.

    Every product of this module runs here.  A product of a fixed shape
    computes each row the same way whatever its position in the block and
    whatever the other rows hold, so a row's floats depend on that row
    alone: a lone row (a one-box call) and the same row in a batch of BaB
    children come out equal bit for bit.  One product of all R rows would
    not keep this, since a BLAS sums a row in another order as R changes,
    and a one-row product runs another kernel (a matrix-vector one).
    ``tests/test_bounds.py::TestRowsMatmul`` checks the property on the
    host BLAS.

    ``compute_bounds`` passes ``block`` = d for the (d, d) identity it
    back-substitutes: one product per box, a fixed shape too.  In blocks
    of 4 its refinement of one 784-wide box ran about 8% slower (5.1 ->
    5.5 ms, best of 60, a random ``[784, 128, 128, 128, 10]`` net,
    OpenBLAS at one thread), since each block reads all of ``W`` again
    for its 4 rows."""
    k = A.shape[-1]
    rows = A.reshape(-1, k)
    n = len(rows)
    pad = -n % block
    if pad:
        rows = np.concatenate([rows, np.zeros((pad, k))])
    out = rows.reshape(-1, block, k) @ W
    return out.reshape((-1,) + W.shape[1:])[:n].reshape(A.shape[:-1] + W.shape[1:])


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
    the forced linear form.  A split that contradicts the bounds leaves
    them crossed (an empty region) instead of raising.
    """
    if box.dim != net.input_dim:
        raise StructuralError(
            f"box dim {box.dim} does not match network input {net.input_dim}"
        )
    split = SplitAssignment.free(net) if split is None else split
    return _ibp_boxes(net, box.lower, box.upper, split)


def _ibp_boxes(net: Network, lo: np.ndarray, hi: np.ndarray, split: SplitAssignment):
    """IBP of one box, or of one box per row of ``(n, d)`` arrays, with the
    weights sign-split once.  Every product is one of fixed row blocks
    (``_rows_matmul``), so each row holds its own box's floats bit for
    bit."""
    signed = _sign_split(net.layers)
    zl, zu = _affine_interval(signed[0], net.layers[0].bias, lo, hi)
    return _ibp_from(net, signed, split, 0, zl, zu)


def _affine_interval(signed, bias, lo, hi):
    """The interval ``[zl, zu]`` of ``W @ x + bias`` over the boxes ``lo <=
    x <= hi`` (rows on the last axis), from ``signed``, ``W`` sign-split:
    ``zl = lo @ max(W, 0).T + hi @ min(W, 0).T + bias`` and ``zu`` the
    same with ``lo`` and ``hi`` swapped.  ``lo`` and ``hi`` go in as rows
    of one product per weight sign."""
    wp, wn = signed
    x = np.stack((lo, hi))
    pos = _rows_matmul(x, wp.T)
    neg = _rows_matmul(x, wn.T)
    return pos[0] + neg[1] + bias, pos[1] + neg[0] + bias


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
    parent: LayerBounds | None = None,
    starts=None,
) -> LayerBounds:
    """The IBP layer loop from affine layer ``start`` on.

    ``[zl, zu]`` is layer ``start``'s pre-activation interval (or a batch
    of them) before the split's clamps at that layer; the layers under it
    are None.  With ``parent``, stacked bounds of the batch's rows, and
    ``starts``, a layer per row, row r takes its ``parent`` interval in
    place of the propagated one at every layer up to ``starts[r]``, and so
    restarts there.  A clamp that empties a row leaves it crossed.
    """
    lowers = [None] * start
    uppers = [None] * start
    last = len(net.layers) - 1
    for i in range(start, last + 1):
        if i > start:
            zl, zu = _affine_interval(signed[i], net.layers[i].bias, lo, hi)
            if parent is not None:
                held = (np.asarray(starts) >= i)[:, None, None]
                if held.any():
                    zl = np.where(held, parent.lower[i], zl)
                    zu = np.where(held, parent.upper[i], zu)
        if i < last:
            zl, zu = _clamp_split(split.codes[i], zl, zu)
            g = net.grafted[i]
            lo = np.maximum(zl, 0.0)
            hi = np.maximum(zu, 0.0)
            if g.any():
                g_lo, g_hi = _graft_interval(net.slopes[i], net.intercepts[i], zl, zu)
                lo = np.where(g, g_lo, lo)
                hi = np.where(g, g_hi, hi)
        lowers.append(zl)
        uppers.append(zu)
    return LayerBounds(tuple(lowers), tuple(uppers), net.grafted)


def _clamp_split(code: np.ndarray, zl: np.ndarray, zu: np.ndarray):
    """``(zl, zu)`` with each forced neuron's interval cut to its
    half-line.  A cut that contradicts the interval (a stably active
    neuron forced inactive, or the reverse) leaves it crossed, ``zl >
    zu``: the region is empty, and its bounds are vacuous."""
    if not code.any():
        return zl, zu
    zu = np.where(code == FORCED_INACTIVE, np.minimum(zu, 0.0), zu)
    zl = np.where(code == FORCED_ACTIVE, np.maximum(zl, 0.0), zl)
    return zl, zu


# ---------------------------------------------------------------------------
# backward (CROWN-style) bound propagation


def _relaxation_lines(net: Network, inter: LayerBounds, split: SplitAssignment, h: int):
    """Hidden layer h's ``(slope, li, ui, unstable)``: its relaxation
    lines and its unstable ReLUs.

    Stable-active neurons keep the identity line, stable-inactive the zero
    line, unstable ReLUs the secant upper line and a lower line through the
    origin with the same slope u/(u-l).  Grafted neurons use their exact
    line on both sides; forced neurons their forced linear form.  The
    degenerate interval l = u = 0 counts as stable-inactive.  A neuron's
    lower and upper lines always share one slope, and depend on its own
    bounds only.  ``unstable`` marks the free, ungrafted ReLUs whose
    interval straddles zero: only there is the secant computed, gathered
    by one ``flatnonzero``, and there ``ui`` = -u*l/(u-l) is BaB's branch
    score (``_branch_on``).  Bounds and codes with a leading row axis give
    ``slope``, ``ui`` and ``unstable`` with that axis; ``li``, 0 or the
    graft intercept, is one ``(d_h,)`` vector.  No other function of the
    module evaluates the relaxation rule: the others read these lines.
    """
    l, u, code = inter.lower[h], inter.upper[h], split.codes[h]
    g = net.grafted[h]
    li = np.where(g, net.intercepts[h], 0.0)
    # a grafted neuron counts as inactive here, then takes its own line;
    # on booleans a > b is a & ~b
    inactive = (u <= 0.0) | (code == FORCED_INACTIVE) | g
    active = ((l >= 0.0) | (code == FORCED_ACTIVE)) > inactive
    unstable = ~(inactive | active)
    slope = np.where(active, 1.0, np.where(g, net.slopes[h], 0.0))
    ui = np.empty(unstable.shape)
    ui[...] = li
    idx = np.flatnonzero(unstable)
    if idx.size:
        if l.shape != unstable.shape:
            l, u = np.broadcast_to(l, unstable.shape), np.broadcast_to(u, unstable.shape)
        lu, uu = l.take(idx), u.take(idx)
        d = uu - lu
        slope.reshape(-1)[idx] = uu / d
        ui.reshape(-1)[idx] = -uu * lu / d
    return slope, li, ui, unstable


def _domain_lines(net: Network, inter: LayerBounds, split: SplitAssignment) -> list:
    """``_relaxation_lines`` of every hidden layer: a domain's lines, built
    once and read by its back-substitution (``_backward``) and its branch
    choice (``_branch_on``)."""
    return [_relaxation_lines(net, inter, split, h) for h in range(len(net.hidden_sizes))]


def _backward(
    net: Network,
    lines: Sequence,
    box: Box,
    C: np.ndarray,
    c0: np.ndarray,
    start: int,
    both: bool = False,
    block: int = _ROW_BLOCK,
):
    """Sound lower bounds of the linear functionals ``C @ z^(start) + c0``:
    propagate them back to the input, each neuron's coefficient taking its
    lower line where positive and its upper line elsewhere, and concretize
    over the box.  ``lines`` holds the hidden layers' relaxation lines
    (``_relaxation_lines``), built by the caller; the pass reads the
    ``start`` layers below ``start`` and builds none.  Returns the bounds,
    shaped like ``c0``, and the input coefficients ``A``, whose signs pick
    each bound's box corner; where every lower line is its upper line, the
    bound is exact there.

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

    ``C`` is ``(m, d)`` with 1-D lines, or a stack ``(R, m, d)`` with
    lines shaped ``(R, 1, d_h)``: m functionals per domain.  Every product
    multiplies fixed blocks of ``block`` rows (``_rows_matmul``) and every
    sum runs over the last axis, so each row gets the floats of its
    one-row call bit for bit.
    """
    A = np.asarray(C, dtype=np.float64)
    const = np.asarray(c0, dtype=np.float64)
    neg = -const if both else None
    for i in range(start, -1, -1):
        layer = net.layers[i]
        shift = _rows_matmul(A, layer.bias, block)
        const = const + shift
        A = _rows_matmul(A, layer.weight, block)
        if both:
            neg = neg - shift
        if i > 0:
            slope, li, ui, _ = lines[i - 1]
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
    never falls below the interval baseline.  Crossed bounds (an empty
    region) give +inf (vacuously verified).
    """
    if split is None:
        split = SplitAssignment.free(net)
    c = np.asarray(coeffs, dtype=np.float64)
    if c.shape != (net.output_dim,):
        raise StructuralError(
            f"spec coefficients must have shape ({net.output_dim},), got {c.shape}"
        )
    return float(_spec_lower(net, box, _domain_lines(net, inter, split), inter, c, const)[0])


def _spec_lower(net, box, lines, inter, c, const):
    """The CROWN lower bound of ``c @ logits + const`` through the domain's
    relaxation lines ``lines`` (``_domain_lines`` of ``inter``), floored by
    the interval bound, and +inf where ``inter`` crosses (an empty region):
    shape (1,) for one region's 1-D bounds, (R, m) for a stack of ``(R, 1,
    d)`` bounds (per-row codes, or per-row boxes from ``Box.stack``), whose
    row r meets m specs ``c[r]`` and constants ``const[r]``; ``c`` and
    ``const`` broadcast against the rows, so one (K,) spec gives m = 1."""
    lo, hi = inter.lower[-1], inter.upper[-1]
    lead = np.broadcast_shapes(lo.shape[:-1] or (1,), c.shape[:-1])
    C = np.broadcast_to(c, lead + c.shape[-1:])
    vals, _ = _backward(net, lines, box, C, np.full(lead, const), len(net.layers) - 1)
    floor = _interval_lower(lo, hi, c, const)
    # max(vals, floor) that keeps vals on a tie, as Python's max does
    return np.where(inter.feasible, np.where(floor > vals, floor, vals), np.inf)


def _bound_children(net, signed, box, inter, split, starts, coeffs, const):
    """Bounds of a batch of BaB children in one pass, one child per row.

    Row r is the domain with split codes row r of ``split`` (``(R, 1, d_h)``
    per layer), which forces one more neuron of hidden layer ``starts[r]``
    than its parent.  ``inter`` holds the parents' bounds stacked the same
    way, ``(R, 1, d_i)`` per layer (a parent's bounds do not cross).  Each
    row's IBP restarts at its split layer from its parent's bounds there,
    clamped under its own codes (the layers below cannot change, and the
    child's region lies inside its parent's); it is intersected with the
    parent's bounds and bounded by CROWN, floored by the interval bound.
    ``signed`` is ``_sign_split`` of the weights (layer 0 is never used).
    A child whose split contradicts its parent's bounds comes out crossed:
    its region is empty, its row vacuous.

    Returns ``(bounds, lower, branch)``: the children's bounds, ``(R, 1,
    d)`` per layer (the layers below the lowest split layer in the batch
    are ``inter``'s arrays), the lower bounds of ``coeffs @ logits +
    const``, +inf where a row is crossed, and per row the neuron BaB
    splits when it pops that child (``_branch_on`` of its lines), -1 where
    it has no unstable neuron.  Each child's lines are built once
    (``_domain_lines``), read by its CROWN pass and then by its branch
    choice, so that popping a child builds nothing.  A row is a function
    of its parent's row and its own codes alone: it holds bit for bit
    what ``_ibp_from``, ``intersect_bounds`` and ``crown_lower_bound``
    give that child alone, since every product is one of fixed row
    blocks, in which a row's floats do not depend on the other rows
    (``_rows_matmul``), and a row takes its parent's interval at every
    layer up to its split layer.
    Below its split layer a row holds its parent's values.
    """
    first = int(np.min(starts))
    child = intersect_bounds(
        _ibp_from(net, signed, split, first, inter.lower[first], inter.upper[first], inter, starts),
        inter, start=first,
    )
    lines = _domain_lines(net, child, split)
    lower = _spec_lower(net, box, lines, child, coeffs, const)[:, 0]
    return child, lower, _branch_on(lines)[:, 0]


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
    A neuron whose refined bounds cross before that clamp, which only
    rounding does (on a neuron whose range is a point, say), keeps its IBP
    interval, so only a split leaves bounds crossed: the region is empty.
    A hidden layer's bounds are final once refined, so its relaxation lines
    are built once, at the next step, and every later back-substitution
    reads them from the growing list.
    One back-substitution of a layer's identity ``I`` gives both sides:
    the lower bounds of ``I``, and the upper bounds as 0 minus the lower
    bounds of ``-I``, read off the same chain (see ``_backward``).

    A stack of E boxes (``Box.stack``) gives ``(E, 1, d)`` bounds per layer
    and an (E, 1) ``feasible``.  Each layer's identity ``C`` becomes
    ``(E, d, d)``, and every product of its back-substitution is one per
    box, of the box's d rows (``_rows_matmul`` with ``block`` = d, a fixed
    shape), so each row holds the floats of its own one-box call bit for
    bit; a row whose IBP a split already crossed is refined all the same,
    and stays crossed.
    """
    if method not in ("ibp", "crown"):
        raise UsageError(f"unknown bound method {method!r}")
    base = ibp(net, box, split)
    if method == "ibp" or not np.any(base.feasible):
        return base
    if split is None:
        split = SplitAssignment.free(net)
    lowers = list(base.lower)
    uppers = list(base.upper)
    stack = box.lower.shape[:-2]
    refined = base
    lines = []
    for i in range(1, len(net.layers)):
        # the pass on layer i reads the hidden layers below it, already
        # refined; layer i - 1 was the last of them to be
        lines.append(_relaxation_lines(net, refined, split, i - 1))
        d = net.layers[i].out_dim
        # [0]: the input coefficients are not needed, so not kept alive.
        # The identity is a broadcast view; on E > 1 boxes its first
        # product copies it into (E, d, d) rows, which _root_group_size
        # counts.
        # 0 minus the lower bound of -I keeps a zero upper bound +0.0, as
        # a direct upper pass gives it (plain negation gives -0.0)
        lo, neg = _backward(
            net, lines, box, np.broadcast_to(np.eye(d), stack + (d, d)),
            np.zeros(stack + (d,)), i, both=True, block=d,
        )[0]
        lo = np.maximum(lo.reshape(lowers[i].shape), lowers[i])
        hi = np.minimum((0.0 - neg).reshape(uppers[i].shape), uppers[i])
        # not a blanket min/max: every other neuron keeps its bytes, -0.0 too
        crossed = lo > hi
        if crossed.any():
            lo = np.where(crossed, lowers[i], lo)
            hi = np.where(crossed, uppers[i], hi)
        if i < len(net.layers) - 1:
            lo, hi = _clamp_split(split.codes[i], lo, hi)
        lowers[i] = lo
        uppers[i] = hi
        refined = LayerBounds(tuple(lowers), tuple(uppers), net.grafted)
    return refined


def intersect_bounds(a: LayerBounds, b: LayerBounds, start: int = 0) -> LayerBounds:
    """Elementwise intersection of two sound bound sets for nested regions.

    Layers below ``start`` are taken from ``b`` as they are, for callers
    that know ``b`` lies inside ``a`` there (a BaB child's IBP restarts at
    its split layer from its parent's bounds ``b``, so below that layer it
    has nothing tighter).  Bounds with a leading row axis are intersected
    row by row.  A row that either side, or their contradiction, empties
    comes out crossed.
    """
    lowers = b.lower[:start] + tuple(
        np.maximum(x, y) for x, y in zip(a.lower[start:], b.lower[start:])
    )
    uppers = b.upper[:start] + tuple(
        np.minimum(x, y) for x, y in zip(a.upper[start:], b.upper[start:])
    )
    return LayerBounds(lowers, uppers, a.grafted)


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
    if not inter.grafted:
        return np.zeros(inter.lower[0].shape[:-1] + (0,), dtype=np.int8)
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
    return status


def _branch_on(lines) -> np.ndarray:
    """Per row of a domain's relaxation lines (``_domain_lines``), the
    neuron BaB splits: the unstable neuron with the largest upper-line
    intercept -u*l/(u-l), the relaxation-area proxy |l*u|/(u-l) bit for
    bit, ties broken toward the lowest id; -1 where a row has no unstable
    neuron (a linear leaf).  1-D lines give a 0-d array."""
    if not lines:
        return np.array(-1)
    ui = np.concatenate([line[2] for line in lines], axis=-1)
    unstable = np.concatenate([line[3] for line in lines], axis=-1)
    score = np.where(unstable, ui, -np.inf)
    return np.where(unstable.any(axis=-1), np.argmax(score, axis=-1), -1)


def tally_stability(
    net: Network,
    features: np.ndarray,
    eps: float,
    clip: tuple[float, float] | None = None,
) -> StabilityTally:
    """Count, per hidden neuron, on how many examples it is unstable,
    stably active, or stably inactive under the eps-ball of each example.

    Grafted neurons keep all-zero tallies.
    """
    X = np.asarray(getattr(features, "features", features), dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise UsageError("tally_stability needs a non-empty (n, d) array")
    if not (np.isfinite(eps) and eps >= 0):
        raise DomainError(f"eps must be finite and >= 0, got {eps}")
    n = X.shape[0]
    free = SplitAssignment.free(net)
    order = (NeuronStatus.UNSTABLE, NeuronStatus.STABLE_ACTIVE, NeuronStatus.STABLE_INACTIVE)
    counts = np.zeros((len(order), net.num_hidden), dtype=np.int64)
    for s in range(0, n, _TALLY_BATCH):
        lo, hi = _eps_ball(X[s : s + _TALLY_BATCH], eps, clip)
        status = classify_neurons(_ibp_boxes(net, lo, hi, free), free)
        for count, k in zip(counts, order):
            count += (status == k).sum(axis=0)
    return StabilityTally(*counts, n)

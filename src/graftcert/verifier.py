"""Complete verification: branch-and-bound over unstable ReLU neurons,
PGD falsification, and a low-dimensional input-splitting oracle.

The verifier is deterministic for a fixed seed: the worklist is ordered by
(bound, insertion counter) and all randomness flows through one generator.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .bounds import (
    FORCED_ACTIVE,
    FORCED_INACTIVE,
    Box,
    LayerBounds,
    SplitAssignment,
    compute_bounds,
    crown_lower_bound,
    ibp,
    input_region,
    interval_spec_lower,
    _backward,
    _bound_children,
    _branch_on,
    _domain_lines,
    _sign_split,
)
from .errors import UndecidableRegion, UsageError, require_finite, require_integers
from .network import Network, forward_batch, input_grad_batch
from .training import AttackConfig

__all__ = [
    "Specification",
    "VerdictStatus",
    "VerdictRecord",
    "VerifyBudget",
    "build_specs",
    "bab_verify",
    "oracle_input_split",
    "pgd_attack",
    "attack_examples",
]

# BaB falsifies by attack only at the root and from linear-leaf witnesses;
# every other domain is decided by its bounds (Bunel et al., JMLR 2020;
# Wang et al., NeurIPS 2021)
_ROOT_ATTACK_STEPS = 20
_ROOT_ATTACK_RESTARTS = 2
_LEAF_ATTACK_STEPS = 20
# domains popped per BaB step; their children, up to 64, are bounded in one
# batched call (batched BaB as in Wang et al., NeurIPS 2021)
_BAB_BATCH = 32


@dataclass(frozen=True)
class Specification:
    """A linear functional on the logits; positive over the region means
    the property holds.  ``label``/``target`` record the margin it encodes."""

    coeffs: np.ndarray
    const: float = 0.0
    label: int | None = None
    target: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64))

    def value(self, logits: np.ndarray) -> float:
        return float(self.coeffs @ np.asarray(logits) + self.const)


class VerdictStatus(str, Enum):
    VERIFIED = "verified"
    FALSIFIED = "falsified"
    TIMEOUT = "timeout"


@dataclass
class VerdictRecord:
    status: VerdictStatus
    bound: float
    counterexample: np.ndarray | None
    elapsed: float
    domains_explored: int


@dataclass(frozen=True)
class VerifyBudget:
    """Work limits for one verification call.  ``time_limit`` of None
    disables the wall clock (deterministic mode relies on max_domains)."""

    time_limit: float | None = 30.0
    max_domains: int = 100_000

    def __post_init__(self):
        require_integers(max_domains=self.max_domains)
        require_finite(self)
        if self.max_domains < 1:
            raise UsageError(f"max_domains must be >= 1, got {self.max_domains}")
        if self.time_limit is not None and not self.time_limit > 0:
            raise UsageError(f"time_limit must be None or > 0, got {self.time_limit}")


def build_specs(num_classes: int, label: int) -> list[Specification]:
    """The ``num_classes - 1`` margin specifications (label vs. every other
    class); the example is robust iff all of them verify."""
    if num_classes < 2:
        raise UsageError("need at least two classes")
    if not 0 <= label < num_classes:
        raise UsageError(f"label {label} out of range for {num_classes} classes")
    specs = []
    for t in range(num_classes):
        if t == label:
            continue
        c = np.zeros(num_classes)
        c[label] = 1.0
        c[t] = -1.0
        specs.append(Specification(c, 0.0, label, t))
    return specs


# ---------------------------------------------------------------------------
# PGD


def _descend(net, C, c0, lo, hi, starts, step, steps):
    """Signed-gradient descent over boxes, batched over examples and their
    start points, of each start's worst value ``min_k C[e, k] @ logits + c0``.

    ``starts`` is (E, S, d): example e's S starts, which descend over the
    box ``[lo[e], hi[e]]`` on its own spec rows ``C[e]`` ((E, m, K)).
    ``lo``, ``hi`` and ``step`` are (E, 1, d) per example, or broadcast to
    every example.  Yields ``(ids, x, worst)`` before each step and once
    after the last: the stack positions of the examples still descending,
    their points (n, S, d) and worst values (n, S).  The next step
    overwrites the points, so a reader copies what it keeps.  An example
    leaves after the first iteration where some start's worst value is
    below zero.  Each example's floats are those of its own E = 1 run bit
    for bit (see ``forward_batch``).  Every attack in this module runs
    this one loop."""
    ids = np.arange(len(starts))
    x = np.clip(np.asarray(starts, dtype=np.float64), lo, hi)
    for it in range(steps + 1):
        logits, pre, _ = forward_batch(net, x)
        vals = logits @ np.swapaxes(C, -1, -2) + c0
        worst = vals.min(axis=-1)
        yield ids, x, worst
        if it == steps:
            return
        keep = ~np.any(worst < 0.0, axis=-1)
        if not keep.all():
            if not keep.any():
                return
            ids, x, vals, C = ids[keep], x[keep], vals[keep], C[keep]
            pre = [p[keep] for p in pre]
            lo, hi, step = (a[keep] if np.ndim(a) == 3 else a for a in (lo, hi, step))
        # each start steps down its currently worst row, gathered into a
        # contiguous (n, S, K) array (a stride-0 view of a one-row spec
        # could take another BLAS path)
        rows = C[np.arange(len(C))[:, None], vals.argmin(axis=-1)]
        g = input_grad_batch(net, pre, rows)
        # step and clip in place; np.clip is max then min, so these are its bits
        np.sign(g, out=g)
        g *= step
        x -= g
        np.maximum(x, lo, out=x)
        np.minimum(x, hi, out=x)


def _minimize_spec(
    net: Network,
    spec: Specification,
    box: Box,
    steps: int,
    starts: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Signed-gradient descent on the spec value over the box, batched over
    start points, stepping a quarter of the box's half-width.  Returns
    (best input, best value) over all iterations; stops early once the
    value dips below zero."""
    best_x, best_val = None, np.inf
    step = 0.125 * (box.upper - box.lower)
    C = spec.coeffs[None, None, :]
    starts = np.atleast_2d(starts)[None]
    for _, x, vals in _descend(net, C, spec.const, box.lower, box.upper, starts, step, steps):
        i = int(np.argmin(vals[0]))
        if vals[0, i] < best_val:
            best_x, best_val = x[0, i].copy(), float(vals[0, i])
    return best_x, best_val


def attack_examples(
    net: Network,
    X0: np.ndarray,
    labels,
    cfg: AttackConfig,
    seeds,
) -> list[np.ndarray | None]:
    """``pgd_attack`` of every row of ``X0`` (with its label and seed) in
    one stacked descent; entry e is bit for bit
    ``pgd_attack(net, X0[e], labels[e], cfg, seeds[e])``."""
    X0 = np.asarray(X0, dtype=np.float64)
    boxes = [input_region(x0, cfg.eps, cfg.clip) for x0 in X0]
    starts = np.stack([
        np.vstack([x0[None, :], box.sample(np.random.default_rng(seed), cfg.restarts - 1)])
        for x0, box, seed in zip(X0, boxes, seeds)
    ])
    box = Box.stack(boxes)
    C = np.stack([
        np.array([s.coeffs for s in build_specs(net.output_dim, int(label))]) for label in labels
    ])
    found: list[np.ndarray | None] = [None] * len(X0)
    for ids, x, worst in _descend(
        net, C, 0.0, box.lower, box.upper, starts, cfg.eps / 4.0, cfg.steps
    ):
        for j in np.flatnonzero(np.any(worst < 0.0, axis=-1)):
            found[ids[j]] = x[j, np.flatnonzero(worst[j] < 0.0)[0]].copy()
    return found


def pgd_attack(
    net: Network,
    x0: np.ndarray,
    label: int,
    cfg: AttackConfig,
    seed: int = 0,
) -> np.ndarray | None:
    """Multi-restart PGD on the class margins, stepping eps / 4.

    Returns the first perturbed input that gets misclassified (any margin
    below zero), or None.  The returned input always lies inside the
    eps-ball intersected with the clip range.  The first restart starts at
    the clean point, the rest at uniform random points of the box; each
    descends its tightest margin.  ``attack_examples`` runs it on many
    examples at once.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    return attack_examples(net, x0[None, :], [label], cfg, [seed])[0]


# ---------------------------------------------------------------------------
# branch and bound


def _resolve_linear_leaf(
    net: Network,
    box: Box,
    split: SplitAssignment,
    inter: LayerBounds,
    spec: Specification,
):
    """Exact closed form for a domain with no unstable neurons, from its
    split and its bounds: 1-D per layer, or one stacked ``(1, 1, d)`` row.

    Returns ("verified", min, None) when the box minimum of the
    pattern-affine function is positive, ("falsified", value, witness)
    when the witness corner genuinely violates the spec, and
    ("discard", min, witness) when the witness leaves the split region.
    The minimum is over the whole box, not the region, so a discarded
    region may still hold a counterexample (README, "Soundness model").
    Every lower line here is its upper line, so the CROWN lower-bound pass
    (``_backward``) is exact."""
    lead = inter.lower[-1].shape[:-1] or (1,)
    C = np.broadcast_to(spec.coeffs, lead + spec.coeffs.shape)
    lines = _domain_lines(net, inter, split)
    mins, A = _backward(net, lines, box, C, np.full(lead, spec.const), len(net.layers) - 1)
    exact_min = float(mins.reshape(-1)[0])
    witness = np.where(A.reshape(-1) > 0.0, box.lower, box.upper)
    if exact_min > 0.0:
        return ("verified", exact_min, None)
    logits, _, _ = forward_batch(net, witness[None, :])
    true_val = spec.value(logits[0])
    if true_val < 0.0:
        return ("falsified", true_val, witness)
    return ("discard", exact_min, witness)


class _Rows(NamedTuple):
    """BaB domains, one per row: per affine layer their bounds, ``(n, 1,
    d_i)``, from which their children's bounds are computed; their split
    codes (flat ids), ``(n, 1, H)``; their certified lower bounds and
    ``branch``, ``(n,)``.  ``branch`` is the neuron BaB splits when it pops
    the domain, or -1 when it has no unstable neuron (a linear leaf),
    chosen when the domain is bounded, from its relaxation lines: the
    root's from one build of its own, a child's from those its batch's
    bounding pass built for its CROWN bound (``_bound_children``)."""

    lower: tuple
    upper: tuple
    codes: np.ndarray
    bound: np.ndarray
    branch: np.ndarray

    def arrays(self):
        for field in self:
            yield from field if isinstance(field, tuple) else (field,)

    def map(self, fn) -> "_Rows":
        """``fn`` of every array, in the same layout."""
        return _Rows(*(tuple(map(fn, f)) if isinstance(f, tuple) else fn(f) for f in self))


def _layer_codes(net: Network, codes: np.ndarray) -> SplitAssignment:
    """Flat split codes (every hidden neuron on the last axis) as one
    assignment, its layers views of ``codes``."""
    layers = np.split(codes, net.layer_offsets()[1:], axis=-1)
    return SplitAssignment(layers[: len(net.hidden_sizes)])


class _Frontier:
    """BaB's pending domains as one ``_Rows`` of stacked arrays, one slot
    (row) per domain, all a child's bounding reads of its parent.  ``take``
    gathers rows and ``put`` writes them with one indexed operation per
    array.  ``free`` lists the slots of popped domains, which later
    children reuse; the capacity doubles when no slot is free, so memory
    follows the live frontier, not ``max_domains``."""

    def __init__(self, root: _Rows):
        self.rows = root
        self.free: list[int] = []
        self.used = len(root.bound)

    def take(self, slots) -> _Rows:
        return self.rows.map(lambda a: a[slots])

    def put(self, rows: _Rows) -> list[int]:
        """Write ``rows`` into free slots and return the slots, in row order."""
        n = len(rows.bound)
        k = max(len(self.free) - n, 0)
        slots = self.free[k:]
        del self.free[k:]
        fresh = n - len(slots)
        slots += range(self.used, self.used + fresh)
        self.used += fresh
        cap = len(self.rows.bound)
        if self.used > cap:
            while cap < self.used:
                cap *= 2
            self._grow(cap)
        index = np.array(slots)
        for a, v in zip(self.rows.arrays(), rows.arrays()):
            a[index] = v
        return slots

    def _grow(self, cap: int) -> None:
        # one array at a time, so that at most one old array is alive beside
        # the new ones; a new array's rows past the old ones stay unwritten,
        # and so take no memory until a domain is put there
        arrays = list(self.rows.arrays())
        self.rows = layout = self.rows.map(lambda a: None)
        for i, old in enumerate(arrays):
            arrays[i] = np.empty((cap,) + old.shape[1:], old.dtype)
            arrays[i][: len(old)] = old
        fill = iter(arrays)
        self.rows = layout.map(lambda _: next(fill))


def bab_verify(
    net: Network,
    spec: Specification,
    box: Box,
    budget: VerifyBudget | None = None,
    *,
    seed: int = 0,
    root_inter: LayerBounds | None = None,
    root_bound: float | None = None,
) -> VerdictRecord:
    """Branch-and-bound complete verification of ``spec > 0`` over the box.

    The root is bounded by CROWN first; only when that bound is not
    positive does a PGD attack from the box center plus seeded random
    restarts run, once.  Then a worst-bound-first worklist of domains,
    ordered by (bound, insertion counter), is searched.  The domains are
    rows (``_Rows``) of one store (``_Frontier``); the heap holds
    ``(bound, counter, slot)``.  Each step pops up to ``_BAB_BATCH`` (32)
    worst domains, gathers their rows twice each, and forces each popped
    domain's branch neuron, its worst unstable neuron, both ways in the
    gathered codes.  The children of all popped domains are bounded in one
    batched call: each is re-bounded by IBP restarted at its split
    neuron's layer from its parent's bounds there (the layers below it
    cannot change), intersected with the parent's bounds, then bounded by
    CROWN, and its own branch neuron is chosen from those bounds; it is
    discarded once positive.  A child is a function of its parent's row.
    The kept children are written into free slots, popped domains' among
    them.  Domains with no unstable neurons are resolved exactly by the
    linear closed form, which falsifies from its witness corner or, when
    the witness leaves the split region, from a PGD attack seeded at the
    witness.  Both attacks are ``pgd_attack``'s descent loop
    run on the spec alone.

    ``max_domains`` counts bounded domains: a step pops at most half the
    budget left.  A domain's children depend only on that domain, so a
    VERIFIED result, its bound and its work do not depend on the batch
    size; a timeout's reported worst remaining bound, and where a
    falsified search stops (or whether it runs out of budget first),
    depend on the search order.  The clock is read before each pop, so a
    search can overrun ``time_limit`` by one step (up to 64 children).
    ``root_inter`` supplies the root's bounds, those of the whole box with
    no split (default: ``compute_bounds(..., "crown")``, as the verify
    stage computes them); it is used as given.  ``root_bound`` supplies
    the root's ``crown_lower_bound`` of the spec (default: computed here),
    for callers that have bounded the root; the root's branch neuron is
    chosen only when a search starts.
    """
    t0 = time.perf_counter()
    budget = budget or VerifyBudget()
    root_split = SplitAssignment.free(net)
    explored = 1

    def verdict(status, bound, cex=None):
        cex = None if cex is None else np.asarray(cex, dtype=np.float64)
        return VerdictRecord(status, float(bound), cex, time.perf_counter() - t0, explored)

    inter = compute_bounds(net, box, root_split, "crown") if root_inter is None else root_inter
    if root_bound is None:
        root_bound = crown_lower_bound(net, box, root_split, inter, spec.coeffs, spec.const)
    if root_bound > 0.0:
        # a sound positive bound admits no counterexample to attack
        return verdict(VerdictStatus.VERIFIED, root_bound)
    restarts = box.sample(np.random.default_rng(seed), _ROOT_ATTACK_RESTARTS - 1)
    starts = np.vstack([box.center()[None, :], restarts])
    x_adv, val = _minimize_spec(net, spec, box, _ROOT_ATTACK_STEPS, starts)
    if val < 0.0:
        return verdict(VerdictStatus.FALSIFIED, val, x_adv)
    # a child starts from its split layer's pre-activations, so it never
    # needs the first layer's weights, usually the largest (784 x 128 on MNIST)
    signed = (None,) + _sign_split(net.layers[1:])
    # the store's rows are copies: it writes into them, and the caller may
    # share ``root_inter`` between specs
    store = _Frontier(_Rows(
        *(tuple(x[None, None].copy() for x in side) for side in (inter.lower, inter.upper)),
        root_split.flat()[None, None], np.array([root_bound]),
        np.array([_branch_on(_domain_lines(net, inter, root_split))]),
    ))
    offsets = net.layer_offsets()
    heap = [(root_bound, 0, 0)]
    counter = 1
    verified_floor = np.inf
    while heap:
        # each branching pop bounds two children, and never past the budget
        room = min(_BAB_BATCH, (budget.max_domains - explored) // 2)
        if room < 1:
            return verdict(VerdictStatus.TIMEOUT, heap[0][0])
        parents = []
        for _ in range(room):
            if not heap:
                break
            if budget.time_limit is not None and time.perf_counter() - t0 > budget.time_limit:
                # popped in bound order, so the first pending parent is the worst
                worst = store.rows.bound[parents[0]] if parents else heap[0][0]
                return verdict(VerdictStatus.TIMEOUT, worst)
            slot = heapq.heappop(heap)[2]
            if store.rows.branch[slot] < 0:
                store.free.append(slot)
                leaf = store.rows.map(lambda a: a[slot : slot + 1])
                kind, leaf_val, witness = _resolve_linear_leaf(
                    net, box, _layer_codes(net, leaf.codes),
                    LayerBounds(leaf.lower, leaf.upper, net.grafted), spec,
                )
                if kind == "verified":
                    verified_floor = min(verified_floor, leaf_val)
                    continue
                if kind == "falsified":
                    return verdict(VerdictStatus.FALSIFIED, leaf_val, witness)
                # witness left the split region: one seeded attempt, then the
                # domain is discarded, though it may hold a counterexample
                x_adv, val = _minimize_spec(net, spec, box, _LEAF_ATTACK_STEPS, witness[None, :])
                if val < 0.0:
                    return verdict(VerdictStatus.FALSIFIED, val, x_adv)
                continue
            parents.append(slot)
        if not parents:
            continue
        # one row per child: each popped parent's active child, then its
        # inactive one.  A branch neuron is unstable, so it is free and not
        # grafted, and the checks of ``SplitAssignment.force`` hold
        slots = np.repeat(parents, 2)
        layers = np.searchsorted(offsets, store.rows.branch[slots], side="right") - 1
        rows = store.take(slots)
        store.free.extend(parents)
        n = len(rows.bound)
        rows.codes[np.arange(n), 0, rows.branch] = np.tile([FORCED_ACTIVE, FORCED_INACTIVE], n // 2)
        split = _layer_codes(net, rows.codes)
        child, lower, branch = _bound_children(
            net, signed, box, LayerBounds(rows.lower, rows.upper, net.grafted), split, layers,
            spec.coeffs, spec.const,
        )
        explored += n
        # the child's region is nested in the parent's, so the parent bound
        # stays valid; on a tie the child's bound is kept, as Python's max
        # keeps its first argument
        cb = np.where(rows.bound > lower, rows.bound, lower)
        closed = cb > 0.0
        # +inf marks an empty region, verified vacuously
        verified_floor = min(verified_floor, cb[closed & np.isfinite(cb)].min(initial=np.inf))
        if closed.all():
            continue
        kids = _Rows(child.lower, child.upper, rows.codes, cb, branch)
        if closed.any():
            kids = kids.map(lambda a: a[~closed])
        for bound, slot in zip(kids.bound.tolist(), store.put(kids)):
            heapq.heappush(heap, (bound, counter, slot))
            counter += 1
    return verdict(VerdictStatus.VERIFIED, verified_floor)


# ---------------------------------------------------------------------------
# completeness oracle


def oracle_input_split(
    net: Network,
    spec: Specification,
    box: Box,
    tol: float,
    max_cells: int = 2_000_000,
) -> VerdictStatus:
    """Complete check by recursive input bisection, for input_dim <= 3.

    A cell is verified when its IBP bound is positive and falsified when
    its center evaluates negative; otherwise it splits along its widest
    axis.  Cells narrower than ``tol`` are set aside; if the search ends
    without a falsifying cell but some were set aside (or the cell budget
    ran out), the instance is undecidable at this tolerance and
    UndecidableRegion is raised.
    """
    if box.dim > 3:
        raise UsageError("input-splitting oracle supports input_dim <= 3")
    stack = [box]
    cells = 0
    undecided = 0
    while stack:
        cell = stack.pop()
        cells += 1
        if cells > max_cells:
            raise UndecidableRegion(f"cell budget {max_cells} exhausted")
        inter = ibp(net, cell)
        if interval_spec_lower(inter, spec.coeffs, spec.const) > 0.0:
            continue
        center = cell.center()
        logits, _, _ = forward_batch(net, center[None, :])
        if spec.value(logits[0]) < 0.0:
            return VerdictStatus.FALSIFIED
        widths = cell.upper - cell.lower
        ax = int(np.argmax(widths))
        if widths[ax] < tol:
            undecided += 1
            continue
        mid = 0.5 * (cell.lower[ax] + cell.upper[ax])
        lo1, hi1 = cell.lower.copy(), cell.upper.copy()
        lo2, hi2 = cell.lower.copy(), cell.upper.copy()
        hi1[ax] = mid
        lo2[ax] = mid
        stack.append(Box(lo1, hi1))
        stack.append(Box(lo2, hi2))
    if undecided:
        raise UndecidableRegion(
            f"{undecided} cell(s) unresolved below tolerance {tol:.3g}"
        )
    return VerdictStatus.VERIFIED
